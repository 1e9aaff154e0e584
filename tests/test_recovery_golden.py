"""Golden-trace proof for checkpoint/restore and supervised recovery.

The committed goldens (``tests/golden/*.json``) pin the paper's five
structures' per-packet decisions on seeded streams.  This suite replays
those exact streams but *interrupts* the structure mid-stream -- a
snapshot/restore round trip, or a full shard crash recovered by the
supervisor -- and asserts the pinned traces are still reproduced
byte-for-byte, per-call and batched.  A restored-from-checkpoint demux
is thereby proven decision-identical to one that never went down.

``tests/golden/snapshots/`` holds snapshots written by the list-walking
implementations these structures replaced; restoring them must
continue the golden traces too.
"""

from __future__ import annotations

import json
import pathlib

import pytest

from repro.core.pcb import PCB
from repro.core.registry import make_algorithm
from repro.core.stats import PacketKind
from repro.fastpath.conformance import (
    churn_ops,
    churn_tuple,
    decision_trace,
    golden_stream,
    stray_tuple,
)
from repro.recovery import ShardSupervisor, restore_bytes, snapshot_bytes

GOLDEN_DIR = pathlib.Path(__file__).resolve().parent / "golden"
GOLDEN_FILES = sorted(GOLDEN_DIR.glob("*.json"))

#: Version-1 snapshots captured mid-stream from the list-walking
#: implementations of these structures (before the slot-table classes
#: took their names), at ``resumed_decision_trace``'s split: the first
#: half of ``tpca_seed101``'s packets, strays included, per-call.
#: Snapshots in the field look like this; restores now build the
#: slot-table classes.  Fixed fixtures -- nothing regenerates them.
FIELD_SNAPSHOTS = {
    "bsd": "bsd_tpca_seed101.json",
    "sequent:h=7": "sequent_h7_tpca_seed101.json",
    "hashed_mtf:h=5": "hashed_mtf_h5_tpca_seed101.json",
}


def expanded_packets(stream, stray_every=13):
    """The exact packet sequence ``decision_trace`` replays: the
    stream, with a stray (never-installed) key after every 13th packet."""
    packets = []
    for position, (tup, kind) in enumerate(stream.packets):
        packets.append((tup, kind))
        if (position + 1) % stray_every == 0:
            stray_kind = (
                PacketKind.DATA
                if (position // stray_every) % 2
                else PacketKind.ACK
            )
            packets.append((stray_tuple(position), stray_kind))
    return packets


def replay_packets(algorithm, packets, *, use_batch=False, batch_size=64):
    if use_batch:
        results = []
        for start in range(0, len(packets), batch_size):
            results.extend(
                algorithm.lookup_batch(packets[start:start + batch_size])
            )
    else:
        results = [algorithm.lookup(tup, kind) for tup, kind in packets]
    return [
        [int(r.found), r.examined, int(r.cache_hit)] for r in results
    ]


def interrupted_decision_trace(
    spec, stream, *, use_batch=False, batch_size=64
):
    """``decision_trace``, except the structure is snapshotted,
    discarded, and restored from bytes halfway through the stream."""
    algorithm = make_algorithm(spec)
    for tup in stream.tuples:
        algorithm.insert(PCB(tup))
    packets = expanded_packets(stream)
    cut = (len(packets) // 2 // batch_size) * batch_size
    decisions = replay_packets(
        algorithm, packets[:cut], use_batch=use_batch, batch_size=batch_size
    )
    restored = restore_bytes(snapshot_bytes(algorithm, spec))
    del algorithm  # the original is gone; only the snapshot survives
    decisions += replay_packets(
        restored, packets[cut:], use_batch=use_batch, batch_size=batch_size
    )
    return decisions


def interrupted_mutation_trace(
    spec, ops, *, use_batch=False, batch_size=32
):
    """``mutation_trace``, interrupted by a snapshot/restore at the
    midpoint of the churn walk (between two ops)."""
    algorithm = make_algorithm(spec)
    decisions = []
    cut = len(ops) // 2

    def apply(target, op_slice):
        pending = []

        def flush():
            for start in range(0, len(pending), batch_size):
                for result in target.lookup_batch(
                    pending[start:start + batch_size]
                ):
                    decisions.append(
                        [
                            int(result.found),
                            result.examined,
                            int(result.cache_hit),
                        ]
                    )
            pending.clear()

        for op in op_slice:
            if op[0] == "insert":
                flush()
                target.insert(PCB(churn_tuple(op[1])))
            elif op[0] == "remove":
                flush()
                target.remove(churn_tuple(op[1]))
            else:
                kind = PacketKind.DATA if op[2] == "data" else PacketKind.ACK
                if use_batch:
                    pending.append((churn_tuple(op[1]), kind))
                else:
                    result = target.lookup(churn_tuple(op[1]), kind)
                    decisions.append(
                        [
                            int(result.found),
                            result.examined,
                            int(result.cache_hit),
                        ]
                    )
        flush()

    apply(algorithm, ops[:cut])
    restored = restore_bytes(snapshot_bytes(algorithm, spec))
    del algorithm
    apply(restored, ops[cut:])
    return decisions


@pytest.fixture(scope="module", params=[p.name for p in GOLDEN_FILES])
def golden(request):
    """One golden file plus an *interrupted* replay closure."""
    data = json.loads((GOLDEN_DIR / request.param).read_text())
    if data.get("mode") == "churn":
        ops = churn_ops(data["churn"]["seed"], steps=data["churn"]["steps"])

        def replay(spec, *, use_batch=False, batch_size=32):
            return interrupted_mutation_trace(
                spec, ops, use_batch=use_batch, batch_size=batch_size
            )
    else:
        stream = golden_stream(
            data["stream"]["seed"],
            n_users=data["stream"]["n_users"],
            duration=data["stream"]["duration"],
        )

        def replay(spec, *, use_batch=False, batch_size=64):
            return interrupted_decision_trace(
                spec, stream, use_batch=use_batch, batch_size=batch_size
            )
    return data, replay


def test_restored_reference_reproduces_golden(golden):
    # Spelled with the paper names.
    data, replay = golden
    for spec, expected in data["decisions"].items():
        assert replay(spec) == expected, spec


def test_restored_fast_twin_reproduces_golden(golden):
    # Spelled with the fast- alias, which snapshot spec stamps carry.
    data, replay = golden
    for spec, expected in data["decisions"].items():
        assert replay(f"fast-{spec}") == expected, spec


@pytest.mark.parametrize("batch_size", [7, 64])
def test_restored_reproduces_golden_batched(golden, batch_size):
    data, replay = golden
    for spec, expected in data["decisions"].items():
        trace = replay(
            f"fast-{spec}", use_batch=True, batch_size=batch_size
        )
        assert trace == expected, (spec, batch_size)


def test_restored_sharded_matches_uninterrupted_sharded(golden):
    # Sharding changes examined counts, so the oracle is the
    # uninterrupted sharded reference (via decision_trace /
    # mutation_trace), not the flat golden file.
    data, replay = golden
    if data.get("mode") == "churn":
        from repro.fastpath.conformance import mutation_trace

        ops = churn_ops(data["churn"]["seed"], steps=data["churn"]["steps"])
        for spec in data["decisions"]:
            name, _, params = spec.partition(":")
            suffix = f",{params}" if params else ""
            sharded_spec = f"sharded-{name}:shards=4" + suffix
            oracle = mutation_trace(sharded_spec, ops)[0]
            assert replay(sharded_spec) == oracle, spec
    else:
        stream = golden_stream(
            data["stream"]["seed"],
            n_users=data["stream"]["n_users"],
            duration=data["stream"]["duration"],
        )
        for spec in data["decisions"]:
            name, _, params = spec.partition(":")
            suffix = f",{params}" if params else ""
            sharded_spec = f"sharded-{name}:shards=4" + suffix
            oracle = decision_trace(sharded_spec, stream)
            assert replay(sharded_spec) == oracle, spec


class TestSupervisedRecoveryGolden:
    """A shard crash recovered warm mid-stream reproduces the
    uninterrupted sharded trace -- per-call and batched."""

    SPECS = ["sharded-mtf:shards=4", "sharded-fast-mtf:shards=4"]

    @pytest.fixture(scope="class")
    def stream(self):
        return golden_stream(101, n_users=48, duration=40.0)

    @pytest.mark.parametrize("spec", SPECS)
    def test_warm_recovery_per_call(self, stream, spec):
        oracle = decision_trace(spec, stream)
        supervised = ShardSupervisor(
            make_algorithm(spec), checkpoint_every=200
        )
        for tup in stream.tuples:
            supervised.insert(PCB(tup))
        packets = expanded_packets(stream)
        supervised.arm_crashes([(len(packets) // 2, 1)])
        trace = replay_packets(supervised, packets)
        assert supervised.crashes_injected == 1
        assert [e.mode for e in supervised.events] == ["warm"]
        assert trace == oracle

    @pytest.mark.parametrize("spec", SPECS)
    def test_warm_recovery_batched(self, stream, spec):
        oracle = decision_trace(spec, stream, use_batch=True)
        supervised = ShardSupervisor(
            make_algorithm(spec), checkpoint_every=200
        )
        for tup in stream.tuples:
            supervised.insert(PCB(tup))
        packets = expanded_packets(stream)
        supervised.arm_crashes([(len(packets) // 2, 2)])
        trace = replay_packets(supervised, packets, use_batch=True)
        assert supervised.crashes_injected == 1
        assert [e.mode for e in supervised.events] == ["warm"]
        assert trace == oracle


@pytest.mark.parametrize("use_batch", [False, True])
@pytest.mark.parametrize("spec", sorted(FIELD_SNAPSHOTS))
def test_field_snapshot_restores_and_continues_golden(spec, use_batch):
    golden = json.loads((GOLDEN_DIR / "tpca_seed101.json").read_text())
    stream = golden_stream(**golden["stream"])
    packets = expanded_packets(stream)
    cut = int(len(packets) * 0.5)
    blob = (GOLDEN_DIR / "snapshots" / FIELD_SNAPSHOTS[spec]).read_bytes()
    restored = restore_bytes(blob)
    assert type(restored) is type(make_algorithm(spec))
    assert restored.spec == spec
    assert restored.stats.lookups == cut
    tail = replay_packets(
        restored, packets[cut:], use_batch=use_batch, batch_size=7
    )
    assert json.dumps(tail) == json.dumps(golden["decisions"][spec][cut:])
