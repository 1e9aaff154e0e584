"""Slot-table throughput on the standard N-sweep.

Not a paper figure -- decisions are pinned by the golden suite; this
measures packets demultiplexed per second for each of the paper's
list-shaped structures.  Each cell replays one recorded TPC/A stream
(common random numbers) through the structure in ``lookup_batch``
chunks.  The same measurement, gated across PRs, runs via ``python -m
repro.cli bench-gate`` (see docs/fastpath.md); here it runs once per
session so ``pytest benchmarks/bench_fastpath.py -s`` prints the sweep
inline.

The assertions are deliberately loose (every packet counted, cost
growing with N for the list structures): shared CI runners jitter, and
the gated numbers live in BENCH_trajectory.json where they were
measured on one machine.
"""

import pytest

from repro.fastpath.gate import measure_replay
from repro.workload.record import record_tpca_stream
from conftest import emit

SPECS = ["linear", "bsd", "mtf", "sequent:h=19", "hashed_mtf:h=19"]

N_SWEEP = (100, 300, 1000)
DURATION = 20.0
SEED = 7

_streams = {}


def stream_for(n_users):
    if n_users not in _streams:
        _streams[n_users] = record_tpca_stream(n_users, DURATION, SEED)
    return _streams[n_users]


@pytest.mark.parametrize("spec", SPECS)
def test_fastpath_sweep(once, spec):
    """One structure across the N-sweep."""

    def sweep():
        return [
            (n_users, measure_replay(spec, stream_for(n_users), repeats=3))
            for n_users in N_SWEEP
        ]

    rows = once(sweep)

    lines = [f"{'N':>5} {'pkts':>7} {'pkts/sec':>12} {'PCBs/pkt':>9}"]
    for n_users, measurement in rows:
        lines.append(
            f"{n_users:>5} {measurement.packets:>7}"
            f" {measurement.packets_per_sec:>12,.0f}"
            f" {measurement.mean_examined:>9.2f}"
        )
    emit(f"fastpath: {spec}", "\n".join(lines))

    for n_users, measurement in rows:
        assert measurement.packets == len(stream_for(n_users).packets)
        assert measurement.packets_per_sec > 0
    # The paper's figure of merit grows with N for every list structure.
    assert rows[-1][1].mean_examined > rows[0][1].mean_examined


def test_batch_amortization_never_hurts_fast_sequent(once):
    """lookup_batch vs the per-call loop on the same structure.

    At large N the chain scan dominates and the amortized template
    toll is small relative to timer noise, so the pinned claim is the
    safe direction: batching is never materially slower.  The win
    itself shows in the emitted numbers (and grows as N shrinks).
    """
    from repro.core.pcb import PCB
    from repro.core.registry import make_algorithm
    import time

    stream = stream_for(1000)
    packets = list(stream.packets)

    def build():
        algorithm = make_algorithm("fast-sequent:h=19")
        for tup in stream.tuples:
            algorithm.insert(PCB(tup))
        return algorithm

    def measure():
        per_call_best = batched_best = float("inf")
        for _ in range(5):
            algorithm = build()
            start = time.perf_counter()
            for tup, kind in packets:
                algorithm.lookup(tup, kind)
            per_call_best = min(per_call_best, time.perf_counter() - start)

            algorithm = build()
            start = time.perf_counter()
            algorithm.lookup_batch(packets)
            batched_best = min(batched_best, time.perf_counter() - start)
        return per_call_best, batched_best

    per_call, batched = once(measure)
    emit(
        "fastpath: batch amortization (fast-sequent:h=19, N=1000)",
        f"per-call {len(packets) / per_call:,.0f} p/s,"
        f" batched {len(packets) / batched:,.0f} p/s"
        f" ({per_call / batched:.2f}x)",
    )
    assert batched < per_call * 1.10
