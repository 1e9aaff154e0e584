"""Seeded wire-frame inputs for the wire-bytes-to-decision benchmark.

Each workload drives one of the repository's own traffic generators
with an :class:`OpRecorder` (or, for ``oltp``, takes the stream from
:func:`repro.workload.record.record_tpca_stream`), then turns the
recorded operations into IPv4+TCP wire frames:

* a lookup of kind DATA becomes a data segment carrying a payload;
* a lookup of kind ACK becomes a pure acknowledgement;
* an insert after set-up becomes a SYN, a remove a FIN.

A fixed, seeded share of data and ACK frames is followed by a copy
with one TCP sequence/acknowledgement byte flipped; the TCP checksum
must reject exactly those copies.  Everything here runs before any
clock starts, and the result is a pure function of the seed.
"""

from __future__ import annotations

import dataclasses
import hashlib
import random
from typing import Callable, Dict, List, Tuple

from repro.core.base import LookupResult
from repro.core.pcb import PCB
from repro.core.stats import PacketKind
from repro.packet.addresses import FourTuple
from repro.packet.builder import build_packet, make_ack, make_data
from repro.packet.tcp import TCPFlags, TCPSegment
from repro.workload.churn import ChurnConfig, ChurnWorkload
from repro.workload.record import PacketRecorder, record_tpca_stream
from repro.workload.trains import PacketTrainWorkload, TrainConfig

__all__ = [
    "BATCH",
    "CORRUPT_SHARE",
    "SPEC",
    "WORKLOADS",
    "Inputs",
    "OpRecorder",
    "Workload",
    "build_inputs",
]

#: The serving and canary default; the traffic is the only thing that
#: differs between workloads.
SPEC = "fast-sequent:h=19"

#: Frames per coalesced batch (the interrupt-coalescing window).
BATCH = 16

#: Share of data/ACK frames followed by a corrupted copy.
CORRUPT_SHARE = 0.01

#: Per-frame expectation codes the oracle checks against.
DATA, ACK, SYN, FIN, CORRUPT = "data", "ack", "syn", "fin", "corrupt"

Op = Tuple  # ("insert", tup) | ("remove", tup) | ("lookup", tup, kind)


class OpRecorder(PacketRecorder):
    """A packet recorder that logs insert, remove and lookup in order."""

    name = "op-recorder"

    def __init__(self) -> None:
        super().__init__()
        self.ops: List[Op] = []

    def _insert(self, pcb: PCB) -> None:
        super()._insert(pcb)
        self.ops.append(("insert", pcb.four_tuple))

    def _remove(self, tup: FourTuple) -> PCB:
        pcb = super()._remove(tup)
        self.ops.append(("remove", tup))
        return pcb

    def _lookup(self, tup: FourTuple, kind: PacketKind) -> LookupResult:
        self.ops.append(("lookup", tup, kind))
        return LookupResult(
            self._pcbs.get(tup), examined=0, cache_hit=False, kind=kind
        )


def _record_oltp(seed: int, n: int, frames: int) -> List[Op]:
    # N users at one transaction per 10 s each send 2N/10 frames per
    # simulated second; the margin covers the corrupt copies.
    duration = 1.5 * frames / (2 * n / 10.0) + 5.0
    stream = record_tpca_stream(n, duration, seed, max_packets=frames)
    return [("insert", tup) for tup in stream.tuples] + [
        ("lookup", tup, kind) for tup, kind in stream.packets
    ]


def _record_bulk(seed: int, n: int, frames: int) -> List[Op]:
    # A mean train of 64 segments with an ACK every 2 is ~96 frames.
    trains = int(1.5 * frames / 96) + 10
    config = TrainConfig(
        n_connections=n,
        mean_train_length=64,
        n_trains=trains,
        ack_every=2,
        seed=seed,
    )
    recorder = OpRecorder()
    PacketTrainWorkload(config, recorder).run()
    return recorder.ops


def _record_churn(seed: int, n: int, frames: int) -> List[Op]:
    # Each 2-transaction session is ~6 frames over ~20 simulated s.
    duration = 1.5 * frames / (3 * n / 10.0) + 5.0
    config = ChurnConfig(
        n_users=n,
        transactions_per_session=2.0,
        duration=duration,
        warmup=0.0,
        seed=seed,
    )
    recorder = OpRecorder()
    ChurnWorkload(config, recorder).run()
    return recorder.ops


@dataclasses.dataclass(frozen=True)
class Workload:
    """One traffic mix: its generator, table size and frame shape."""

    name: str
    why: str
    #: Connections installed at set-up.
    n_conns: int
    #: Frames replayed per round; a multiple of :data:`BATCH`.
    frames: int
    #: Payload bytes of each data frame.
    payload: int
    record: Callable[[int, int, int], List[Op]]


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            "oltp",
            "TPC/A per paper section 2: caches miss and ~265 PCBs are"
            " examined per packet, so lookup gains show here",
            n_conns=10_000,
            frames=20_000,
            payload=100,
            record=_record_oltp,
        ),
        Workload(
            "bulk",
            "packet trains of 1460-byte segments: caches hit and parse"
            " plus checksum dominate, so a lookup gain should not move it",
            n_conns=1_000,
            frames=16_384,
            payload=1460,
            record=_record_bulk,
        ),
        Workload(
            "churn",
            "TPC/A sessions of ~2 transactions: SYN and FIN are ~1/3 of"
            " frames, so the write path runs beside the read path",
            n_conns=10_000,
            frames=20_000,
            payload=100,
            record=_record_churn,
        ),
    )
}


@dataclasses.dataclass(frozen=True)
class Inputs:
    """Everything one round replays, built before any clock starts."""

    #: Connections installed at set-up, in order.
    initial: Tuple[FourTuple, ...]
    #: Wire frames in batches of :data:`BATCH`.
    batches: Tuple[Tuple[bytes, ...], ...]
    #: Per batch, per frame: (expectation code, four-tuple).
    expect: Tuple[Tuple[Tuple[str, FourTuple], ...], ...]

    @property
    def n_frames(self) -> int:
        return sum(len(batch) for batch in self.batches)

    def digest(self) -> str:
        """SHA-256 over the set-up tuples, frames and expectations."""
        h = hashlib.sha256()
        for tup in self.initial:
            h.update(tup.key_bits().to_bytes(12, "big"))
        for batch, expect in zip(self.batches, self.expect):
            for frame, (code, tup) in zip(batch, expect):
                h.update(len(frame).to_bytes(2, "big"))
                h.update(frame)
                h.update(code.encode())
                h.update(tup.key_bits().to_bytes(12, "big"))
        return h.hexdigest()


def _control_frame(tup: FourTuple, flags: int, seq: int) -> bytes:
    segment = TCPSegment(
        src_port=tup.remote_port,
        dst_port=tup.local_port,
        seq=seq,
        flags=flags,
        mss=1460 if flags & TCPFlags.SYN else None,
    )
    return build_packet(tup.remote_addr, tup.local_addr, segment)


def _corrupt(frame: bytes, rng: random.Random) -> bytes:
    """Flip one byte of the TCP sequence or acknowledgement number.

    Those bytes leave the header parseable and the four-tuple intact,
    so only the checksum can tell the copy from the original.
    """
    data = bytearray(frame)
    ip_header_len = (data[0] & 0x0F) * 4
    data[ip_header_len + rng.randrange(4, 12)] ^= rng.randrange(1, 256)
    return bytes(data)


def build_inputs(
    workload: Workload, seed: int, *, n_conns: int = 0, frames: int = 0
) -> Inputs:
    """Generate ``workload``'s frames from ``seed``.

    ``n_conns`` and ``frames`` override the workload's sizes (tests use
    small ones); ``frames`` is rounded down to a multiple of
    :data:`BATCH`.
    """
    n = n_conns or workload.n_conns
    total = (frames or workload.frames) // BATCH * BATCH
    if total < BATCH:
        raise ValueError(f"need at least {BATCH} frames, got {total}")
    ops = workload.record(seed, n, total)
    # Set-up is the leading run of inserts, before the first packet.
    first = next(i for i, op in enumerate(ops) if op[0] != "insert")
    initial = tuple(op[1] for op in ops[:first])

    rng = random.Random(f"perfbench:{workload.name}:{seed}")
    payload = rng.randbytes(workload.payload)
    seqs: Dict[FourTuple, int] = {}
    frame_list: List[bytes] = []
    expect: List[Tuple[str, FourTuple]] = []
    for op in ops[first:]:
        if len(frame_list) >= total:
            break
        tup = op[1]
        seq = seqs.get(tup, 1000)
        if op[0] == "insert":
            frame, code = _control_frame(tup, TCPFlags.SYN, seq), SYN
        elif op[0] == "remove":
            frame, code = _control_frame(tup, TCPFlags.FIN | TCPFlags.ACK, seq), FIN
        elif op[2] is PacketKind.DATA:
            frame, code = make_data(tup, payload, seq=seq).build(), DATA
            seqs[tup] = (seq + len(payload)) & 0xFFFFFFFF
        else:
            frame, code = make_ack(tup, seq=seq, ack=seq).build(), ACK
        frame_list.append(frame)
        expect.append((code, tup))
        if code in (DATA, ACK) and rng.random() < CORRUPT_SHARE:
            frame_list.append(_corrupt(frame, rng))
            expect.append((CORRUPT, tup))
    if len(frame_list) < total:
        raise RuntimeError(
            f"{workload.name}: generator gave {len(frame_list)} frames,"
            f" need {total}"
        )
    del frame_list[total:], expect[total:]
    return Inputs(
        initial=initial,
        batches=tuple(
            tuple(frame_list[i : i + BATCH]) for i in range(0, total, BATCH)
        ),
        expect=tuple(
            tuple(expect[i : i + BATCH]) for i in range(0, total, BATCH)
        ),
    )
