"""One closed-loop replay of wire frames into demux decisions.

A round builds the structure (``make_algorithm`` plus one ``insert``
per initial connection), then hands in one batch of frames at a time
and waits for its last decision before the next:

1. ``parse_packet`` every frame (TCP checksum verified, as
   ``HostStack.deliver`` does); a ``PacketError`` rejects the frame;
2. take ``four_tuple``, the kind (``is_pure_ack``) and the flags;
3. walk the batch in order: ``lookup_batch`` over each run of data and
   ACK frames, ``insert(PCB(tup))`` on a SYN, and on a FIN its lookup
   and then ``remove(tup)``, so decisions equal in-order processing.

After the batch's clock stops, a dict oracle checks every decision.
A traced round also records spans, kept in memory: one ``batch`` span
per batch with children ``packet``, ``key``, ``lookup`` and ``conn``
around the calls into each layer.
"""

from __future__ import annotations

import dataclasses
import gc
import struct
from time import perf_counter_ns
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.core.base import DemuxAlgorithm, LookupResult
from repro.core.pcb import PCB
from repro.core.registry import make_algorithm
from repro.core.stats import DemuxStats, LookupRecord, PacketKind
from repro.packet.builder import parse_packet
from repro.packet.ip import PacketError
from repro.packet.tcp import TCPFlags

from workloads import CORRUPT, FIN, SPEC, SYN, Inputs

__all__ = [
    "CAL_EVERY",
    "CAL_REF_NS",
    "Round",
    "Traced",
    "calibration_ns",
    "check_batch",
    "default_make",
    "fit_line",
    "replay_round",
    "side_costs",
]

_DATA, _ACK = PacketKind.DATA, PacketKind.ACK
_SYN_FLAG, _FIN_FLAG = TCPFlags.SYN, TCPFlags.FIN


#: Batches between two calibrations.
CAL_EVERY = 16
#: The host speed every scaled time is reported at, in ns per
#: :func:`calibration_ns` frame.
CAL_REF_NS = 10_000.0

_CAL_HEADER = struct.Struct("!BBHHHBBH4s4sHHIIBBHHH")
_CAL_FRAMES = tuple(
    bytes((i * 7 + j * 13) & 0xFF for j in range(120)) for i in range(4)
)


class _CalRecord:
    __slots__ = ("port", "seq", "total")

    def __init__(self, port: int, seq: int, total: int) -> None:
        self.port = port
        self.seq = seq
        self.total = total


def default_make() -> DemuxAlgorithm:
    return make_algorithm(SPEC)


def calibration_ns(passes: int = 4) -> float:
    """ns per frame of a fixed, stdlib-only imitation of the pipeline.

    A 2-vCPU Intel Xeon VM was measured running everything up to ~1.8x
    slower in phases that last from under a second to minutes.  This
    kernel does the same kinds of work as a frame's trip through the
    program (header unpack, a ones'-complement loop over the bytes, a
    small object, a dict keyed by a tuple), so its time moves with the
    host's phases much as the program's does.  Every scaled time is
    multiplied by ``CAL_REF_NS`` over this kernel's time measured beside
    it.  The kernel calls nothing in ``repro``: no program change moves it.
    """
    start = perf_counter_ns()
    table: Dict[Tuple[int, int], _CalRecord] = {}
    check = 0
    for _ in range(passes):
        for frame in _CAL_FRAMES:
            fields = _CAL_HEADER.unpack_from(frame, 0)
            total = 0
            for i in range(0, len(frame) - 1, 2):
                total += (frame[i] << 8) | frame[i + 1]
            while total > 0xFFFF:
                total = (total & 0xFFFF) + (total >> 16)
            rec = _CalRecord(fields[10], fields[12], total)
            table[(rec.port, rec.seq)] = rec
            check += table[(rec.port, rec.seq)].total
    return (perf_counter_ns() - start) / (passes * len(_CAL_FRAMES))


@dataclasses.dataclass
class Traced:
    """What a traced round adds: spans and per-call timings."""

    #: (span id, parent id or -1, name, start ns, end ns).
    spans: List[Tuple[int, int, str, int, int]] = dataclasses.field(
        default_factory=list
    )
    insert_ns: List[int] = dataclasses.field(default_factory=list)
    remove_ns: List[int] = dataclasses.field(default_factory=list)
    #: Per ``lookup_batch`` call: (ns, lookups, PCBs examined, whether
    #: it was the first call after an insert or remove).
    lookup_calls: List[Tuple[int, int, int, bool]] = dataclasses.field(
        default_factory=list
    )
    results: List[LookupResult] = dataclasses.field(default_factory=list)


@dataclasses.dataclass
class Round:
    """The outcome of one replay."""

    frames: int = 0
    failed: int = 0
    rejected: int = 0
    setup_ns: int = 0
    batch_ns: List[int] = dataclasses.field(default_factory=list)
    #: Calibrations before set-up, after it, then after every
    #: :data:`CAL_EVERY` batches and at the end.
    cal_ns: List[float] = dataclasses.field(default_factory=list)
    stats: Optional[DemuxStats] = None
    traced: Optional[Traced] = None
    errors: List[str] = dataclasses.field(default_factory=list)

    def _scale(self, before: int) -> float:
        """Factor to the reference speed between two calibrations."""
        return 2 * CAL_REF_NS / (self.cal_ns[before] + self.cal_ns[before + 1])

    @property
    def scale(self) -> float:
        """One factor for the whole round."""
        return CAL_REF_NS / (sum(self.cal_ns) / len(self.cal_ns))

    @property
    def setup_scaled_ns(self) -> float:
        return self.setup_ns * self._scale(0)

    def batch_scaled_ns(self) -> List[float]:
        """Each batch's time at the reference speed."""
        return [
            ns * self._scale(1 + index // CAL_EVERY)
            for index, ns in enumerate(self.batch_ns)
        ]

    @property
    def pps(self) -> float:
        """Frames per second at the reference speed."""
        return self.frames * 1e9 / sum(self.batch_scaled_ns())

    @property
    def raw_pps(self) -> float:
        return self.frames * 1e9 / sum(self.batch_ns)


def check_batch(
    expect: Sequence[Tuple[str, object]],
    rejected: Sequence[int],
    results: Sequence[LookupResult],
    inserted: Sequence[PCB],
    oracle: Dict[object, PCB],
) -> int:
    """Count the batch's wrong decisions, updating ``oracle`` in order.

    Failures: a lookup that returned another PCB than the installed one
    (or a PCB for a dead flow), an accepted corrupt frame, a rejected
    valid frame, and lookups or inserts that do not match the frames.
    """
    failed = 0
    rejected_set = set(rejected)
    result_at = 0
    inserted_at = 0
    for position, (code, tup) in enumerate(expect):
        if position in rejected_set:
            failed += code != CORRUPT
            continue
        if code == SYN:
            if inserted_at < len(inserted):
                oracle[tup] = inserted[inserted_at]
            inserted_at += 1
            continue
        if result_at >= len(results):
            failed += 1
            continue
        result = results[result_at]
        result_at += 1
        if code == CORRUPT:
            failed += 1  # accepted a frame the checksum should reject
            continue
        if result.pcb is not oracle.get(tup):
            failed += 1
        if code == FIN:
            oracle.pop(tup, None)
    failed += abs(len(results) - result_at) + abs(len(inserted) - inserted_at)
    return failed


def replay_round(
    inputs: Inputs,
    *,
    make: Callable[[], DemuxAlgorithm] = default_make,
    verify: bool = True,
    trace: bool = False,
    batches: Optional[int] = None,
) -> Round:
    """Set up a fresh structure and replay ``inputs`` through it once.

    ``verify`` is passed to ``parse_packet``; ``batches`` limits the
    replay to a prefix (the untimed warm-up uses it).
    """
    gc.collect()
    out = Round()
    tr = Traced() if trace else None
    spans = tr.spans if tr is not None else None
    clock = perf_counter_ns

    out.cal_ns.append(calibration_ns())
    start = clock()
    alg = make()
    oracle: Dict[object, PCB] = {}
    for tup in inputs.initial:
        pcb = PCB(tup)
        if tr is None:
            alg.insert(pcb)
        else:
            t = clock()
            alg.insert(pcb)
            tr.insert_ns.append(clock() - t)
        oracle[tup] = pcb
    out.setup_ns = clock() - start
    out.cal_ns.append(calibration_ns())

    def lookup(run, results, batch_id, dirty):
        # Traced lookup_batch: one span, one timing per call.
        t = clock()
        results += alg.lookup_batch(run)
        e = clock()
        spans.append((len(spans), batch_id, "lookup", t, e))
        calls.append((e - t, len(results) - len(run), len(results), dirty))

    def mutate(op, arg, batch_id, into):
        t = clock()
        op(arg)
        e = clock()
        spans.append((len(spans), batch_id, "conn", t, e))
        into.append(e - t)

    lookups = examined = 0
    dirty = True  # set-up mutated the structure
    pairs = list(zip(inputs.batches, inputs.expect))[:batches]
    for index, (frames, expect) in enumerate(pairs):
        if index and index % CAL_EVERY == 0:
            out.cal_ns.append(calibration_ns())
        rejected: List[int] = []
        results: List[LookupResult] = []
        inserted: List[PCB] = []
        calls: List[Tuple[int, int, int, bool]] = []
        batch_id = -1
        try:
            t0 = clock()
            if spans is not None:
                batch_id = len(spans)
                spans.append((batch_id, -1, "batch", t0, 0))
            # -- packet layer
            packets = []
            for position, frame in enumerate(frames):
                try:
                    packets.append(parse_packet(frame, verify=verify))
                except PacketError:
                    rejected.append(position)
            if spans is not None:
                t1 = clock()
                spans.append((len(spans), batch_id, "packet", t0, t1))
            # -- key layer
            keyed = [
                (p.four_tuple, _ACK if p.tcp.is_pure_ack else _DATA, p.tcp.flags)
                for p in packets
            ]
            if spans is not None:
                spans.append((len(spans), batch_id, "key", t1, clock()))
            # -- lookup and conn layers, in frame order
            run: List[Tuple[object, PacketKind]] = []
            for tup, kind, flags in keyed:
                if flags & _SYN_FLAG:
                    if run:
                        if spans is None:
                            results += alg.lookup_batch(run)
                        else:
                            lookup(run, results, batch_id, dirty)
                        run = []
                    pcb = PCB(tup)
                    if spans is None:
                        alg.insert(pcb)
                    else:
                        mutate(alg.insert, pcb, batch_id, tr.insert_ns)
                    inserted.append(pcb)
                    dirty = True
                elif flags & _FIN_FLAG:
                    run.append((tup, kind))
                    if spans is None:
                        results += alg.lookup_batch(run)
                        alg.remove(tup)
                    else:
                        lookup(run, results, batch_id, dirty)
                        mutate(alg.remove, tup, batch_id, tr.remove_ns)
                    run = []
                    dirty = True
                else:
                    run.append((tup, kind))
            if run:
                if spans is None:
                    results += alg.lookup_batch(run)
                else:
                    lookup(run, results, batch_id, dirty)
                dirty = False
            end = clock()
        except Exception as exc:  # a crash is a failure, not a result
            out.errors.append(f"{type(exc).__name__}: {exc}")
            out.failed += len(frames)
            out.frames += len(frames)
            break
        out.batch_ns.append(end - t0)
        out.frames += len(frames)
        out.rejected += len(rejected)
        lookups += len(results)
        examined += sum(r.examined for r in results)
        if spans is not None:
            spans[batch_id] = (batch_id, -1, "batch", t0, end)
            for ns, first, last, was_dirty in calls:
                ex = sum(r.examined for r in results[first:last])
                tr.lookup_calls.append((ns, last - first, ex, was_dirty))
            tr.results += results
        out.failed += check_batch(expect, rejected, results, inserted, oracle)
    out.cal_ns.append(calibration_ns())
    # The accounting layer must have recorded exactly the decisions made.
    if not out.errors and (
        alg.stats.lookups != lookups or alg.stats.examined_total != examined
    ):
        out.errors.append(
            f"stats recorded {alg.stats.lookups} lookups / "
            f"{alg.stats.examined_total} examined; decisions were "
            f"{lookups} / {examined}"
        )
    out.stats = alg.stats
    out.traced = tr
    return out


def side_costs(inputs: Inputs, traced: Traced) -> Dict[str, float]:
    """Standalone per-call costs over one round's frames and results.

    ``parse_ns`` and ``parse_noverify_ns`` parse the same valid frames
    with the checksum verified and not; ``key_bits_ns`` packs each
    four-tuple; ``accounting_ns`` replays the round's lookup records
    into a fresh ``DemuxStats.record``.  All are ns per call at the
    calibration reference speed.
    """
    frames = [
        frame
        for batch, expect in zip(inputs.batches, inputs.expect)
        for frame, (code, _) in zip(batch, expect)
        if code != CORRUPT
    ]
    tuples = [tup for expect in inputs.expect for _, tup in expect]
    clock = perf_counter_ns
    gc.collect()
    cal_before = calibration_ns()
    # Alternate the two parse loops so drift hits both alike.
    verify_ns = noverify_ns = 0
    for start in range(0, len(frames), 1024):
        chunk = frames[start : start + 1024]
        t = clock()
        for frame in chunk:
            parse_packet(frame)
        verify_ns += clock() - t
        t = clock()
        for frame in chunk:
            parse_packet(frame, verify=False)
        noverify_ns += clock() - t
    t = clock()
    for tup in tuples:
        tup.key_bits()
    key_bits_ns = clock() - t
    records = [
        LookupRecord(
            examined=r.examined,
            cache_hit=r.cache_hit,
            found=r.pcb is not None,
            kind=r.kind,
        )
        for r in traced.results
    ]
    record = DemuxStats().record
    t = clock()
    for rec in records:
        record(rec)
    accounting_ns = clock() - t
    f = 2 * CAL_REF_NS / (cal_before + calibration_ns())
    return {
        "parse_ns": f * verify_ns / len(frames),
        "parse_noverify_ns": f * noverify_ns / len(frames),
        "key_bits_ns": f * key_bits_ns / len(tuples),
        "accounting_ns": f * accounting_ns / max(len(records), 1),
    }


def fit_line(points: Sequence[Tuple[float, float]]) -> Tuple[float, float]:
    """Least-squares ``y = a + b*x``; returns ``(a, b)``."""
    n = len(points)
    if n == 0:
        return 0.0, 0.0
    mean_x = sum(x for x, _ in points) / n
    mean_y = sum(y for _, y in points) / n
    sxx = sum((x - mean_x) ** 2 for x, _ in points)
    if sxx == 0:
        return mean_y, 0.0
    b = sum((x - mean_x) * (y - mean_y) for x, y in points) / sxx
    return mean_y - b * mean_x, b
