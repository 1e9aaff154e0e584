"""Overhead budget of the demux observer slot (repro.obs).

The instrumentation contract (see docs/observability.md): with the
observer slot empty the hot path pays one ``is None`` check per
operation, and with the profiler at its default sampling rate (1/64
lookups timed) the slowdown on a realistic lookup stays under 5%.
This benchmark measures that contract directly -- wall-clock per
lookup, bare vs. instrumented, as the median of paired round ratios --
and asserts the 5% budget on BSD at N=512 (uniform targets, ~N/2 PCBs
examined per lookup), for the default profiler and for the telemetry
plane (profiler plus packet spans plus sketches).

BSD at N=512 is a slot-table scan since the list walk moved to the
test-only oracle: ~6-8 us per lookup on a 2-CPU x86 host (bare, best
round), not the ~45 us of the list-walk era, so fixed per-packet
observer costs weigh ~6x more than when the budget was set.  There
the default profiler reads ~+1-4.5% per run.  The telemetry-plane case
exceeds its budget (~+24-28% there): the unsampled train detector
compares ``FourTuple``s with Python-level ``__eq__`` on every packet.
The fast path (Sequent hashing, a few PCBs per lookup) and full
tracing (every event built and buffered) are measured and reported
but not asserted: full tracing is an opt-in debugging mode, not the
default configuration.

Results are also written to ``BENCH_obs.json`` at the repository root
so the numbers are machine-readable across runs.
"""

import gc
import json
import os
import statistics
import time
from pathlib import Path

from repro.core.pcb import PCB
from repro.core.registry import make_algorithm
from repro.core.stats import PacketKind
from repro.obs.profile import DEFAULT_SAMPLE_EVERY, LookupProfiler
from repro.obs.sketch import TrafficCharacterizer
from repro.obs.spans import DEFAULT_SPAN_SAMPLE_EVERY, SpanCollector
from repro.obs.trace import RingBufferSink, Tracer
from repro.packet.addresses import FourTuple, IPv4Address

from conftest import emit

#: BENCH_OBS_QUICK=1 shrinks the sweep for CI smoke jobs: the budget
#: assertions still run, just over fewer, shorter rounds.
QUICK = os.environ.get("BENCH_OBS_QUICK", "") not in ("", "0")

N = 512
LOOKUPS_PER_ROUND = 512 if QUICK else 2048
ROUNDS = 5 if QUICK else 15
LIMIT_PCT = 5.0

_RESULTS = {}  # case name -> measurement dict, dumped by the last test


def _populated(spec):
    algorithm = make_algorithm(spec)
    tuples = [
        FourTuple(
            IPv4Address("10.0.0.1"), 1521,
            IPv4Address("10.6.0.0") + i, 40000 + i,
        )
        for i in range(N)
    ]
    for tup in tuples:
        algorithm.insert(PCB(tup))
    return algorithm, tuples


def _visit_order():
    # Fixed pseudo-random order, long enough not to repeat in
    # cache-friendly ways (same scheme as bench_lookup_micro).
    return [(i * 197) % N for i in range(LOOKUPS_PER_ROUND)]


def _timed_round(algorithm, targets):
    """Wall-clock nanoseconds for one pass over ``targets``."""
    lookup = algorithm.lookup
    start = time.perf_counter_ns()
    for tup in targets:
        lookup(tup, PacketKind.DATA)
    return time.perf_counter_ns() - start


def _measure(spec, instrument, case, asserted):
    """Measure bare vs. instrumented per-lookup cost for one case.

    ``instrument`` receives the freshly populated algorithm and applies
    the configuration under test.  Bare and instrumented structures are
    built identically; only the hooks differ.  Each round times both
    configurations back to back (order alternating round to round) and
    contributes one instrumented/bare ratio; the reported overhead is
    the *median* ratio, so a scheduler or throttling hiccup that lands
    on a single round cannot swing the result the way a min-of-rounds
    comparison can on shared hardware.
    """
    bare_alg, bare_tuples = _populated(spec)
    inst_alg, inst_tuples = _populated(spec)
    instrument(inst_alg)
    order = _visit_order()
    bare_targets = [bare_tuples[i] for i in order]
    inst_targets = [inst_tuples[i] for i in order]
    _timed_round(bare_alg, bare_targets)  # warm-up, untimed
    _timed_round(inst_alg, inst_targets)
    ratios = []
    bare_best = inst_best = None
    gc_was_enabled = gc.isenabled()
    gc.disable()  # collector pauses otherwise dominate the deltas
    try:
        for round_index in range(ROUNDS):
            if round_index % 2 == 0:
                bare_elapsed = _timed_round(bare_alg, bare_targets)
                inst_elapsed = _timed_round(inst_alg, inst_targets)
            else:
                inst_elapsed = _timed_round(inst_alg, inst_targets)
                bare_elapsed = _timed_round(bare_alg, bare_targets)
            ratios.append(inst_elapsed / bare_elapsed)
            if bare_best is None or bare_elapsed < bare_best:
                bare_best = bare_elapsed
            if inst_best is None or inst_elapsed < inst_best:
                inst_best = inst_elapsed
    finally:
        if gc_was_enabled:
            gc.enable()
    bare_ns = bare_best / len(order)
    inst_ns = inst_best / len(order)
    overhead_pct = (statistics.median(ratios) - 1.0) * 100.0
    _RESULTS[case] = {
        "spec": spec,
        "bare_ns_per_lookup": round(bare_ns, 1),
        "instrumented_ns_per_lookup": round(inst_ns, 1),
        "overhead_pct": round(overhead_pct, 2),
        "asserted": asserted,
        "limit_pct": LIMIT_PCT if asserted else None,
    }
    emit(
        f"obs overhead: {case}",
        f"  bare:         {bare_ns:9.1f} ns/lookup\n"
        f"  instrumented: {inst_ns:9.1f} ns/lookup\n"
        f"  overhead:     {overhead_pct:+9.2f}%"
        + (f"  (budget {LIMIT_PCT:.0f}%)" if asserted else "  (reported only)"),
    )
    return overhead_pct, inst_alg


def _default_instrumentation(algorithm):
    """The default-on configuration: the sampled profiler."""
    LookupProfiler(sample_every=DEFAULT_SAMPLE_EVERY).attach(algorithm)


def _observer(algorithm, cls):
    (observer,) = [o for o in algorithm.observers() if isinstance(o, cls)]
    return observer


def test_heavy_path_overhead_under_budget():
    """BSD at N=512: the regime the paper says dominates (Eq. 1).

    Per-lookup work is ~N/2 PCB examinations, so the sampled hook cost
    must vanish into it.  This is the asserted acceptance criterion."""
    overhead_pct, inst_alg = _measure(
        "bsd", _default_instrumentation, "bsd_n512_default_sampling",
        asserted=True,
    )
    # The profiler really was sampling at the default rate.
    profiler = _observer(inst_alg, LookupProfiler)
    assert profiler.sample_every == DEFAULT_SAMPLE_EVERY
    assert profiler.lookups == (ROUNDS + 1) * LOOKUPS_PER_ROUND  # +warm-up
    assert profiler.samples == profiler.lookups // DEFAULT_SAMPLE_EVERY
    assert overhead_pct < LIMIT_PCT


def test_fast_path_overhead_reported():
    """Sequent at H=19: ~1-2 examinations per lookup, so fixed per-call
    costs loom large.  Reported for the record, not asserted."""
    _measure(
        "sequent:h=19", _default_instrumentation,
        "sequent_h19_default_sampling", asserted=False,
    )


def test_full_tracing_cost_reported():
    """Opt-in worst case: tracer attached, every lookup builds and
    buffers a TraceEvent.  Reported so users can budget for it."""

    def full_tracing(algorithm):
        algorithm.attach(Tracer(RingBufferSink(4096)))

    _, inst_alg = _measure(
        "bsd", full_tracing, "bsd_n512_full_tracing", asserted=False,
    )
    sink = _observer(inst_alg, Tracer).sinks[0]
    assert sink.total_emitted == (ROUNDS + 1) * LOOKUPS_PER_ROUND


def test_spans_and_sketches_overhead_under_budget():
    """Default profiler plus packet spans (1/64 sampled) plus the full
    streaming-sketch pipeline riding the span observers.  This is the
    telemetry plane's acceptance criterion: every per-packet cost in
    the new plane -- the packet-context state machine, the unsampled
    train-detector observer, and the sampled sketch updates -- must
    still vanish into the heavy path's budget."""
    characterizers = []

    def spans_and_sketches(algorithm):
        _default_instrumentation(algorithm)
        collector = SpanCollector(
            sample_every=DEFAULT_SPAN_SAMPLE_EVERY
        ).attach(algorithm)
        characterizers.append(TrafficCharacterizer().attach(collector))

    overhead_pct, inst_alg = _measure(
        "bsd", spans_and_sketches, "bsd_n512_spans_sketch", asserted=True,
    )
    # The collector really saw every packet and sampled at 1/64.
    collector = _observer(inst_alg, SpanCollector)
    total = (ROUNDS + 1) * LOOKUPS_PER_ROUND
    assert collector.sample_every == DEFAULT_SPAN_SAMPLE_EVERY
    assert collector.packets_seen == total
    assert collector.spans_finished == -(-total // DEFAULT_SPAN_SAMPLE_EVERY)
    characterizer = characterizers[0]
    assert characterizer.packets_observed == collector.spans_finished
    assert characterizer.trains.packets == total
    assert overhead_pct < LIMIT_PCT


def test_write_bench_json():
    """Dump the collected measurements next to the other artifacts."""
    assert set(_RESULTS) == {
        "bsd_n512_default_sampling",
        "sequent_h19_default_sampling",
        "bsd_n512_full_tracing",
        "bsd_n512_spans_sketch",
    }
    payload = {
        "benchmark": "bench_obs_overhead",
        "lookups_per_round": LOOKUPS_PER_ROUND,
        "rounds": ROUNDS,
        "quick": QUICK,
        "timing": ("ns/lookup from each configuration's best round;"
                   " overhead_pct from the median of per-round paired"
                   " instrumented/bare ratios"),
        "default_sample_every": DEFAULT_SAMPLE_EVERY,
        "cases": _RESULTS,
    }
    path = Path(__file__).resolve().parent.parent / "BENCH_obs.json"
    path.write_text(json.dumps(payload, indent=2) + "\n")
    emit("obs overhead: artifact", f"  wrote {path}")
    assert json.loads(path.read_text())["cases"]
