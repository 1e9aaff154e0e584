"""Wire-bytes-to-decision benchmark for the TCP demultiplexer.

Usage::

    python3 perfbench/run.py --workload oltp --seed 1 --seconds 15 --trace 0

Builds the workload's frames from ``--seed`` (untimed), measures the
structure's memory in an untimed tracemalloc pass, then replays the
frames in rounds until ``--seconds`` have passed.  Every round starts
from a fresh structure, so every round times one set-up.

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` alternates
untraced and traced rounds and reports the per-layer metrics.  The last
line of standard output is one JSON object; the lines before it print
every metric with its unit and the host fingerprint.  Exits 1 if any
decision was wrong, and 2 if the repository's sources are missing.
See METRICS.md for what each metric measures.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import statistics
import sys
import time
import tracemalloc
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: Rounds per run, whatever ``--seconds`` says.
MIN_ROUNDS = 3
#: Untimed warm-up prefix, in batches.
WARMUP_BATCHES = 64


def _median(values):
    return statistics.median(values) if values else 0.0


def _percentile(sorted_values, q):
    """Nearest-rank ``q``-quantile of an already sorted list."""
    index = min(len(sorted_values) - 1, int(q * len(sorted_values)))
    return sorted_values[index]


def host_fingerprint():
    """Where a result was measured; compare absolute numbers only
    between results with equal fingerprints."""
    import numpy
    from replay import calibration_ns

    return {
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "calibration_ns_per_frame": round(
            min(calibration_ns(100) for _ in range(5)), 1
        ),
    }


def measure_memory(inputs, make):
    """Bytes the structure holds after set-up, per installed connection."""
    from repro.core.pcb import PCB

    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        alg = make()
        for tup in inputs.initial:
            alg.insert(PCB(tup))
        gc.collect()
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    del alg
    return held / max(len(inputs.initial), 1)


def end_to_end(rounds, mem_per_conn):
    """Medians over rounds, with times at the calibration reference speed.

    Latency percentiles are taken over batches of each batch's median
    time across rounds: every round replays the same batches, so host
    interference, which hits a different batch each round, drops out,
    while a slow batch the program causes (a rebuild after a mutation,
    a collection at a fixed allocation count) stays in.
    """
    per_batch = sorted(
        _median(times) for times in zip(*(r.batch_scaled_ns() for r in rounds))
    )
    return {
        "pps": (_median([r.pps for r in rounds]), "1/s"),
        "latency_us_p50": (_percentile(per_batch, 0.50) / 1e3, "us"),
        "latency_us_p99": (_percentile(per_batch, 0.99) / 1e3, "us"),
        "setup_s": (_median([r.setup_scaled_ns / 1e9 for r in rounds]), "s"),
        "mem_bytes_per_conn": (mem_per_conn, "B"),
    }


def per_layer(plain, traced, sides):
    """Per-layer metrics from the traced rounds.

    Span self times are pooled over all traced rounds, so the layers
    plus ``other.ns`` add up to the traced batch time exactly.
    """
    from replay import fit_line

    totals = dict.fromkeys(("batch", "packet", "key", "lookup", "conn"), 0)
    calls, insert_ns, remove_ns = [], [], []
    accounting = 0.0
    for r, side in zip(traced, sides):
        # Per-layer times use one calibration factor per round.
        tr, f = r.traced, r.scale
        for _, _, name, start, end in tr.spans:
            totals[name] += (end - start) * f
        calls += [(ns * f, n, ex, dirty) for ns, n, ex, dirty in tr.lookup_calls]
        insert_ns += [ns * f for ns in tr.insert_ns]
        remove_ns += [ns * f for ns in tr.remove_ns]
        accounting += side["accounting_ns"] * len(tr.results)
    frames = sum(r.frames for r in traced)
    children = sum(ns for name, ns in totals.items() if name != "batch")
    # Section 3.5: per-lookup time against PCBs examined, over calls
    # that did not follow a mutation (conn.next_batch_ns has those).
    fixed, per_examined = fit_line(
        [(ex / n, ns / n) for ns, n, ex, dirty in calls if n and not dirty]
    )
    after = [(ns, n) for ns, n, _, dirty in calls if dirty]
    after_n = sum(n for _, n in after)
    stats = traced[0].stats.combined()
    side = {k: _median([s[k] for s in sides]) for k in sides[0]}
    layer = {
        "packet.parse_ns": (totals["packet"] / frames, "ns/frame"),
        "packet.checksum_ns": (
            side["parse_ns"] - side["parse_noverify_ns"], "ns/frame"),
        "packet.rejected": (traced[0].rejected, "count"),
        "key.ns": (totals["key"] / frames, "ns/frame"),
        "key.key_bits_ns": (side["key_bits_ns"], "ns/call"),
        "lookup.ns": ((totals["lookup"] - accounting) / frames, "ns/frame"),
        "lookup.examined_mean": (stats.mean_examined, "pcbs"),
        "lookup.examined_p99": (stats.percentile(0.99), "pcbs"),
        "lookup.cache_hit_frac": (stats.hit_rate, "frac"),
        "lookup.fixed_ns": (fixed, "ns/lookup"),
        "lookup.ns_per_examined": (per_examined, "ns/pcb"),
        "accounting.ns": (accounting / frames, "ns/frame"),
        "conn.ns": (totals["conn"] / frames, "ns/frame"),
        "conn.insert_ns": (_median(insert_ns), "ns/op"),
        "conn.remove_ns": (_median(remove_ns), "ns/op"),
        "conn.ops": ((len(insert_ns) + len(remove_ns)) / len(traced), "count"),
        "conn.next_batch_ns": (
            sum(ns for ns, _ in after) / after_n if after_n else 0.0,
            "ns/lookup"),
        "other.ns": (
            (totals["batch"] - children) / frames, "ns/frame"),
        "trace.overhead_pct": (
            (_median([r.pps for r in plain]) / _median([r.pps for r in traced])
             - 1.0) * 100.0,
            "%"),
    }
    return layer, totals["batch"] / frames


def write_spans(path, traced_rounds):
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as handle:
        for number, r in enumerate(traced_rounds):
            for span_id, parent, name, start, end in r.traced.spans:
                handle.write(
                    json.dumps([number, span_id, parent, name, start, end])
                )
                handle.write("\n")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: no repro sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    from replay import CAL_REF_NS, default_make, replay_round, side_costs
    from workloads import BATCH, SPEC, WORKLOADS, build_inputs

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; know {sorted(WORKLOADS)}")
    workload = WORKLOADS[args.workload]

    host = host_fingerprint()
    t = time.perf_counter()
    inputs = build_inputs(workload, args.seed)
    build_s = time.perf_counter() - t
    mem_per_conn = measure_memory(inputs, default_make)
    gc.collect()
    gc.freeze()  # inputs live all run; keep them out of collections

    rounds = [replay_round(inputs, batches=WARMUP_BATCHES)]
    plain, traced, sides = [], [], []
    deadline = time.monotonic() + args.seconds
    while len(plain) < MIN_ROUNDS or time.monotonic() < deadline:
        plain.append(replay_round(inputs))
        if args.trace:
            traced.append(replay_round(inputs, trace=True))
            sides.append(side_costs(inputs, traced[-1].traced))
        if any(r.errors for r in plain + traced):
            break
    rounds += plain + traced

    attempted = sum(r.frames for r in rounds)
    failed = sum(r.failed for r in rounds)
    errors = [e for r in rounds for e in r.errors]
    correct = failed == 0 and not errors

    print(f"host: {json.dumps(host, sort_keys=True)}")
    print(
        f"workload: {workload.name} spec={SPEC} seed={args.seed}"
        f" conns={len(inputs.initial)} frames/round={inputs.n_frames}"
        f" batch={BATCH} rounds={len(plain)} untraced + {len(traced)} traced"
        f" digest={inputs.digest()[:16]} build_s={build_s:.2f}"
    )
    print(f"why: {workload.why}")
    print(f"  {'failed_frac':<24} {failed / attempted:>14.4f} frac"
          f" ({failed} of {attempted} frames)")
    for error in errors[:5]:
        print(f"error: {error}")
    if errors:  # a round ended early; its timings are not comparable
        _emit(correct, attempted, failed, {})
        return 1

    e2e = end_to_end(plain, mem_per_conn)
    batches = len(plain[0].batch_ns)
    print(
        f"latency samples: {batches} batches, each the median of"
        f" {len(plain)} rounds; {batches - int(0.99 * batches) - 1} beyond p99"
    )
    print(
        f"times at the reference speed of {CAL_REF_NS:.0f} ns per calibration"
        f" frame; this run's calibration median"
        f" {_median([c for r in plain for c in r.cal_ns]):.1f} ns,"
        f" unscaled pps {_median([r.raw_pps for r in plain]):.1f}"
    )
    for name, (value, unit) in e2e.items():
        print(f"  {name:<24} {value:>14.4f} {unit}")

    if args.trace:
        layer, batch_ns = per_layer(plain, traced, sides)
        for name, (value, unit) in layer.items():
            print(f"  {name:<24} {value:>14.4f} {unit}")
        parts = ("packet.parse_ns", "key.ns", "lookup.ns", "accounting.ns",
                 "conn.ns", "other.ns")
        total = sum(layer[p][0] for p in parts)
        print(
            f"self times: {' + '.join(parts)} = {total:.1f} ns/frame;"
            f" traced batch time {batch_ns:.1f} ns/frame"
        )
        print(
            f"section 3.5 surrogate: fixed {layer['lookup.fixed_ns'][0]:.0f}"
            f" ns/lookup vs {layer['lookup.ns_per_examined'][0]:.1f}"
            f" ns per PCB examined, at {layer['lookup.examined_mean'][0]:.1f}"
            f" examined per lookup"
        )
        spans_path = HERE / "out" / f"spans-{workload.name}-seed{args.seed}.jsonl"
        write_spans(spans_path, traced)
        print(f"spans: {spans_path.relative_to(ROOT)}")
        metrics = layer
    else:
        metrics = e2e

    _emit(correct, attempted, failed, metrics)
    return 0 if correct else 1


def _emit(correct, attempted, failed, metrics):
    """The result line: always the last line of standard output."""
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    }))


if __name__ == "__main__":
    sys.exit(main())
