#!/usr/bin/env python3
"""The batched lookup path, end to end: identical decisions, fewer seconds.

Records one TPC/A packet stream, replays it through each of the paper's
list-shaped structures twice -- one ``lookup`` call per packet, then
``lookup_batch`` over the whole stream -- and prints three things per
structure:

* the decision check -- found/examined/cache-hit sequences must be
  byte-identical (this is the golden-trace property, live);
* packets demultiplexed per second both ways, with the batch speedup;
* the structure's own counters (interned keys, batch amortization).

Run:  python examples/fastpath_run.py
"""

import time

from repro.core.pcb import PCB
from repro.core.registry import make_algorithm
from repro.fastpath.conformance import decision_trace
from repro.workload import record_tpca_stream

N_USERS = 500
DURATION = 30.0
SEED = 7

SPECS = ["linear", "bsd", "mtf", "sequent:h=19", "hashed_mtf:h=19"]


def timed_replay(spec, stream, *, batched, repeats=3):
    """Best-of-``repeats`` wall-clock for one replay of ``stream``."""
    packets = list(stream.packets)
    best = float("inf")
    algorithm = None
    for _ in range(repeats):
        algorithm = make_algorithm(spec)
        for tup in stream.tuples:
            algorithm.insert(PCB(tup))
        start = time.perf_counter()
        if batched:
            algorithm.lookup_batch(packets)
        else:
            for tup, kind in packets:
                algorithm.lookup(tup, kind)
        best = min(best, time.perf_counter() - start)
    return len(packets) / best, algorithm


def main() -> None:
    stream = record_tpca_stream(N_USERS, DURATION, SEED)
    print(
        f"TPC/A, {N_USERS} users, {DURATION:g}s, seed {SEED}:"
        f" {len(stream.packets)} inbound packets\n"
    )
    print(f"{'structure':<18} {'decisions':>10} {'per-call p/s':>13}"
          f" {'batched p/s':>12} {'speedup':>8}")

    last = None
    for spec in SPECS:
        identical = decision_trace(spec, stream) == decision_trace(
            spec, stream, use_batch=True
        )
        per_call, _ = timed_replay(spec, stream, batched=False)
        batched, last = timed_replay(spec, stream, batched=True)
        print(
            f"{spec:<18}"
            f" {'identical' if identical else 'DIVERGED!':>10}"
            f" {per_call:>13,.0f} {batched:>12,.0f}"
            f" {batched / per_call:>7.2f}x"
        )

    counters = last.fastpath_counters
    print(
        f"\ncounters ({last.name}):"
        f" {counters.interned_keys} keys interned,"
        f" {counters.key_cache_hits} intern hits,"
        f" {counters.batch_calls} batch call(s) covering"
        f" {counters.batched_lookups} lookups"
    )
    print("\nThe gated throughput sweep:"
          " PYTHONPATH=src python -m repro.cli bench-gate")


if __name__ == "__main__":
    main()
