#!/usr/bin/env python3
"""The connection reaper, end to end: bounded memory under churn.

Three acts:

1. **The leak, reproduced** -- drive insert/remove churn through a
   fast structure with eviction disabled (simulated by interning
   behind the structure's back) vs the fixed path, and print the
   interned-key census of each: unbounded vs exactly-live.
2. **Idle reaping** -- attach a :class:`ConnectionReaper` to a
   structure's observer slot, let some connections go quiet, and
   watch the wheel evict them (and their interned keys) on schedule.
3. **Full stack** -- a TCP server with ``idle_timeout`` /
   ``time_wait_timeout`` configured: abandoned clients are aborted on
   the wire, TIME-WAIT quarantines expire at the configured horizon,
   and the post-run leak audit passes.

Run:  python examples/lifecycle_run.py
"""

from repro.core.pcb import PCB
from repro.core.registry import make_algorithm
from repro.core.stats import PacketKind
from repro.faults.audit import audit_leaks
from repro.fastpath.conformance import churn_tuple
from repro.lifecycle import ConnectionReaper, count_interned
from repro.sim.engine import Simulator
from repro.sim.network import Network
from repro.tcpstack.stack import HostStack


def act_one_the_leak() -> None:
    print("=== 1. The intern-table leak (fixed in this tree) ===")
    algorithm = make_algorithm("fast-sequent:h=19")
    cycles = 2000
    for cycle in range(cycles):
        tup = churn_tuple(cycle)
        algorithm.insert(PCB(tup))
        algorithm.remove(tup)
    counters = algorithm.fastpath_counters
    print(f"  {cycles} insert/remove cycles on fast-sequent:h=19:")
    print(f"    live connections : {len(algorithm)}")
    print(f"    interned keys    : {algorithm.interned_entries}"
          f"  (pre-fix: {cycles})")
    print(f"    evictions counted: {counters.evicted_keys}")
    print(f"  {audit_leaks(algorithm).describe()}")
    print()


def act_two_idle_reaping() -> None:
    print("=== 2. Idle reaping through the observer slot ===")
    algorithm = make_algorithm("fast-mtf")
    reaper = ConnectionReaper(algorithm, idle_timeout=30.0)
    assert algorithm.observer is reaper
    for i in range(6):
        algorithm.insert(PCB(churn_tuple(i)))
    print(f"  t=0    inserted 6 connections"
          f" (interned={count_interned(algorithm)})")
    # Keep two of them talking; the other four go silent.
    reaped = 0
    for t in (10.0, 20.0, 30.0, 40.0, 55.0):
        reaped += reaper.advance(t)
        for i in (0, 1):
            algorithm.lookup(churn_tuple(i), PacketKind.DATA)
    print(f"  t=55   reaped {reaped} idle connections;"
          f" {len(algorithm)} live, interned={count_interned(algorithm)}")
    stats = reaper.stats
    print(f"  stats: idle={stats.reaped_idle}"
          f" spurious-wakeups={stats.spurious_wakeups}"
          f" timers={stats.timers_scheduled}")
    print()


def act_three_full_stack() -> None:
    print("=== 3. Full stack: abandoned clients and TIME-WAIT ===")
    sim = Simulator()
    net = Network(sim, default_delay=0.0005)
    server = HostStack(
        sim, net, "10.0.0.1", make_algorithm("fast-sequent:h=7"),
        idle_timeout=20.0, time_wait_timeout=0.5,
    )
    client = HostStack(sim, net, "10.0.1.1", make_algorithm("bsd"))
    server.listen(80, on_data=lambda ep, data: ep.send(b"r"))
    # Four clients connect, send one query each, then vanish without
    # closing -- the classic NAT-timeout / crashed-peer leak.
    for _ in range(4):
        client.connect("10.0.0.1", 80, on_establish=lambda e: e.send(b"q"))
    sim.run(until=5.0)
    print(f"  t=5    server table: {server.table.state_census()}")
    sim.run(until=60.0)
    print(f"  t=60   server table: {server.table.state_census() or '{}'}"
          f"  reaped={server.reaped}")
    print(f"  {audit_leaks(server.demux, label='server').describe()}")
    print(f"  reaper: {server.reaper.stats.as_dict()}")


def main() -> None:
    act_one_the_leak()
    act_two_idle_reaping()
    act_three_full_stack()


if __name__ == "__main__":
    main()
