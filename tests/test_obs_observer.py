"""The demux observer slot: one attach rule, one per-call fallback.

Every structure has one hook, ``DemuxAlgorithm.observer``.  The tracer,
the sampled profiler, the span collector and the idle reaper all fill
it through ``attach``/``detach``.  These tests pin the attach rule
(observers of different classes compose; a second one of the same
class raises) and that an attached observer sees exactly the same
thing whether the structure is driven by ``lookup`` or by
``lookup_batch``.
"""

from __future__ import annotations

import itertools

import pytest

from repro.core.base import ObserverFanout
from repro.core.pcb import PCB
from repro.core.registry import make_algorithm
from repro.core.stats import PacketKind
from repro.lifecycle import ConnectionReaper
from repro.obs.profile import LookupProfiler
from repro.obs.spans import SpanCollector
from repro.obs.trace import RingBufferSink, Tracer
from repro.recovery import ShardSupervisor
from repro.sim.engine import Simulator
from repro.workload.base import bind_tracer_clock

from conftest import make_pcbs, make_tuple

N_FLOWS = 40


def _tracer(algorithm):
    return algorithm.attach(Tracer(RingBufferSink(4096)))


def _profiler(algorithm):
    return LookupProfiler(sample_every=1).attach(algorithm)


def _reaper(algorithm):
    # A clock that ticks on every read: both paths must read it the
    # same number of times, in the same order, to record equal touches.
    return ConnectionReaper(
        algorithm, idle_timeout=1e9, clock=itertools.count().__next__
    )


def _spans(algorithm):
    return SpanCollector(sample_every=1).attach(algorithm)


OBSERVERS = {
    "tracer": _tracer,
    "profiler": _profiler,
    "reaper": _reaper,
    "spans": _spans,
}


def _record(observer):
    """What one observer recorded, as comparable plain data."""
    if isinstance(observer, Tracer):
        return [event.to_dict() for event in observer.sinks[0].events]
    if isinstance(observer, LookupProfiler):
        return (observer.lookups, observer.samples)
    if isinstance(observer, ConnectionReaper):
        return (dict(observer._last_touch), observer.stats.as_dict())
    return (
        observer.packets_seen,
        [span.to_dict() for span in observer.recorder.all_spans()],
    )


STRUCTURES = {
    "sequent": lambda: make_algorithm("sequent:h=19"),
    "sharded": lambda: make_algorithm("sharded-sequent:shards=4,h=19"),
    "supervised": lambda: ShardSupervisor(
        make_algorithm("sharded-sequent:shards=4,h=19")
    ),
}


def _batch_calls(structure):
    sharded = getattr(structure, "sharded", structure)
    shards = getattr(sharded, "shards", (sharded,))
    return sum(shard.fastpath_counters.batch_calls for shard in shards)


def _packets():
    # Repeats (cache hits), both kinds, and a few misses.
    return [
        (make_tuple(i % (N_FLOWS + 5)),
         PacketKind.ACK if i % 3 else PacketKind.DATA)
        for i in range(7, 7 + 3 * N_FLOWS)
    ]


def _run(structure_name, observer_names, batched):
    structure = STRUCTURES[structure_name]()
    for pcb in make_pcbs(N_FLOWS):
        structure.insert(pcb)
    observers = [OBSERVERS[name](structure) for name in observer_names]
    packets = _packets()
    if batched:
        results = []
        for start in range(0, len(packets), 16):
            results += structure.lookup_batch(packets[start:start + 16])
    else:
        results = [structure.lookup(tup, kind) for tup, kind in packets]
    decisions = [
        (r.pcb.four_tuple if r.pcb else None, r.examined, r.cache_hit, r.kind)
        for r in results
    ]
    return structure, decisions, [_record(o) for o in observers]


OBSERVER_SETS = [[name] for name in OBSERVERS] + [list(OBSERVERS)]


class TestBatchedEqualsPerCall:
    @pytest.mark.parametrize("structure_name", sorted(STRUCTURES))
    @pytest.mark.parametrize(
        "observer_names", OBSERVER_SETS,
        ids=["+".join(names) for names in OBSERVER_SETS],
    )
    def test_observer_sees_the_same(self, structure_name, observer_names):
        per_call, decisions, records = _run(
            structure_name, observer_names, batched=False
        )
        batched, batch_decisions, batch_records = _run(
            structure_name, observer_names, batched=True
        )
        assert batch_decisions == decisions
        assert batched.stats.as_dict() == per_call.stats.as_dict()
        assert batch_records == records
        if "spans" in observer_names:
            # One span per packet, even under the supervisor (whose
            # observers() lists the collector it put on its facade).
            (collector,) = [
                o for o in batched.observers() if isinstance(o, SpanCollector)
            ]
            assert collector.packets_seen == len(_packets())
            assert collector.spans_finished == len(_packets())

    @pytest.mark.parametrize("structure_name", sorted(STRUCTURES))
    def test_empty_slot_keeps_amortized_path(self, structure_name):
        structure, _, _ = _run(structure_name, [], batched=True)
        assert structure.observer is None
        assert _batch_calls(structure) > 0


class TestAttachRule:
    @pytest.mark.parametrize("name", sorted(OBSERVERS))
    def test_second_observer_of_a_class_raises(self, name):
        algorithm = make_algorithm("sequent:h=19")
        first = OBSERVERS[name](algorithm)
        with pytest.raises(ValueError):
            OBSERVERS[name](algorithm)
        assert algorithm.observer is first

    def test_second_collector_does_not_orphan_the_first(self):
        algorithm = make_algorithm("sequent:h=19")
        first = _spans(algorithm)
        with pytest.raises(ValueError):
            SpanCollector(sample_every=1).attach(algorithm)
        algorithm.lookup(make_tuple(0))
        assert first.packets_seen == 1

    def test_second_reaper_does_not_orphan_the_first(self):
        # Four flows looked up at t=0.9 are live at t=1.5 under a 1 s
        # idle timeout.  A second reaper must not take over the slot
        # and leave the first with frozen touch times.
        algorithm = make_algorithm("sequent:h=19")
        tuples = [make_tuple(i) for i in range(4)]
        for tup in tuples:
            algorithm.insert(PCB(tup))
        now = [0.0]
        first = ConnectionReaper(
            algorithm, idle_timeout=1.0, clock=lambda: now[0]
        )
        with pytest.raises(ValueError):
            ConnectionReaper(algorithm, idle_timeout=1.0)
        now[0] = 0.9
        for tup in tuples:
            algorithm.lookup(tup)
        assert first.advance(1.5) == 0
        assert len(algorithm) == 4

    def test_different_classes_compose(self):
        algorithm = make_algorithm("sequent:h=19")
        for pcb in make_pcbs(4):
            algorithm.insert(pcb)
        observers = [make(algorithm) for make in OBSERVERS.values()]
        assert isinstance(algorithm.observer, ObserverFanout)
        assert algorithm.observers() == tuple(observers)
        algorithm.lookup(make_tuple(1))
        tracer, profiler, reaper, collector = observers
        assert len(tracer.sinks[0]) == 1
        assert profiler.lookups == 1
        assert reaper.last_touch(make_tuple(1)) > 0
        assert collector.packets_seen == 1

    def test_detach_unwinds_the_fanout(self):
        algorithm = make_algorithm("sequent:h=19")
        tracer = _tracer(algorithm)
        profiler = _profiler(algorithm)
        algorithm.detach(tracer)
        assert algorithm.observer is profiler
        with pytest.raises(ValueError):
            algorithm.detach(tracer)
        profiler.detach(algorithm)
        assert algorithm.observer is None

    def test_supervisor_routes_spans_to_its_facade(self):
        supervised = STRUCTURES["supervised"]()
        collector = _spans(supervised)
        tracer = _tracer(supervised)
        assert supervised.observer is tracer
        assert supervised.sharded.observer is collector
        supervised.detach(collector)
        assert supervised.sharded.observer is None

    def test_supervisor_lists_its_facade_observers(self):
        # bind_tracer_clock walks observers(): the collector on the
        # facade gets the simulator's clock like any other observer.
        supervised = STRUCTURES["supervised"]()
        collector = _spans(supervised)
        tracer = _tracer(supervised)
        assert supervised.observers() == (tracer, collector)
        sim = Simulator()
        bind_tracer_clock(supervised, sim)
        assert collector.clock is not None
        assert collector.clock() == sim.now
