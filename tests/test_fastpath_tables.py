"""Unit tests for the slot-table building blocks.

The golden and differential suites prove the assembled structures
decision-identical to the oracle; these tests pin the pieces those
suites build on -- key interning, flat slot tables, single-entry cache
slots, the batch mixin's counters and hook fallback, and the metrics
exporter -- plus the base-class default ``lookup_batch`` that the
structures without an intern table inherit.
"""

from __future__ import annotations

import pytest

from repro.core.base import DuplicateConnectionError
from repro.core.batch import as_packets
from repro.core.bsd import BSDDemux
from repro.core.keycache import FastpathCounters, KeyCache
from repro.core.pcb import PCB
from repro.core.registry import make_algorithm
from repro.core.sequent import SequentDemux
from repro.core.stats import PacketKind
from repro.core.tables import CachedSlot, SlotTable
from repro.fastpath.metrics import publish_fastpath
from repro.obs.metrics import MetricsRegistry
from repro.obs.profile import LookupProfiler
from repro.obs.trace import RingBufferSink, Tracer

from conftest import make_tuple
from demux_oracle import LinearOracle


class TestKeyCache:
    def test_interns_once_and_refuses_a_live_tuple(self):
        cache = KeyCache()
        tup = make_tuple(0)
        key, chain = cache.intern(tup)
        assert key == tup.key_bits()
        assert chain == 0
        assert tup in cache
        # A second intern is a duplicate insert: nothing stored or
        # counted (a key-cache hit means a lookup served by a memo).
        assert cache.intern(tup) is None
        assert cache.counters.interned_keys == 1
        assert cache.counters.key_cache_hits == 0
        assert len(cache) == 1

    def test_chain_fn_runs_once_per_distinct_tuple(self):
        calls = []

        def chain_fn(tup):
            calls.append(tup)
            return 3

        cache = KeyCache(chain_fn)
        tup = make_tuple(1)
        cache.intern(tup)  # the insert path interns (and hashes once)
        assert cache.chain_of(tup) == 3
        assert cache.chain_of(tup) == 3
        assert cache.key_of(tup) == tup.key_bits()
        assert len(calls) == 1  # memoized: the hash ran exactly once

    def test_probe_does_not_intern(self):
        cache = KeyCache()
        tup = make_tuple(2)
        key, chain = cache.probe(tup)
        assert (key, chain) == (tup.key_bits(), 0)
        assert len(cache) == 0
        assert cache.counters.transient_probes == 1
        # Interned tuples probe through the memo.
        cache.intern(tup)
        cache.probe(tup)
        assert cache.counters.key_cache_hits == 1

    def test_evict_drops_entry_and_counts(self):
        cache = KeyCache()
        tup = make_tuple(3)
        cache.intern(tup)
        assert cache.evict(tup)
        assert len(cache) == 0
        assert cache.counters.evicted_keys == 1
        assert not cache.evict(tup)  # idempotent
        assert cache.counters.evicted_keys == 1

    def test_shared_counters_object(self):
        counters = FastpathCounters()
        cache = KeyCache(counters=counters)
        cache.intern(make_tuple(0))
        assert counters.interned_keys == 1
        assert counters.as_dict() == {
            "interned_keys": 1,
            "key_cache_hits": 0,
            "evicted_keys": 0,
            "transient_probes": 0,
            "batch_calls": 0,
            "batched_lookups": 0,
        }

    def test_evict_returns_the_memo_and_counts_the_probe(self):
        cache = KeyCache()
        tup = make_tuple(5)
        cache.intern(tup)
        assert cache.evict(tup) == (tup.key_bits(), 0)
        assert tup not in cache
        assert cache.evict(tup) is None
        counters = cache.counters
        assert (counters.key_cache_hits, counters.evicted_keys) == (1, 1)
        assert counters.transient_probes == 1

    def test_probe_batch_counts_as_the_probe_loop(self):
        batched, looped = KeyCache(lambda tup: 2), KeyCache(lambda tup: 2)
        tuples = [make_tuple(i) for i in (0, 1, 2, 1, 9)]
        for cache in (batched, looped):
            cache.intern(tuples[1])
        entries, live = batched.probe_batch(tuples)
        assert entries == [looped.probe(tup) for tup in tuples]
        assert live == [False, True, False, True, False]
        assert batched.counters == looped.counters


class TestDuplicateInsert:
    @pytest.mark.parametrize(
        "spec",
        ["linear", "bsd", "mtf", "sequent:h=19", "hashed_mtf:h=3", "cuckoo"],
    )
    def test_rejected_duplicate_counts_nothing(self, spec):
        # A duplicate insert is refused before interning: it must not
        # count a key-cache hit, which means "a lookup served from the
        # intern table".
        demux = make_algorithm(spec)
        tup = make_tuple(0)
        demux.insert(PCB(tup))
        before = demux.fastpath_counters.as_dict()
        with pytest.raises(DuplicateConnectionError):
            demux.insert(PCB(tup))
        assert demux.fastpath_counters.as_dict() == before
        assert before["key_cache_hits"] == 0
        assert before["interned_keys"] == 1
        assert len(demux) == demux.interned_entries == 1


class TestSlotTable:
    def test_scan_follows_counting_convention(self):
        table = SlotTable()
        pcbs = [PCB(make_tuple(i)) for i in range(3)]
        for pcb in pcbs:
            table.push_front(pcb.four_tuple.key_bits(), pcb)
        # Head-first: last insert sits at index 0.
        index, examined = table.scan(pcbs[2].four_tuple.key_bits())
        assert (index, examined) == (0, 1)
        index, examined = table.scan(pcbs[0].four_tuple.key_bits())
        assert (index, examined) == (2, 3)
        # Miss examines the whole table.
        index, examined = table.scan(make_tuple(99).key_bits())
        assert (index, examined) == (-1, 3)

    def test_parallel_arrays_stay_aligned(self):
        table = SlotTable()
        pcbs = [PCB(make_tuple(i)) for i in range(4)]
        for pcb in pcbs:
            table.push_front(pcb.four_tuple.key_bits(), pcb)
        table.move_to_front(2)
        table.remove_key(pcbs[0].four_tuple.key_bits())
        assert len(table.keys) == len(table.pcbs) == 3
        for key, pcb in zip(table.keys, table.pcbs):
            assert key == pcb.four_tuple.key_bits()

    def test_move_to_front_of_head_is_noop(self):
        table = SlotTable()
        pcb = PCB(make_tuple(0))
        table.push_front(pcb.four_tuple.key_bits(), pcb)
        table.move_to_front(0)
        assert table.pcbs == [pcb]

    def test_remove_absent_key_raises(self):
        with pytest.raises(ValueError):
            SlotTable().remove_key(12345)


class TestCachedSlot:
    def test_lifecycle(self):
        slot = CachedSlot()
        assert slot.key is None and slot.pcb is None
        pcb = PCB(make_tuple(0))
        slot.set(7, pcb)
        assert (slot.key, slot.pcb) == (7, pcb)
        slot.invalidate_if(8)  # different key: untouched
        assert slot.key == 7
        slot.invalidate_if(7)
        assert slot.key is None and slot.pcb is None


class TestBatchMixin:
    def build(self, n=6):
        demux = SequentDemux(3)
        for i in range(n):
            demux.insert(PCB(make_tuple(i)))
        return demux

    def test_counters_track_batches(self):
        demux = self.build()
        packets = as_packets([make_tuple(i) for i in range(6)])
        demux.lookup_batch(packets)
        demux.lookup_batch(packets[:2])
        assert demux.fastpath_counters.batch_calls == 2
        assert demux.fastpath_counters.batched_lookups == 8
        assert demux.stats.lookups == 8

    def test_tracer_forces_per_call_path(self):
        demux = self.build()
        tracer = Tracer()
        sink = tracer.attach(RingBufferSink())
        demux.attach(tracer)
        packets = as_packets([make_tuple(i) for i in range(4)])
        results = demux.lookup_batch(packets)
        # The fallback path still produces results and stats...
        assert len(results) == 4
        assert demux.stats.lookups == 4
        # ...emits one trace event per lookup...
        assert len(sink.events) == 4
        # ...and never counts as an amortized batch.
        assert demux.fastpath_counters.batch_calls == 0

    def test_profiler_forces_per_call_path(self):
        demux = self.build()
        profiler = LookupProfiler(sample_every=1).attach(demux)
        demux.lookup_batch(as_packets([make_tuple(i) for i in range(3)]))
        assert demux.fastpath_counters.batch_calls == 0
        assert demux.stats.lookups == 3
        profiler.detach(demux)
        demux.lookup_batch(as_packets([make_tuple(0)]))
        assert demux.fastpath_counters.batch_calls == 1

    def test_as_packets_passes_pairs_through(self):
        tup = make_tuple(0)
        packets = as_packets([tup, (tup, PacketKind.ACK)])
        assert packets == [(tup, PacketKind.DATA), (tup, PacketKind.ACK)]


class TestDefaultLookupBatch:
    def test_reference_algorithms_inherit_the_loop(self, any_algorithm):
        pcbs = [PCB(make_tuple(i)) for i in range(5)]
        for pcb in pcbs:
            any_algorithm.insert(pcb)
        packets = [(pcb.four_tuple, PacketKind.DATA) for pcb in pcbs]
        results = any_algorithm.lookup_batch(packets)
        assert [r.pcb for r in results] == pcbs
        assert any_algorithm.stats.lookups == len(pcbs)


class TestPublishFastpath:
    def test_exports_counters_as_gauges(self):
        demux = BSDDemux()
        demux.insert(PCB(make_tuple(0)))
        demux.lookup_batch(as_packets([make_tuple(0), make_tuple(0)]))
        registry = MetricsRegistry()
        assert publish_fastpath(registry, demux) is True
        gauge = registry.gauge("fastpath_counters")
        assert gauge.value(algorithm="bsd", counter="batch_calls") == 1
        assert gauge.value(algorithm="bsd", counter="batched_lookups") == 2

    def test_reference_algorithm_is_a_noop(self):
        registry = MetricsRegistry()
        assert publish_fastpath(registry, LinearOracle()) is False
        assert len(registry) == 0

    def test_sharded_fast_exports_per_shard(self):
        from repro.core.registry import make_algorithm

        demux = make_algorithm("sharded-fast-sequent:shards=2,h=5")
        for i in range(4):
            demux.insert(PCB(make_tuple(i)))
        demux.lookup_batch(as_packets([make_tuple(i) for i in range(4)]))
        registry = MetricsRegistry()
        assert publish_fastpath(registry, demux) is True
        assert "fastpath_shard_counters" in registry
