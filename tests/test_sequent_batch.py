"""The cache-first Sequent batch path: what it does *not* do.

The lockstep property tests prove the batch path decision-identical to
the per-call loop; these deterministic tests pin the mechanism that
makes it cheap, by spying on the scan primitives:

* an all-cache-hit batch, and misses on dead flows, scan nothing;
* a 16-packet batch right after an insert on the serving shape
  (N=10^4, h=19) rebuilds no numpy mirror -- the loop is cheaper there
  than the rebuild;
* a large same-chain group on a long table still vectorizes.

Plus the regression for inserts and inspection calls inflating the
``key_cache_hits`` fast-path counter.
"""

from __future__ import annotations

import pytest

from repro.core.pcb import PCB
from repro.core.sequent import SequentDemux
from repro.core.stats import PacketKind
from repro.core.tables import SlotTable
from repro.packet.addresses import FourTuple, IPv4Address


def tuple_for(index: int) -> FourTuple:
    return FourTuple(
        IPv4Address("10.0.0.1"), 1521,
        IPv4Address("10.8.0.0") + index, 40000 + index % 20000,
    )


def populated(n: int, h: int = 19) -> SequentDemux:
    alg = SequentDemux(h)
    for index in range(n):
        alg.insert(PCB(tuple_for(index)))
    return alg


def same_chain(alg: SequentDemux, chain: int, count: int, start=0):
    """``count`` live flows on ``chain``, from flow index ``start`` on."""
    flows = []
    index = start
    while len(flows) < count:
        tup = tuple_for(index)
        if tup in alg and alg.chain_of(tup) == chain:
            flows.append(tup)
        index += 1
    return flows


@pytest.fixture
def spy(monkeypatch):
    """Count calls of ``SlotTable.scan`` and ``SlotTable._mirrors``."""
    calls = {"scan": 0, "_mirrors": 0}
    for name in calls:
        real = getattr(SlotTable, name)

        def counted(self, *args, _real=real, _name=name):
            calls[_name] += 1
            return _real(self, *args)

        monkeypatch.setattr(SlotTable, name, counted)
    return calls


class TestScansOnlyFoundMisses:
    def test_all_cache_hit_batch_scans_nothing(self, spy):
        alg = populated(400)
        flows = [same_chain(alg, chain, 1)[0] for chain in range(19)]
        for tup in flows:  # set every chain's cache, per call
            alg.lookup(tup)
        spy["scan"] = 0
        packets = [(tup, PacketKind.DATA) for tup in flows * 3]
        results = alg.lookup_batch(packets)
        assert spy == {"scan": 0, "_mirrors": 0}
        assert all(r.cache_hit and r.examined == 1 for r in results)
        assert [r.pcb.four_tuple for r in results] == flows * 3

    def test_dead_flow_misses_scan_nothing(self, spy):
        alg = populated(400)
        dead = [tuple_for(10_000 + index) for index in range(16)]
        results = alg.lookup_batch([(tup, PacketKind.ACK) for tup in dead])
        assert spy == {"scan": 0, "_mirrors": 0}
        # Every cache is still empty, so a miss costs its chain length.
        lengths = alg.chain_lengths()
        assert [r.examined for r in results] == [
            lengths[alg.chain_of(tup)] for tup in dead
        ]
        assert all(r.pcb is None and not r.cache_hit for r in results)


class TestVectorizeOnlyWhereItPays:
    def test_batch_after_insert_rebuilds_no_mirror(self, spy):
        alg = populated(10_000)
        newcomer = tuple_for(20_000)
        alg.insert(PCB(newcomer))
        chain = alg.chain_of(newcomer)
        # The worst case for the old path: all 16 packets are distinct
        # live flows on the chain the insert just made stale.
        flows = same_chain(alg, chain, 15) + [newcomer]
        reference = populated(10_000)
        reference.insert(PCB(newcomer))
        results = alg.lookup_batch([(tup, PacketKind.DATA) for tup in flows])
        assert spy["_mirrors"] == 0
        assert spy["scan"] == 16
        want = [reference.lookup(tup) for tup in flows]
        assert [(r.pcb.four_tuple, r.examined, r.cache_hit) for r in results] == [
            (w.pcb.four_tuple, w.examined, w.cache_hit) for w in want
        ]

    def test_large_same_chain_group_vectorizes(self, spy):
        alg = populated(10_000, h=1)
        flows = same_chain(alg, 0, 64, start=17)
        reference = populated(10_000, h=1)
        results = alg.lookup_batch([(tup, PacketKind.DATA) for tup in flows])
        assert spy == {"scan": 0, "_mirrors": 1}
        want = [reference.lookup(tup) for tup in flows]
        assert [(r.pcb.four_tuple, r.examined, r.cache_hit) for r in results] == [
            (w.pcb.four_tuple, w.examined, w.cache_hit) for w in want
        ]
        assert alg.stats.as_dict() == reference.stats.as_dict()


class TestKeyCacheHitsNotInflated:
    def test_inserts_with_overload_threshold_count_no_hits(self):
        alg = SequentDemux(3, overload_threshold=2)
        for index in range(10):
            alg.insert(PCB(tuple_for(index)))
        assert alg.fastpath_counters.key_cache_hits == 0
        assert alg.fastpath_counters.interned_keys == 10
        assert alg.chain_overload_events == sum(
            max(0, length - 2) for length in alg.chain_lengths()
        )

    def test_inspection_calls_are_not_lookups(self):
        alg = populated(10, h=3)
        before = alg.fastpath_counters.as_dict()
        for index in range(12):  # live and never-seen tuples
            alg.chain_of(tuple_for(index))
            alg._keycache.key_of(tuple_for(index))
        assert alg.fastpath_counters.as_dict() == before
        alg.lookup(tuple_for(0))
        assert alg.fastpath_counters.key_cache_hits == 1
