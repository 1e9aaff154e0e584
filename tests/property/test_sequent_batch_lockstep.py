"""Lockstep: fast-sequent ``lookup_batch`` vs its own per-call ``lookup``.

The cache-first batch path decides every packet's cache hit or miss
before it scans anything, then scans only the found misses and fills
in PCBs last.  Hypothesis drives two identically built
:class:`FastSequentDemux` instances at small ``h`` (1-3, so chains are
shared and caches are contended) through random scripts of inserts,
removes and batches -- batches repeat keys, hit a cache set by an
earlier in-batch miss, and miss on dead flows -- and asserts after
every step that the batch path is indistinguishable from looping
``lookup``: same results, same statistics, and the same key and PCB in
every chain's cache.  Every script runs twice, with the numpy gate of
``SlotTable.scan_batch`` forced on and forced off.
"""

import sys

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st
import pytest

import repro.fastpath.tables as tables
from repro.core.pcb import PCB
from repro.core.stats import PacketKind
from repro.fastpath.algorithms import FastSequentDemux
from repro.packet.addresses import FourTuple, IPv4Address

SERVER = IPv4Address("10.0.0.1")
KINDS = [PacketKind.DATA, PacketKind.ACK]


def tuple_for(index: int) -> FourTuple:
    """A fresh tuple object per call, as a parsed frame delivers it."""
    return FourTuple(
        SERVER, 1521, IPv4Address("10.9.0.0") + index, 40000 + index
    )


@pytest.fixture(params=["numpy", "loop"])
def gate(request, monkeypatch):
    """Force ``scan_batch`` onto numpy (any >=2-key batch) or the loop."""
    if request.param == "numpy":
        monkeypatch.setattr(tables, "_VECTOR_MIN_TABLE", 1)
        monkeypatch.setattr(tables, "_VECTOR_MIN_WORK", 0)
        monkeypatch.setattr(tables, "_REBUILD_QUERIES", 0)
    else:
        monkeypatch.setattr(tables, "_VECTOR_MIN_TABLE", sys.maxsize)
    return request.param


#: One step: a mutation of one flow, or a batch of (flow, kind) packets.
steps = st.lists(
    st.one_of(
        st.tuples(
            st.sampled_from(["insert", "remove"]),
            st.integers(min_value=0, max_value=9),
        ),
        st.tuples(
            st.just("batch"),
            st.lists(
                st.tuples(
                    st.integers(min_value=0, max_value=11),
                    st.sampled_from(KINDS),
                ),
                max_size=20,
            ),
        ),
    ),
    max_size=25,
)

#: In-batch miss sets a cache that later packets hit, twice over on
#: one chain, with a dead-flow miss (index 11) in between.
_SET_THEN_HIT = [
    ("insert", 0), ("insert", 1), ("insert", 2), ("insert", 3),
    ("batch", [(0, PacketKind.DATA), (0, PacketKind.ACK),
               (1, PacketKind.DATA), (11, PacketKind.DATA),
               (1, PacketKind.ACK), (0, PacketKind.DATA),
               (2, PacketKind.DATA), (3, PacketKind.DATA),
               (2, PacketKind.ACK)]),
    ("remove", 1),
    ("batch", [(1, PacketKind.DATA), (0, PacketKind.DATA),
               (3, PacketKind.DATA), (3, PacketKind.DATA)]),
]


def cache_state(alg: FastSequentDemux):
    return [(slot.key, slot.pcb) for slot in alg._caches]


@pytest.mark.parametrize("h", [1, 2, 3])
@given(script=steps)
@example(script=_SET_THEN_HIT)
@settings(
    max_examples=80,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
def test_batch_equals_per_call_loop(gate, h, script):
    batched, looped = FastSequentDemux(h), FastSequentDemux(h)
    live = {}
    for op, arg in script:
        if op == "insert":
            if arg in live:
                continue
            live[arg] = PCB(tuple_for(arg))
            batched.insert(live[arg])
            looped.insert(live[arg])
        elif op == "remove":
            if arg not in live:
                continue
            del live[arg]
            assert batched.remove(tuple_for(arg)) is looped.remove(
                tuple_for(arg)
            )
        else:
            packets = [(tuple_for(index), kind) for index, kind in arg]
            got = batched.lookup_batch(packets)
            want = [looped.lookup(tup, kind) for tup, kind in packets]
            assert len(got) == len(want)
            for (index, _), g, w in zip(arg, got, want):
                assert g.pcb is w.pcb
                assert g.pcb is live.get(index)
                assert (g.examined, g.cache_hit, g.kind) == (
                    w.examined, w.cache_hit, w.kind
                )
        assert batched.stats.as_dict() == looped.stats.as_dict()
        assert cache_state(batched) == cache_state(looped)
