"""Differential property tests: each structure vs its list-walking oracle.

Hypothesis drives random insert/remove/lookup/note_send command
sequences -- including duplicate inserts, removes of absent keys, and
lookups of keys that were never installed -- at the oracle from
``tests/demux_oracle.py`` and the production structure in lockstep,
asserting after every command that they are indistinguishable: same
lookup outcomes (found key, examined count, cache hit), same
exceptions, same ``DemuxStats``, same population, same iteration
order.  A second pass replays the same lookups through
``lookup_batch`` and asserts the batch path changes nothing either.
"""

from hypothesis import given, settings
from hypothesis import strategies as st
import pytest

from repro.core.base import DuplicateConnectionError
from repro.core.bsd import BSDDemux
from repro.core.hashed_mtf import HashedMTFDemux
from repro.core.linear import LinearDemux
from repro.core.mtf import MoveToFrontDemux
from repro.core.pcb import PCB
from repro.core.sequent import SequentDemux
from repro.core.stats import PacketKind
from repro.packet.addresses import FourTuple, IPv4Address

from demux_oracle import (
    BSDOracle,
    HashedMTFOracle,
    LinearOracle,
    MoveToFrontOracle,
    SequentOracle,
)

SERVER = IPv4Address("10.0.0.1")

#: (label, oracle factory, production factory) -- all five structures.
PAIRS = [
    ("linear", LinearOracle, LinearDemux),
    ("bsd", BSDOracle, BSDDemux),
    ("mtf", MoveToFrontOracle, MoveToFrontDemux),
    ("sequent", lambda: SequentOracle(5), lambda: SequentDemux(5)),
    (
        "hashed_mtf",
        lambda: HashedMTFOracle(3),
        lambda: HashedMTFDemux(3),
    ),
]


def tuple_for(index: int) -> FourTuple:
    return FourTuple(SERVER, 1521, IPv4Address("10.7.0.0") + index, 40000 + index)


# A command is (op, key_index).  "insert"/"remove" are attempted even
# when they must fail, so the duplicate/absent exception paths are
# exercised as part of the differential contract.
commands = st.lists(
    st.tuples(
        st.sampled_from(
            ["insert", "remove", "lookup_data", "lookup_ack", "send"]
        ),
        st.integers(min_value=0, max_value=14),
    ),
    max_size=70,
)


def assert_indistinguishable(reference, fast):
    """The observable state both structures expose must coincide."""
    assert len(reference) == len(fast)
    assert (
        [p.four_tuple for p in reference] == [p.four_tuple for p in fast]
    ), "iteration order diverged"
    assert reference.stats.as_dict() == fast.stats.as_dict()


@pytest.mark.parametrize("label,ref_factory,fast_factory", PAIRS)
@given(script=commands)
@settings(max_examples=60, deadline=None)
def test_fast_twin_is_decision_identical(label, ref_factory, fast_factory, script):
    reference, fast = ref_factory(), fast_factory()
    pcbs = {}  # index -> (reference PCB, fast PCB)

    for op, index in script:
        tup = tuple_for(index)
        if op == "insert":
            if index in pcbs:
                with pytest.raises(DuplicateConnectionError):
                    reference.insert(PCB(tup))
                with pytest.raises(DuplicateConnectionError):
                    fast.insert(PCB(tup))
            else:
                pair = (PCB(tup), PCB(tup))
                reference.insert(pair[0])
                fast.insert(pair[1])
                pcbs[index] = pair
        elif op == "remove":
            if index not in pcbs:
                with pytest.raises(KeyError):
                    reference.remove(tup)
                with pytest.raises(KeyError):
                    fast.remove(tup)
            else:
                expected = pcbs.pop(index)
                assert reference.remove(tup) is expected[0]
                assert fast.remove(tup) is expected[1]
        elif op == "send":
            if index in pcbs:
                reference.note_send(pcbs[index][0])
                fast.note_send(pcbs[index][1])
        else:
            kind = PacketKind.DATA if op == "lookup_data" else PacketKind.ACK
            ref_result = reference.lookup(tup, kind)
            fast_result = fast.lookup(tup, kind)
            if index in pcbs:
                assert ref_result.pcb is pcbs[index][0], label
                assert fast_result.pcb is pcbs[index][1], label
            else:
                assert ref_result.pcb is None, label
                assert fast_result.pcb is None, label
            assert ref_result.examined == fast_result.examined, label
            assert ref_result.cache_hit == fast_result.cache_hit, label
            assert ref_result.kind == fast_result.kind

        assert_indistinguishable(reference, fast)


@pytest.mark.parametrize("label,ref_factory,fast_factory", PAIRS)
@given(
    npcbs=st.integers(min_value=0, max_value=12),
    lookups=st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=15),
            st.sampled_from([PacketKind.DATA, PacketKind.ACK]),
        ),
        max_size=60,
    ),
)
@settings(max_examples=60, deadline=None)
def test_batch_path_matches_reference_loop(
    label, ref_factory, fast_factory, npcbs, lookups
):
    """lookup_batch == the oracle's per-call loop, stats included.

    Keys range past ``npcbs`` so batches mix present and absent keys.
    """
    reference, fast = ref_factory(), fast_factory()
    for i in range(npcbs):
        reference.insert(PCB(tuple_for(i)))
        fast.insert(PCB(tuple_for(i)))

    packets = [(tuple_for(i), kind) for i, kind in lookups]
    ref_results = [reference.lookup(tup, kind) for tup, kind in packets]
    fast_results = fast.lookup_batch(packets)

    assert len(ref_results) == len(fast_results)
    for ref_result, fast_result in zip(ref_results, fast_results):
        assert (ref_result.pcb is None) == (fast_result.pcb is None), label
        if ref_result.pcb is not None:
            assert ref_result.pcb.four_tuple == fast_result.pcb.four_tuple
        assert ref_result.examined == fast_result.examined, label
        assert ref_result.cache_hit == fast_result.cache_hit, label
    assert reference.stats.as_dict() == fast.stats.as_dict()
    if packets:
        assert fast.fastpath_counters.batch_calls >= 1
        assert fast.fastpath_counters.batched_lookups == len(packets)
