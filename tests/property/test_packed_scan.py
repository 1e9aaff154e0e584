"""The packed slot-table scan against the list-walking oracle.

A :class:`~repro.core.tables.SlotTable` keeps its keys as one
tail-first byte string of 12-byte big-endian keys and scans it with
``bytearray.rfind``.  ``rfind`` matches at any byte offset, so a key's
bytes can also turn up straddling two neighbouring keys; the scan must
skip such hits until it reaches an aligned one (the alignment rule),
and report a miss, examining the whole table, when there is none.

These tests drive the five list-shaped structures and their oracles
from ``tests/demux_oracle.py`` in lockstep:

* hypothesis runs random insert/remove/lookup sequences (move-to-front
  reorders included) over a key pool seeded with crafted straddles;
* crafted cases pin a needle whose first ``rfind`` hit is misaligned
  and lies before its aligned slot, a needle that occurs only
  misaligned (a miss), and empty and one-key tables.

Every scan of every table is also checked against a walk of that
table's own PCB list.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.base import DuplicateConnectionError
from repro.core.pcb import PCB
from repro.core.registry import make_algorithm
from repro.core.stats import PacketKind
from repro.core.tables import KEY_BYTES, SlotTable
from repro.packet.addresses import FourTuple

from demux_oracle import make_oracle

SPECS = ["linear", "bsd", "mtf", "sequent:h=3", "hashed_mtf:h=3"]


def tuple_of(key: int) -> FourTuple:
    """The four-tuple whose :meth:`FourTuple.key_bits` is ``key``."""
    return FourTuple(
        key >> 64, (key >> 48) & 0xFFFF, (key >> 16) & 0xFFFFFFFF, key & 0xFFFF
    )


def key_of(data: bytes) -> int:
    return int.from_bytes(data, "big")


def straddle(alg, rng: random.Random, cut: int):
    """Keys ``(needle, first, second)`` on one chain of ``alg``.

    ``first`` ends with the needle's first ``cut`` bytes and ``second``
    starts with the rest, so when ``second`` is inserted right after
    ``first`` the needle's bytes sit across their boundary, at an
    offset that is not a multiple of 12.
    """
    while True:
        needle = rng.randbytes(KEY_BYTES)
        first = rng.randbytes(KEY_BYTES - cut) + needle[:cut]
        second = needle[cut:] + rng.randbytes(cut)
        keys = [key_of(needle), key_of(first), key_of(second)]
        if len({id(table_of(alg, key)) for key in keys}) == 1:
            return keys


def table_of(alg, key: int) -> SlotTable:
    """The slot table (the chain, for hashed structures) of ``key``."""
    chain = alg.chain_of(tuple_of(key)) if hasattr(alg, "chain_of") else 0
    return alg._tables[chain]


def assert_scans_walk_pcbs(alg, keys):
    """Each table's scan agrees with a walk of its own PCB list."""
    for table in alg._tables:
        walked = [pcb.four_tuple.key_bits() for pcb in table.pcbs]
        assert table.keys == walked
        for key in keys:
            if key in walked:
                want = (walked.index(key), walked.index(key) + 1)
            else:
                want = (-1, len(walked))
            assert table.scan(key) == want


def outcome(result):
    found = None if result.pcb is None else result.pcb.four_tuple
    return found, result.examined, result.cache_hit


def assert_same(reference, fast):
    assert len(reference) == len(fast)
    assert [p.four_tuple for p in reference] == [p.four_tuple for p in fast]
    assert reference.stats.as_dict() == fast.stats.as_dict()


def pool_for(spec: str, seed: int):
    """Keys for one run: three crafted straddles plus plain keys."""
    rng = random.Random(seed)
    alg = make_algorithm(spec)
    keys = []
    for cut in (1 + seed % 11, 6, 11):
        keys += straddle(alg, rng, cut)
    keys += [key_of(rng.randbytes(KEY_BYTES)) for _ in range(4)]
    return keys


commands = st.lists(
    st.tuples(
        st.sampled_from(["insert", "insert", "remove", "data", "ack"]),
        st.integers(min_value=0, max_value=12),
    ),
    max_size=60,
)


@pytest.mark.parametrize("spec", SPECS)
@given(script=commands, seed=st.integers(min_value=0, max_value=10_000))
@settings(max_examples=60, deadline=None)
def test_random_sequences_match_oracle(spec, script, seed):
    keys = pool_for(spec, seed)
    reference, fast = make_oracle(spec), make_algorithm(spec)
    for op, index in script:
        tup = tuple_of(keys[index])
        if op == "insert":
            outcomes = []
            for alg in (reference, fast):
                try:
                    alg.insert(PCB(tup))
                    outcomes.append("ok")
                except DuplicateConnectionError:
                    outcomes.append("duplicate")
            assert outcomes[0] == outcomes[1]
        elif op == "remove":
            outcomes = []
            for alg in (reference, fast):
                try:
                    outcomes.append(alg.remove(tup).four_tuple)
                except KeyError:
                    outcomes.append("absent")
            assert outcomes[0] == outcomes[1]
        else:
            kind = PacketKind.DATA if op == "data" else PacketKind.ACK
            assert outcome(reference.lookup(tup, kind)) == outcome(
                fast.lookup(tup, kind)
            )
        assert_same(reference, fast)
        assert_scans_walk_pcbs(fast, keys)


@pytest.mark.parametrize("spec", SPECS)
@pytest.mark.parametrize("cut", range(1, KEY_BYTES))
def test_needle_found_past_a_misaligned_hit(spec, cut):
    reference, fast = make_oracle(spec), make_algorithm(spec)
    needle, first, second = straddle(fast, random.Random(cut), cut)
    for key in (needle, first, second):
        for alg in (reference, fast):
            alg.insert(PCB(tuple_of(key)))
    table = table_of(fast, needle)
    packed = bytes(table.packed)
    at = packed.rfind(needle.to_bytes(KEY_BYTES, "big"))
    # The case is real: the first hit from the head is misaligned and
    # lies before (nearer the head than) the needle's own slot.
    assert at % KEY_BYTES and at > packed.index(needle.to_bytes(KEY_BYTES, "big"))
    assert table.scan(needle) == (2, 3)
    for kind in (PacketKind.DATA, PacketKind.ACK, PacketKind.DATA):
        assert outcome(reference.lookup(tuple_of(needle), kind)) == outcome(
            fast.lookup(tuple_of(needle), kind)
        )
    assert_same(reference, fast)
    assert_scans_walk_pcbs(fast, [needle, first, second])


@pytest.mark.parametrize("spec", SPECS)
@pytest.mark.parametrize("cut", range(1, KEY_BYTES))
def test_needle_only_misaligned_is_a_miss(spec, cut):
    reference, fast = make_oracle(spec), make_algorithm(spec)
    needle, first, second = straddle(fast, random.Random(100 + cut), cut)
    for key in (first, second):
        for alg in (reference, fast):
            alg.insert(PCB(tuple_of(key)))
    table = table_of(fast, needle)
    assert bytes(table.packed).rfind(needle.to_bytes(KEY_BYTES, "big")) % KEY_BYTES
    assert table.scan(needle) == (-1, 2)
    result = fast.lookup(tuple_of(needle))
    assert result.pcb is None
    assert outcome(reference.lookup(tuple_of(needle))) == outcome(result)
    assert_same(reference, fast)


def test_empty_and_one_key_tables():
    table = SlotTable()
    assert table.scan(0) == (-1, 0)
    assert table.scan(key_of(b"\xff" * KEY_BYTES)) == (-1, 0)
    tup = tuple_of(key_of(bytes(range(KEY_BYTES))))
    table.push_front(tup.key_bits(), PCB(tup))
    assert table.scan(tup.key_bits()) == (0, 1)
    # A key that is the stored key shifted by a byte is not in it.
    assert table.scan(tup.key_bits() >> 8) == (-1, 1)
    assert table.scan(0) == (-1, 1)


@pytest.mark.parametrize("spec", SPECS)
def test_empty_and_one_key_structures_match_oracle(spec):
    reference, fast = make_oracle(spec), make_algorithm(spec)
    only = tuple_of(key_of(bytes(range(KEY_BYTES))))
    stranger = tuple_of(key_of(bytes(range(1, KEY_BYTES + 1))))
    for tup in (only, stranger):
        assert outcome(reference.lookup(tup)) == outcome(fast.lookup(tup))
    for alg in (reference, fast):
        alg.insert(PCB(only))
    for tup in (only, stranger, only):
        assert outcome(reference.lookup(tup)) == outcome(fast.lookup(tup))
    assert_same(reference, fast)
    for alg in (reference, fast):
        alg.remove(only)
    assert outcome(reference.lookup(only)) == outcome(fast.lookup(only))
    assert_same(reference, fast)
