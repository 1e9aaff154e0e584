"""The per-frame fast paths, pinned to the behaviour they replace.

Four places skip interpreter work on every frame without changing a
result, an error or a check:

* the RFC 1071 sum reads long data in even-width chunks;
* ``IPv4Header.parse`` wraps the wire addresses unchecked
  (``IPv4Address._from_wire``);
* ``FourTuple`` skips ``_check_port`` for plain in-range ints;
* ``LookupResult`` fills its ``__dict__`` directly.

These tests compare each against the word-loop oracle or the checks it
must still make, with the same messages.
"""

from __future__ import annotations

import dataclasses
import enum
import pickle
import random

import packet_oracle as oracle
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.base import LookupResult
from repro.core.pcb import PCB
from repro.core.stats import PacketKind
from repro.packet.addresses import AddressError, FourTuple, IPv4Address
from repro.packet.builder import build_packet, make_data, parse_packet
from repro.packet.checksum import _CHUNK, ones_complement_sum
from repro.packet.tcp import TCPSegment

LENGTHS = sorted({
    0, 1, _CHUNK - 1, _CHUNK, _CHUNK + 1, 2 * _CHUNK - 1, 2 * _CHUNK + 1,
    1480, 1481, 65535,
})


class TestChunkedSum:
    def test_chunk_is_even(self):
        # An odd width would start the second chunk mid-word.
        assert _CHUNK > 0 and _CHUNK % 2 == 0

    @pytest.mark.parametrize("length", LENGTHS)
    def test_equals_word_loop(self, length):
        rng = random.Random(length)
        for _ in range(4):
            data = rng.randbytes(length)
            initial = rng.randrange(0x10000)
            expected = oracle.ones_complement_sum(data, initial)
            assert ones_complement_sum(data, initial) == expected
            assert ones_complement_sum(bytearray(data), initial) == expected
            assert ones_complement_sum(memoryview(data), initial) == expected

    @pytest.mark.parametrize("length", LENGTHS)
    def test_zero_versus_negative_zero(self, length):
        # All-zero data sums to 0; all-ones data to 0xFFFF, never 0,
        # however it is cut.
        zeros, ones = bytes(length), b"\xff" * length
        assert ones_complement_sum(zeros) == oracle.ones_complement_sum(zeros)
        assert ones_complement_sum(ones) == oracle.ones_complement_sum(ones)

    @pytest.mark.parametrize("length", [0, 1480])
    @pytest.mark.parametrize("initial", [-1, 0x10000])
    def test_initial_outside_16_bits_raises(self, length, initial):
        with pytest.raises(ValueError) as caught:
            ones_complement_sum(bytes(length), initial)
        assert str(caught.value) == f"initial sum out of 16-bit range: {initial}"


addresses = st.integers(min_value=0, max_value=0xFFFFFFFF)
ports = st.integers(min_value=0, max_value=0xFFFF)


class TestWireKey:
    @pytest.mark.parametrize("value", [0, 1, 0x0A000001, 0xFFFFFFFF])
    def test_from_wire_equals_constructor(self, value):
        wire = IPv4Address._from_wire(value)
        assert type(wire) is IPv4Address
        assert wire == IPv4Address(value)
        assert hash(wire) == hash(IPv4Address(value)) == hash(value)
        assert str(wire) == str(IPv4Address(value))

    @given(addresses, addresses, ports, ports, st.binary(max_size=64))
    @settings(max_examples=200)
    def test_parsed_key_equals_validated_key(self, src, dst, sport, dport, data):
        segment = TCPSegment(src_port=sport, dst_port=dport, payload=data)
        frame = build_packet(IPv4Address(src), IPv4Address(dst), segment)
        key = parse_packet(frame).four_tuple
        expected = FourTuple(
            str(IPv4Address(dst)), dport, str(IPv4Address(src)), sport
        )
        assert key == expected
        assert hash(key) == hash(expected)
        assert key.key_bits() == expected.key_bits()
        assert type(key.local_addr) is type(key.remote_addr) is IPv4Address

    def test_mutated_port_still_raises(self):
        tup = FourTuple("10.0.0.1", 80, "10.0.0.2", 40000)
        packet = make_data(tup, b"payload")
        packet.tcp.dst_port = 70000
        with pytest.raises(AddressError) as caught:
            packet.four_tuple
        assert str(caught.value) == "local port out of range: 70000"


class _Port(enum.IntEnum):
    HTTP = 80


class TestFourTupleChecks:
    @pytest.mark.parametrize(
        "args, message",
        [
            (("10.0.0.1", True, "10.0.0.2", 1),
             "local port must be an int, got bool"),
            (("10.0.0.1", 80, "10.0.0.2", False),
             "remote port must be an int, got bool"),
            (("10.0.0.1", "80", "10.0.0.2", 1),
             "local port must be an int, got str"),
            (("10.0.0.1", 80, "10.0.0.2", 1.0),
             "remote port must be an int, got float"),
            (("10.0.0.1", -1, "10.0.0.2", 1),
             "local port out of range: -1"),
            (("10.0.0.1", 80, "10.0.0.2", -7),
             "remote port out of range: -7"),
            (("10.0.0.1", 65536, "10.0.0.2", 1),
             "local port out of range: 65536"),
            (("10.0.0", 80, "10.0.0.2", 1),
             "malformed IPv4 address: '10.0.0'"),
            (("10.0.0.1", 80, "10.0.0.256", 1),
             "IPv4 octet out of range in '10.0.0.256'"),
            # Several bad fields: the addresses are checked first.
            (("10.0.0.1", -1, "bad", 1), "malformed IPv4 address: 'bad'"),
            (("10.0.0.1", -1, "10.0.0.2", -2), "local port out of range: -1"),
        ],
    )
    def test_bad_fields_raise_the_same_message(self, args, message):
        with pytest.raises(AddressError) as caught:
            FourTuple(*args)
        assert str(caught.value) == message

    def test_int_subclass_port_goes_through_the_check(self):
        tup = FourTuple("10.0.0.1", _Port.HTTP, "10.0.0.2", 40000)
        assert tup.local_port is _Port.HTTP
        assert tup == FourTuple("10.0.0.1", 80, "10.0.0.2", 40000)

    def test_plain_ports_are_stored_as_given(self):
        tup = FourTuple("10.0.0.1", 0, "10.0.0.2", 0xFFFF)
        assert tup.local_port == 0 and tup.remote_port == 0xFFFF
        assert type(tup) is FourTuple and isinstance(tup, tuple)


class TestLookupResult:
    def make(self, **changes):
        fields = dict(
            pcb=PCB(FourTuple("10.0.0.1", 80, "10.0.0.2", 40000)),
            examined=3,
            cache_hit=False,
            kind=PacketKind.ACK,
        )
        fields.update(changes)
        return fields

    def test_positional_equals_keyword_twin(self):
        fields = self.make()
        positional = LookupResult(*fields.values())
        twin = LookupResult(**fields)
        assert positional == twin
        assert hash(positional) == hash(twin)
        assert repr(positional) == (
            f"LookupResult(pcb={fields['pcb']!r}, examined=3,"
            f" cache_hit=False, kind={PacketKind.ACK!r})"
        )

    def test_stays_frozen(self):
        result = LookupResult(**self.make())
        with pytest.raises(dataclasses.FrozenInstanceError):
            result.examined = 4
        with pytest.raises(dataclasses.FrozenInstanceError):
            del result.pcb

    def test_replace(self):
        result = LookupResult(**self.make())
        replaced = dataclasses.replace(result, pcb=None, cache_hit=True)
        assert replaced == LookupResult(**self.make(pcb=None, cache_hit=True))
        assert not replaced.found and result.found
        assert [f.name for f in dataclasses.fields(LookupResult)] == [
            "pcb", "examined", "cache_hit", "kind",
        ]

    def test_pickles(self):
        result = LookupResult(**self.make(pcb=None))
        restored = pickle.loads(pickle.dumps(result))
        assert restored == result and hash(restored) == hash(result)

    def test_unequal_fields_differ(self):
        assert LookupResult(**self.make(examined=3)) != LookupResult(
            **self.make(examined=4)
        )
