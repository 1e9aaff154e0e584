"""Property-based tests for the packet substrate."""

import dataclasses

import packet_oracle as oracle
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hashing.crc import crc16_ccitt
from repro.packet.addresses import FourTuple, IPv4Address
from repro.packet.builder import parse_packet
from repro.packet.checksum import (
    incremental_update,
    internet_checksum,
    ones_complement_sum,
    pseudo_header,
    pseudo_header_sum,
    verify_checksum,
)
from repro.packet.ethernet import EthernetFrame, MACAddress, crc32_ieee
from repro.packet.ip import IPv4Header, PacketError
from repro.packet.tcp import TCPSegment

addresses = st.integers(min_value=0, max_value=0xFFFFFFFF).map(IPv4Address)
ports = st.integers(min_value=0, max_value=0xFFFF)
payloads = st.binary(max_size=256)


class TestChecksumProperties:
    @given(st.binary(max_size=256).filter(lambda b: len(b) % 2 == 0))
    @settings(max_examples=200)
    def test_checksum_plus_data_verifies(self, data):
        # The checksum field must be 16-bit aligned within the covered
        # data (as in every real header); appending it to odd-length
        # data shifts word boundaries and the identity does not hold.
        checksum = internet_checksum(data)
        assert verify_checksum(data + checksum.to_bytes(2, "big"))

    @given(st.binary(min_size=2, max_size=64).filter(lambda b: len(b) % 2 == 0))
    @settings(max_examples=150)
    def test_incremental_equals_recompute(self, data):
        base = internet_checksum(data)
        mutated = bytearray(data)
        old_word = (mutated[0] << 8) | mutated[1]
        mutated[0] ^= 0x5A
        new_word = (mutated[0] << 8) | mutated[1]
        assert incremental_update(base, old_word, new_word) == (
            internet_checksum(bytes(mutated))
        )

    @given(payloads)
    def test_checksum_in_range(self, data):
        assert 0 <= internet_checksum(data) <= 0xFFFF


class TestIPv4RoundTrip:
    @given(
        src=addresses,
        dst=addresses,
        ttl=st.integers(min_value=0, max_value=255),
        identification=st.integers(min_value=0, max_value=0xFFFF),
        payload_length=st.integers(min_value=0, max_value=1400),
    )
    @settings(max_examples=150)
    def test_build_parse_identity(self, src, dst, ttl, identification,
                                  payload_length):
        header = IPv4Header(
            src=src, dst=dst, ttl=ttl, identification=identification,
            payload_length=payload_length,
        )
        parsed = IPv4Header.parse(header.build())
        assert parsed.src == src
        assert parsed.dst == dst
        assert parsed.ttl == ttl
        assert parsed.identification == identification
        assert parsed.payload_length == payload_length


class TestTCPRoundTrip:
    @given(
        src=addresses,
        dst=addresses,
        src_port=ports,
        dst_port=ports,
        seq=st.integers(min_value=0, max_value=0xFFFFFFFF),
        ack=st.integers(min_value=0, max_value=0xFFFFFFFF),
        flags=st.integers(min_value=0, max_value=0xFF),
        window=st.integers(min_value=0, max_value=0xFFFF),
        payload=payloads,
    )
    @settings(max_examples=150)
    def test_build_parse_identity(self, src, dst, src_port, dst_port, seq,
                                  ack, flags, window, payload):
        segment = TCPSegment(
            src_port=src_port, dst_port=dst_port, seq=seq, ack=ack,
            flags=flags, window=window, payload=payload,
        )
        parsed = TCPSegment.parse(segment.build(src, dst), src, dst)
        assert parsed.src_port == src_port
        assert parsed.dst_port == dst_port
        assert parsed.seq == seq
        assert parsed.ack == ack
        assert parsed.flags == flags
        assert parsed.window == window
        assert parsed.payload == payload

    @given(src=addresses, dst=addresses, payload=st.binary(min_size=1,
                                                           max_size=64))
    @settings(max_examples=100)
    def test_any_single_byte_corruption_detected(self, src, dst, payload):
        import pytest

        segment = TCPSegment(src_port=1, dst_port=2, payload=payload)
        wire = bytearray(segment.build(src, dst))
        wire[20] ^= 0x01  # first payload byte
        from repro.packet.ip import PacketError

        with pytest.raises(PacketError):
            TCPSegment.parse(bytes(wire), src, dst)


class TestEthernetRoundTrip:
    @given(
        dst=st.integers(min_value=0, max_value=(1 << 48) - 1),
        src=st.integers(min_value=0, max_value=(1 << 48) - 1),
        payload=st.binary(max_size=1500),
    )
    @settings(max_examples=100)
    def test_build_parse_identity_modulo_padding(self, dst, src, payload):
        frame = EthernetFrame(
            dst=MACAddress(dst), src=MACAddress(src), ethertype=0x0800,
            payload=payload,
        )
        parsed = EthernetFrame.parse(frame.build())
        assert parsed.dst == frame.dst
        assert parsed.src == frame.src
        assert parsed.payload[: len(payload)] == payload
        assert set(parsed.payload[len(payload):]) <= {0}  # zero padding


class TestFourTupleProperties:
    tuples = st.builds(
        FourTuple,
        local_addr=addresses,
        local_port=ports,
        remote_addr=addresses,
        remote_port=ports,
    )

    @given(tuples)
    def test_reverse_is_involution(self, tup):
        assert tup.reversed.reversed == tup

    @given(tuples)
    def test_key_bits_round_trip(self, tup):
        bits = tup.key_bits()
        rebuilt = FourTuple(
            IPv4Address((bits >> 64) & 0xFFFFFFFF),
            (bits >> 48) & 0xFFFF,
            IPv4Address((bits >> 16) & 0xFFFFFFFF),
            bits & 0xFFFF,
        )
        assert rebuilt == tup

    @given(tuples, tuples)
    def test_key_bits_injective(self, a, b):
        if a != b:
            assert a.key_bits() != b.key_bits()


# -- fast implementations against the loop oracles (tests/packet_oracle.py)

#: Sums whose carries land on the 0 / 0xFFFF boundary.
EDGE_DATA = [
    b"", b"\x00", b"\x00" * 20, b"\xff", b"\xff" * 2, b"\xff" * 7,
    b"\xff" * 1480, b"\x00\x01", b"\xff\xfe", b"\x00\x00\x00\x01",
]
EDGE_INITIAL = [0, 1, 0xFFFE, 0xFFFF]
buffers = st.sampled_from([bytes, bytearray, memoryview])


class TestChecksumOracle:
    @given(data=st.binary(max_size=1500), initial=st.integers(0, 0xFFFF),
           wrap=buffers)
    @settings(max_examples=400)
    def test_sum_equals_word_loop(self, data, initial, wrap):
        assert ones_complement_sum(wrap(data), initial) == (
            oracle.ones_complement_sum(data, initial)
        )

    def test_edge_cases_equal_word_loop(self):
        for data in EDGE_DATA:
            for initial in EDGE_INITIAL:
                for wrap in (bytes, bytearray, memoryview):
                    assert ones_complement_sum(wrap(data), initial) == (
                        oracle.ones_complement_sum(data, initial)
                    ), (data[:4], len(data), initial, wrap)

    @given(src=addresses, dst=addresses,
           protocol=st.integers(0, 0xFF), length=st.integers(0, 0xFFFF))
    @settings(max_examples=200)
    def test_pseudo_header_sum_equals_bytes(self, src, dst, protocol, length):
        pseudo = pseudo_header(src.packed, dst.packed, protocol, length)
        assert pseudo_header_sum(src.value, dst.value, protocol, length) == (
            oracle.ones_complement_sum(pseudo)
        )


class TestCRCOracle:
    @given(st.binary(max_size=300))
    @settings(max_examples=200)
    def test_crc32_ieee_equals_table_loop(self, data):
        assert crc32_ieee(data) == oracle.crc32_ieee(data)

    @given(st.binary(max_size=300),
           st.one_of(st.sampled_from([0, 0xFFFF, 0x1D0F]),
                     st.integers(0, 0xFFFF)))
    @settings(max_examples=200)
    def test_crc16_ccitt_equals_table_loop(self, data, initial):
        assert crc16_ccitt(data, initial) == oracle.crc16_ccitt(data, initial)
        assert crc16_ccitt(data) == oracle.crc16_ccitt(data)


#: Well-formed TCP options besides MSS: NOP padding, window scale,
#: SACK-permitted, timestamps.
TCP_OPTIONS = [
    b"\x01\x01\x01\x01",
    b"\x01\x03\x03\x07",
    b"\x04\x02\x01\x01",
    b"\x01\x01\x08\x0a" + bytes(range(8)),
]

#: Options the parser rejects, or stops at: MSS of the wrong length, a
#: kind with no length byte, a length running past the header, END.
BAD_TCP_OPTIONS = [
    b"\x02\x03\x05\xb4",
    b"\x01\x01\x01\x05",
    b"\x05\x09\x00\x00",
    b"\x00\x02\x04\x05",
]


@st.composite
def wire_frames(draw):
    """An IPv4+TCP frame as built by the stack, with trailing padding."""
    src, dst = draw(addresses), draw(addresses)
    mss = draw(st.one_of(st.none(), ports))
    raw_options = b"".join(draw(st.lists(st.sampled_from(TCP_OPTIONS),
                                         max_size=2)))
    if draw(st.booleans()):
        raw_options = draw(st.one_of(st.sampled_from(BAD_TCP_OPTIONS),
                                     st.binary(min_size=4, max_size=4))
                           ) + raw_options
    segment = TCPSegment(
        src_port=draw(ports), dst_port=draw(ports),
        seq=draw(st.integers(0, 0xFFFFFFFF)),
        ack=draw(st.integers(0, 0xFFFFFFFF)),
        flags=draw(st.integers(0, 0xFF)), window=draw(ports),
        urgent_pointer=draw(ports), mss=mss, raw_options=raw_options,
        payload=draw(st.binary(max_size=600)),
    )
    tcp_bytes = segment.build(src, dst)
    header = IPv4Header(
        src=src, dst=dst, payload_length=len(tcp_bytes),
        identification=draw(ports), ttl=draw(st.integers(0, 0xFF)),
        dscp=draw(st.integers(0, 0x3F)), ecn=draw(st.integers(0, 3)),
        dont_fragment=draw(st.booleans()), more_fragments=draw(st.booleans()),
        fragment_offset=draw(st.integers(0, 0x1FFF)),
        options=draw(st.binary(max_size=40).map(lambda b: b[: len(b) // 4 * 4])),
    )
    return header.build() + tcp_bytes + draw(st.binary(max_size=8))


def _reseal(frame, ip, tcp):
    """Recompute the checksums a mutation broke, so later checks run."""
    header_len = (frame[0] & 0x0F) * 4 if frame else 0
    if len(frame) < max(header_len, 20) or header_len < 20:
        return frame
    if tcp:
        end = min(int.from_bytes(frame[2:4], "big"), len(frame))
        segment = bytearray(frame[header_len:end])
        if len(segment) >= 18:
            segment[16:18] = b"\x00\x00"
            pseudo = pseudo_header(bytes(frame[12:16]), bytes(frame[16:20]),
                                   6, len(segment))
            checksum = oracle.internet_checksum(
                segment, oracle.ones_complement_sum(pseudo))
            frame[header_len + 16 : header_len + 18] = checksum.to_bytes(2, "big")
    if ip:
        frame[10:12] = b"\x00\x00"
        checksum = oracle.internet_checksum(frame[:header_len])
        frame[10:12] = checksum.to_bytes(2, "big")
    return frame


@st.composite
def damaged_frames(draw):
    """A built frame, possibly byte-flipped, truncated or resealed."""
    frame = bytearray(draw(wire_frames()))
    for _ in range(draw(st.integers(0, 2))):
        at = draw(st.integers(0, len(frame) - 1))
        frame[at] ^= draw(st.integers(1, 0xFF))
    if draw(st.booleans()):
        # Overwrite one header word, small values more often: lengths
        # and offsets below their minimum.
        at = draw(st.integers(0, min(len(frame), 60) - 2))
        word = draw(st.one_of(st.integers(0, 64), st.integers(0, 0xFFFF)))
        frame[at : at + 2] = word.to_bytes(2, "big")
    if draw(st.booleans()):
        del frame[draw(st.integers(0, len(frame))):]
    return bytes(_reseal(frame, draw(st.booleans()), draw(st.booleans())))


def _outcome(parse, data, **kwargs):
    try:
        return parse(data, **kwargs)
    except PacketError as exc:
        return f"PacketError: {exc}"


def _frame(*words, cut=None, protocol=6):
    """A resealed 24+24+3-byte frame with 16-bit words overwritten.

    ``words`` are ``(offset, value)`` pairs; the TCP header starts at
    offset 24 and its MSS option at 44.
    """
    segment = TCPSegment(src_port=1, dst_port=2, mss=1460, payload=b"abc")
    frame = bytearray(IPv4Header(
        src=IPv4Address(1), dst=IPv4Address(2), protocol=protocol,
        payload_length=27, options=b"\x01" * 4,
    ).build() + segment.build(IPv4Address(1), IPv4Address(2)))
    for at, value in words:
        frame[at : at + 2] = value.to_bytes(2, "big")
    return bytes(_reseal(frame, True, True)[:cut])


#: One frame per parse error the random frames reach only rarely.
RARE_FRAMES = [
    ("IPv4 header truncated", _frame(cut=19)),
    ("not IPv4", _frame((0, 0x6600))),
    ("IHL too small", _frame((0, 0x4400))),
    ("IPv4 options truncated", _frame(cut=22)),
    ("total length smaller than header", _frame((2, 23))),
    ("not a TCP packet", _frame(protocol=17)),
    ("IP payload truncated", _frame(cut=50)),
    ("TCP header truncated", _frame((2, 24 + 19))),
    ("TCP data offset too small", _frame((36, 0x4010))),
    ("TCP options truncated", _frame((2, 24 + 22))),
    ("MSS option must have length 4", _frame((44, 0x0203))),
    ("TCP option missing length byte", _frame((44, 0x0101), (46, 0x0105))),
    ("TCP option kind=2 bad length 9", _frame((44, 0x0209))),
]


class TestParseOracle:
    """``parse_packet`` and the field-by-field decoders agree exactly."""

    @pytest.mark.parametrize("message, frame", RARE_FRAMES,
                             ids=[m for m, _ in RARE_FRAMES])
    def test_every_error_equals_oracle(self, message, frame):
        got = _outcome(parse_packet, frame)
        assert got.startswith(f"PacketError: {message}")
        assert got == _outcome(oracle.parse_packet, frame)

    @given(frame=damaged_frames(), verify=st.booleans(), wrap=buffers)
    @settings(max_examples=400)
    def test_parse_packet_equals_oracle(self, frame, verify, wrap):
        got = _outcome(parse_packet, wrap(frame), verify=verify)
        assert got == _outcome(oracle.parse_packet, wrap(frame), verify=verify)
        if not isinstance(got, str):
            assert type(got.ip.options) is bytes
            assert type(got.tcp.payload) is bytes
            assert type(got.tcp.raw_options) is bytes

    @given(frame=damaged_frames())
    @settings(max_examples=200)
    def test_replace_revalidates_equal(self, frame):
        # dataclasses.replace re-runs __post_init__: no check the wire
        # constructor skips could have fired on a parsed header.
        packet = _outcome(parse_packet, frame, verify=False)
        if not isinstance(packet, str):
            assert dataclasses.replace(packet.ip) == packet.ip
            assert dataclasses.replace(packet.tcp) == packet.tcp

    @given(data=st.binary(min_size=18, max_size=80), offset=st.integers(0, 15),
           src=addresses, dst=addresses, verify=st.booleans())
    @settings(max_examples=300)
    def test_tcp_parse_equals_oracle(self, data, offset, src, dst, verify):
        # Arbitrary option bytes reach every option error.
        data = bytearray(data)
        data[12] = offset << 4 | data[12] & 0x0F
        data = bytes(data)
        addrs = (src, dst) if verify else (None, None)
        assert _outcome(lambda d: TCPSegment.parse(d, *addrs), data) == (
            _outcome(lambda d: oracle.parse_tcp(d, *addrs), data)
        )
