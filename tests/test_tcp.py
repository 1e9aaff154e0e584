"""Tests for TCP segment build/parse."""

import pytest

from repro.packet.addresses import FourTuple, IPv4Address
from repro.packet.ip import PacketError
from repro.packet.tcp import TCP_MIN_HEADER_LEN, TCPFlags, TCPSegment

SRC = IPv4Address("10.0.0.1")
DST = IPv4Address("10.0.0.2")


def make_segment(**overrides):
    defaults = dict(src_port=40000, dst_port=80, seq=1000, ack=2000,
                    flags=TCPFlags.ACK, payload=b"hello")
    defaults.update(overrides)
    return TCPSegment(**defaults)


class TestFlags:
    def test_describe(self):
        assert TCPFlags.describe(TCPFlags.SYN | TCPFlags.ACK) == "ACK|SYN"
        assert TCPFlags.describe(0) == "none"

    def test_flag_predicates(self):
        seg = make_segment(flags=TCPFlags.SYN | TCPFlags.ACK, payload=b"")
        assert seg.is_syn and seg.is_ack
        assert not seg.is_fin and not seg.is_rst

    def test_pure_ack_definition(self):
        assert make_segment(flags=TCPFlags.ACK, payload=b"").is_pure_ack
        # Data, SYN, FIN, or RST disqualify.
        assert not make_segment(flags=TCPFlags.ACK, payload=b"x").is_pure_ack
        assert not make_segment(
            flags=TCPFlags.ACK | TCPFlags.SYN, payload=b""
        ).is_pure_ack
        assert not make_segment(
            flags=TCPFlags.ACK | TCPFlags.FIN, payload=b""
        ).is_pure_ack
        assert not make_segment(flags=0, payload=b"").is_pure_ack

    def test_segment_length_counts_syn_fin(self):
        assert make_segment(payload=b"abc", flags=0).segment_length == 3
        assert make_segment(payload=b"", flags=TCPFlags.SYN).segment_length == 1
        assert (
            make_segment(
                payload=b"ab", flags=TCPFlags.SYN | TCPFlags.FIN
            ).segment_length
            == 4
        )


class TestValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(src_port=-1),
            dict(dst_port=0x10000),
            dict(seq=1 << 32),
            dict(ack=-1),
            dict(flags=256),
            dict(window=0x10000),
            dict(urgent_pointer=-1),
            dict(mss=0x10000),
            dict(raw_options=b"\x01\x01\x01"),
        ],
    )
    def test_rejects_bad_fields(self, kwargs):
        with pytest.raises(PacketError):
            make_segment(**kwargs)


class TestBuild:
    def test_minimum_header_length(self):
        seg = make_segment(payload=b"")
        wire = seg.build(SRC, DST)
        assert len(wire) == TCP_MIN_HEADER_LEN

    def test_data_offset_with_mss_option(self):
        seg = make_segment(mss=1460, payload=b"")
        wire = seg.build(SRC, DST)
        assert len(wire) == 24
        assert wire[12] >> 4 == 6

    def test_ports_on_wire(self):
        wire = make_segment().build(SRC, DST)
        assert int.from_bytes(wire[0:2], "big") == 40000
        assert int.from_bytes(wire[2:4], "big") == 80

    def test_checksum_stored(self):
        seg = make_segment()
        wire = seg.build(SRC, DST)
        assert seg.checksum == int.from_bytes(wire[16:18], "big")


class TestParse:
    def test_round_trip_basic(self):
        original = make_segment(window=4096, urgent_pointer=7,
                                flags=TCPFlags.ACK | TCPFlags.URG)
        parsed = TCPSegment.parse(original.build(SRC, DST), SRC, DST)
        assert parsed.src_port == original.src_port
        assert parsed.dst_port == original.dst_port
        assert parsed.seq == original.seq
        assert parsed.ack == original.ack
        assert parsed.flags == original.flags
        assert parsed.window == 4096
        assert parsed.urgent_pointer == 7
        assert parsed.payload == b"hello"

    def test_round_trip_mss(self):
        original = make_segment(flags=TCPFlags.SYN, payload=b"", mss=1460)
        parsed = TCPSegment.parse(original.build(SRC, DST), SRC, DST)
        assert parsed.mss == 1460

    def test_round_trip_unknown_option_preserved(self):
        # A fabricated 4-byte option (kind=99, len=4).
        original = make_segment(payload=b"", raw_options=b"\x63\x04\xab\xcd")
        parsed = TCPSegment.parse(original.build(SRC, DST), SRC, DST)
        assert parsed.raw_options == b"\x63\x04\xab\xcd"

    def test_checksum_verified_with_addresses(self):
        wire = bytearray(make_segment().build(SRC, DST))
        wire[22] ^= 0x01  # corrupt payload
        with pytest.raises(PacketError, match="checksum"):
            TCPSegment.parse(bytes(wire), SRC, DST)

    def test_checksum_skipped_without_addresses(self):
        wire = bytearray(make_segment().build(SRC, DST))
        wire[22] ^= 0x01
        parsed = TCPSegment.parse(bytes(wire))  # no addresses: no verify
        assert parsed.src_port == 40000

    @pytest.mark.parametrize("src, dst", [(SRC, None), (None, DST)])
    def test_one_address_is_a_type_error(self, src, dst):
        # A corrupt segment with one address must not pass unverified,
        # and the error must not be a PacketError that a stack drops.
        wire = bytearray(make_segment().build(SRC, DST))
        wire[22] ^= 0x01
        with pytest.raises(TypeError, match="both src and dst"):
            TCPSegment.parse(bytes(wire), src, dst)

    def test_checksum_depends_on_pseudo_header(self):
        wire = make_segment().build(SRC, DST)
        other = IPv4Address("10.0.0.3")
        with pytest.raises(PacketError, match="checksum"):
            TCPSegment.parse(wire, SRC, other)

    def test_truncated_rejected(self):
        with pytest.raises(PacketError, match="truncated"):
            TCPSegment.parse(b"\x00" * 19)

    def test_bad_data_offset_rejected(self):
        wire = bytearray(make_segment(payload=b"").build(SRC, DST))
        wire[12] = 4 << 4  # 16-byte header claim
        with pytest.raises(PacketError, match="offset"):
            TCPSegment.parse(bytes(wire))

    def test_malformed_option_rejected(self):
        # Option kind=2 claiming length past the buffer.
        wire = bytearray(make_segment(payload=b"", mss=1460).build(SRC, DST))
        wire[21] = 40  # MSS option length byte -> overruns
        with pytest.raises(PacketError):
            TCPSegment.parse(bytes(wire))


class TestDemuxKey:
    def test_four_tuple_local_is_destination(self):
        seg = make_segment()
        tup = seg.four_tuple(SRC, DST)
        assert tup == FourTuple(DST, 80, SRC, 40000)

    def test_str_mentions_flags_and_ports(self):
        text = str(make_segment(flags=TCPFlags.SYN))
        assert "SYN" in text and "40000->80" in text
