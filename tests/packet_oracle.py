"""Reference implementations the packet layer is checked against.

These are the straightforward byte- and word-at-a-time versions: the
RFC 1071 sum as a loop over 16-bit words, the CRCs as table loops, and
the IPv4/TCP decoders that slice each field out separately and build
the headers through their validating constructors.  ``src/`` computes
the same results with ``int.from_bytes``, ``struct`` and the stdlib
CRCs; the property tests require equal results, and equal error
messages, on every input.
"""

from __future__ import annotations

from repro.packet.addresses import IPv4Address
from repro.packet.builder import Packet
from repro.packet.checksum import pseudo_header
from repro.packet.ip import IPV4_MIN_HEADER_LEN, IPProto, IPv4Header, PacketError
from repro.packet.tcp import TCP_MIN_HEADER_LEN, TCPSegment


def ones_complement_sum(data, initial=0):
    """One's-complement sum of ``data`` as big-endian 16-bit words."""
    if initial < 0 or initial > 0xFFFF:
        raise ValueError(f"initial sum out of 16-bit range: {initial}")
    total = initial
    length = len(data)
    for i in range(0, length - 1, 2):
        total += (data[i] << 8) | data[i + 1]
    if length % 2:
        total += data[-1] << 8
    while total > 0xFFFF:
        total = (total & 0xFFFF) + (total >> 16)
    return total


def internet_checksum(data, initial=0):
    return (~ones_complement_sum(data, initial)) & 0xFFFF


def _crc_table(step):
    return tuple(step(byte) for byte in range(256))


def _crc32_step(value):
    for _ in range(8):
        value = (value >> 1) ^ 0xEDB88320 if value & 1 else value >> 1
    return value


def _crc16_step(byte):
    crc = byte << 8
    for _ in range(8):
        crc = ((crc << 1) ^ 0x1021) & 0xFFFF if crc & 0x8000 else (crc << 1) & 0xFFFF
    return crc


_CRC32_TABLE = _crc_table(_crc32_step)
_CRC16_TABLE = _crc_table(_crc16_step)


def crc32_ieee(data):
    """IEEE 802.3 CRC-32 (reflected), one table step per byte."""
    crc = 0xFFFFFFFF
    for byte in data:
        crc = (crc >> 8) ^ _CRC32_TABLE[(crc ^ byte) & 0xFF]
    return crc ^ 0xFFFFFFFF


def crc16_ccitt(data, initial=0xFFFF):
    """CRC-16/CCITT over ``data``, one table step per byte."""
    crc = initial
    for byte in data:
        crc = ((crc << 8) & 0xFFFF) ^ _CRC16_TABLE[((crc >> 8) ^ byte) & 0xFF]
    return crc


def parse_ip(data):
    """Decode an IPv4 header field by field (see ``IPv4Header.parse``)."""
    data = bytes(data)
    if len(data) < IPV4_MIN_HEADER_LEN:
        raise PacketError(f"IPv4 header truncated: {len(data)} bytes")
    version = data[0] >> 4
    if version != 4:
        raise PacketError(f"not IPv4 (version={version})")
    ihl = data[0] & 0x0F
    header_len = ihl * 4
    if header_len < IPV4_MIN_HEADER_LEN:
        raise PacketError(f"IHL too small: {ihl}")
    if len(data) < header_len:
        raise PacketError("IPv4 options truncated")
    if ones_complement_sum(data[:header_len]) != 0xFFFF:
        raise PacketError("IPv4 header checksum mismatch")
    tos = data[1]
    total_length = int.from_bytes(data[2:4], "big")
    if total_length < header_len:
        raise PacketError("total length smaller than header")
    flags_frag = int.from_bytes(data[6:8], "big")
    return IPv4Header(
        src=IPv4Address(data[12:16]),
        dst=IPv4Address(data[16:20]),
        protocol=data[9],
        payload_length=total_length - header_len,
        identification=int.from_bytes(data[4:6], "big"),
        ttl=data[8],
        dscp=tos >> 2,
        ecn=tos & 0x3,
        dont_fragment=bool(flags_frag & 0x4000),
        more_fragments=bool(flags_frag & 0x2000),
        fragment_offset=flags_frag & 0x1FFF,
        options=data[IPV4_MIN_HEADER_LEN:header_len],
        header_checksum=int.from_bytes(data[10:12], "big"),
    )


def parse_tcp(data, src=None, dst=None):
    """Decode a TCP segment field by field (see ``TCPSegment.parse``).

    The option walk is ``TCPSegment._parse_options`` itself, which the
    fast decoder shares unchanged.
    """
    data = bytes(data)
    if len(data) < TCP_MIN_HEADER_LEN:
        raise PacketError(f"TCP header truncated: {len(data)} bytes")
    data_offset = data[12] >> 4
    header_len = data_offset * 4
    if header_len < TCP_MIN_HEADER_LEN:
        raise PacketError(f"TCP data offset too small: {data_offset}")
    if len(data) < header_len:
        raise PacketError("TCP options truncated")
    if src is not None and dst is not None:
        pseudo = pseudo_header(src.packed, dst.packed, IPProto.TCP, len(data))
        if internet_checksum(data, ones_complement_sum(pseudo)) != 0:
            raise PacketError("TCP checksum mismatch")
    mss, raw_options = TCPSegment._parse_options(data[TCP_MIN_HEADER_LEN:header_len])
    return TCPSegment(
        src_port=int.from_bytes(data[0:2], "big"),
        dst_port=int.from_bytes(data[2:4], "big"),
        seq=int.from_bytes(data[4:8], "big"),
        ack=int.from_bytes(data[8:12], "big"),
        flags=data[13],
        window=int.from_bytes(data[14:16], "big"),
        urgent_pointer=int.from_bytes(data[18:20], "big"),
        payload=data[header_len:],
        mss=mss,
        raw_options=raw_options,
        checksum=int.from_bytes(data[16:18], "big"),
    )


def parse_packet(data, *, verify=True):
    """Decode IPv4 then TCP, with the checks of ``parse_packet``."""
    ip_header = parse_ip(data)
    if ip_header.protocol != IPProto.TCP:
        raise PacketError(f"not a TCP packet (protocol={ip_header.protocol})")
    start = ip_header.header_length
    end = ip_header.total_length
    if len(data) < end:
        raise PacketError("IP payload truncated")
    tcp_bytes = data[start:end]
    if verify:
        segment = parse_tcp(tcp_bytes, ip_header.src, ip_header.dst)
    else:
        segment = parse_tcp(tcp_bytes)
    return Packet(ip=ip_header, tcp=segment)
