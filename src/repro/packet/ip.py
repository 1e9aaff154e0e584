"""IPv4 header construction and parsing.

The demultiplexing algorithms studied by the paper key off the IP source
and destination addresses (plus the TCP ports), so the substrate carries
real IPv4 headers: 20-byte base header, options, header checksum, the
usual flag and fragment fields.  Fragmentation/reassembly itself is out
of scope -- the OLTP packets the paper models are far below any MTU --
but headers round-trip byte-exactly and checksums verify, which the
property tests rely on.
"""

from __future__ import annotations

import dataclasses
import struct
from typing import Optional, Union

from .addresses import IPv4Address
from .checksum import internet_checksum, verify_checksum

__all__ = ["IPProto", "PacketError", "IPv4Header", "IPV4_MIN_HEADER_LEN"]

#: Length of an option-less IPv4 header.
IPV4_MIN_HEADER_LEN = 20

_MAX_TOTAL_LENGTH = 0xFFFF


class IPProto:
    """IANA protocol numbers this substrate knows about."""

    ICMP = 1
    TCP = 6
    UDP = 17


class PacketError(ValueError):
    """Raised when a header cannot be built or parsed."""


@dataclasses.dataclass
class IPv4Header:
    """A parsed or to-be-built IPv4 header.

    Attributes mirror RFC 791 fields.  ``header_checksum`` of ``None``
    means "compute on serialization"; after :meth:`parse` it holds the
    on-the-wire value.
    """

    src: IPv4Address
    dst: IPv4Address
    protocol: int = IPProto.TCP
    payload_length: int = 0
    identification: int = 0
    ttl: int = 64
    dscp: int = 0
    ecn: int = 0
    dont_fragment: bool = True
    more_fragments: bool = False
    fragment_offset: int = 0
    options: bytes = b""
    header_checksum: Optional[int] = None

    def __post_init__(self) -> None:
        self.src = IPv4Address(self.src)
        self.dst = IPv4Address(self.dst)
        if not 0 <= self.protocol <= 0xFF:
            raise PacketError(f"protocol out of range: {self.protocol}")
        if not 0 <= self.ttl <= 0xFF:
            raise PacketError(f"ttl out of range: {self.ttl}")
        if not 0 <= self.identification <= 0xFFFF:
            raise PacketError(f"identification out of range: {self.identification}")
        if not 0 <= self.dscp <= 0x3F:
            raise PacketError(f"dscp out of range: {self.dscp}")
        if not 0 <= self.ecn <= 0x3:
            raise PacketError(f"ecn out of range: {self.ecn}")
        if not 0 <= self.fragment_offset < 0x2000:
            raise PacketError(f"fragment offset out of range: {self.fragment_offset}")
        if len(self.options) % 4:
            raise PacketError("IPv4 options must be padded to a 4-byte multiple")
        if len(self.options) > 40:
            raise PacketError("IPv4 options exceed 40 bytes")
        if self.payload_length < 0:
            raise PacketError("payload_length must be non-negative")
        if self.header_length + self.payload_length > _MAX_TOTAL_LENGTH:
            raise PacketError("total length exceeds 65535")

    @property
    def header_length(self) -> int:
        """Header length in bytes (20 + options)."""
        return IPV4_MIN_HEADER_LEN + len(self.options)

    @property
    def ihl(self) -> int:
        """Header length in 32-bit words, as carried on the wire."""
        return self.header_length // 4

    @property
    def total_length(self) -> int:
        """The on-wire total-length field: header plus payload."""
        return self.header_length + self.payload_length

    def build(self) -> bytes:
        """Serialize to wire format, computing the header checksum."""
        ver_ihl = (4 << 4) | self.ihl
        tos = (self.dscp << 2) | self.ecn
        flags = (int(self.dont_fragment) << 1) | int(self.more_fragments)
        flags_frag = (flags << 13) | self.fragment_offset
        head = bytearray()
        head.append(ver_ihl)
        head.append(tos)
        head += self.total_length.to_bytes(2, "big")
        head += self.identification.to_bytes(2, "big")
        head += flags_frag.to_bytes(2, "big")
        head.append(self.ttl)
        head.append(self.protocol)
        head += b"\x00\x00"  # checksum placeholder
        head += self.src.packed
        head += self.dst.packed
        head += self.options
        checksum = internet_checksum(bytes(head))
        head[10:12] = checksum.to_bytes(2, "big")
        self.header_checksum = checksum
        return bytes(head)

    @classmethod
    def parse(cls, data: Union[bytes, bytearray, memoryview]) -> "IPv4Header":
        """Parse a header from the start of ``data``.

        Raises :class:`PacketError` on truncation, version mismatch, or a
        bad header checksum.  ``data`` may extend beyond the header; use
        :attr:`header_length` to find the payload.
        """
        data = bytes(data)
        if len(data) < IPV4_MIN_HEADER_LEN:
            raise PacketError(f"IPv4 header truncated: {len(data)} bytes")
        (ver_ihl, tos, total_length, identification, flags_frag, ttl,
         protocol, checksum, src, dst) = _WIRE.unpack_from(data)
        version = ver_ihl >> 4
        if version != 4:
            raise PacketError(f"not IPv4 (version={version})")
        ihl = ver_ihl & 0x0F
        header_len = ihl * 4
        if header_len < IPV4_MIN_HEADER_LEN:
            raise PacketError(f"IHL too small: {ihl}")
        if len(data) < header_len:
            raise PacketError("IPv4 options truncated")
        if not verify_checksum(data[:header_len]):
            raise PacketError("IPv4 header checksum mismatch")
        if total_length < header_len:
            raise PacketError("total length smaller than header")
        return cls._from_wire(
            IPv4Address._from_wire(src),
            IPv4Address._from_wire(dst),
            protocol,
            total_length - header_len,
            identification,
            ttl,
            tos >> 2,
            tos & 0x3,
            bool(flags_frag & 0x4000),
            bool(flags_frag & 0x2000),
            flags_frag & 0x1FFF,
            data[IPV4_MIN_HEADER_LEN:header_len],
            checksum,
        )

    @classmethod
    def _from_wire(
        cls, src, dst, protocol, payload_length, identification, ttl, dscp,
        ecn, dont_fragment, more_fragments, fragment_offset, options,
        header_checksum,
    ) -> "IPv4Header":
        """Build from decoded wire fields without :meth:`__post_init__`.

        Its checks cannot fire once :meth:`parse` has passed: every
        field is an unsigned integer of its wire width (the addresses
        are wrapped by :meth:`IPv4Address._from_wire`), IHL <= 15 bounds
        the options to 40 bytes in whole words, and the total length is
        at least the header length and at most 0xFFFF.
        """
        header = cls.__new__(cls)
        header.src = src
        header.dst = dst
        header.protocol = protocol
        header.payload_length = payload_length
        header.identification = identification
        header.ttl = ttl
        header.dscp = dscp
        header.ecn = ecn
        header.dont_fragment = dont_fragment
        header.more_fragments = more_fragments
        header.fragment_offset = fragment_offset
        header.options = options
        header.header_checksum = header_checksum
        return header


#: The fixed 20-byte header: version/IHL, TOS, total length,
#: identification, flags/fragment offset, TTL, protocol, checksum,
#: source, destination.
_WIRE = struct.Struct("!BBHHHBBHII")
