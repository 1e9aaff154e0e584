"""TCP segment construction and parsing.

Carries the fields the demultiplexing layer and the minimal TCP state
machine need: ports, sequence/ack numbers, flags, window, checksum
(computed over the IPv4 pseudo-header per RFC 793), and options
(MSS is the only one interpreted; others round-trip opaquely).
"""

from __future__ import annotations

import dataclasses
import struct
from typing import Optional, Union

from .addresses import MAX_PORT, FourTuple, IPv4Address
from .checksum import internet_checksum, pseudo_header_sum, verify_checksum
from .ip import IPProto, PacketError

__all__ = ["TCPFlags", "TCPSegment", "TCP_MIN_HEADER_LEN"]

#: Length of an option-less TCP header.
TCP_MIN_HEADER_LEN = 20


class TCPFlags:
    """TCP flag bits, combinable with ``|``."""

    FIN = 0x01
    SYN = 0x02
    RST = 0x04
    PSH = 0x08
    ACK = 0x10
    URG = 0x20
    ECE = 0x40
    CWR = 0x80

    _NAMES = (
        (0x80, "CWR"),
        (0x40, "ECE"),
        (0x20, "URG"),
        (0x10, "ACK"),
        (0x08, "PSH"),
        (0x04, "RST"),
        (0x02, "SYN"),
        (0x01, "FIN"),
    )

    @classmethod
    def describe(cls, flags: int) -> str:
        """Human-readable flag string, e.g. ``"SYN|ACK"``."""
        names = [name for bit, name in cls._NAMES if flags & bit]
        return "|".join(names) if names else "none"


_OPT_END = 0
_OPT_NOP = 1
_OPT_MSS = 2


@dataclasses.dataclass
class TCPSegment:
    """A TCP segment (header plus payload).

    ``checksum`` of ``None`` means "compute on build"; after
    :meth:`parse` it holds the on-the-wire value (already verified).
    """

    src_port: int
    dst_port: int
    seq: int = 0
    ack: int = 0
    flags: int = 0
    window: int = 65535
    urgent_pointer: int = 0
    payload: bytes = b""
    mss: Optional[int] = None
    raw_options: bytes = b""
    checksum: Optional[int] = None

    def __post_init__(self) -> None:
        for label, port in (("src", self.src_port), ("dst", self.dst_port)):
            if not 0 <= port <= MAX_PORT:
                raise PacketError(f"{label} port out of range: {port}")
        for label, value in (("seq", self.seq), ("ack", self.ack)):
            if not 0 <= value <= 0xFFFFFFFF:
                raise PacketError(f"{label} out of range: {value}")
        if not 0 <= self.flags <= 0xFF:
            raise PacketError(f"flags out of range: {self.flags}")
        if not 0 <= self.window <= 0xFFFF:
            raise PacketError(f"window out of range: {self.window}")
        if not 0 <= self.urgent_pointer <= 0xFFFF:
            raise PacketError(f"urgent pointer out of range: {self.urgent_pointer}")
        if self.mss is not None and not 0 <= self.mss <= 0xFFFF:
            raise PacketError(f"mss out of range: {self.mss}")
        if len(self.raw_options) % 4:
            raise PacketError("raw TCP options must be padded to 4-byte multiple")
        if self._options_length() > 40:
            raise PacketError("TCP options exceed 40 bytes")

    # -- flag conveniences -------------------------------------------------

    @property
    def is_syn(self) -> bool:
        return bool(self.flags & TCPFlags.SYN)

    @property
    def is_ack(self) -> bool:
        return bool(self.flags & TCPFlags.ACK)

    @property
    def is_fin(self) -> bool:
        return bool(self.flags & TCPFlags.FIN)

    @property
    def is_rst(self) -> bool:
        return bool(self.flags & TCPFlags.RST)

    @property
    def is_pure_ack(self) -> bool:
        """An ACK carrying no data and no SYN/FIN/RST.

        This is the paper's "transport-level acknowledgement" packet
        class; the Partridge/Pink analysis treats it differently from
        data packets (send-side cache examined first, Section 3.3.3).
        """
        return (
            self.is_ack
            and not self.payload
            and not self.flags & (TCPFlags.SYN | TCPFlags.FIN | TCPFlags.RST)
        )

    @property
    def segment_length(self) -> int:
        """Sequence space consumed: payload bytes plus SYN/FIN."""
        return len(self.payload) + int(self.is_syn) + int(self.is_fin)

    # -- wire format -------------------------------------------------------

    def _options_length(self) -> int:
        length = len(self.raw_options)
        if self.mss is not None:
            length += 4
        return length

    @property
    def header_length(self) -> int:
        """Header length in bytes, options included."""
        return TCP_MIN_HEADER_LEN + self._options_length()

    @property
    def data_offset(self) -> int:
        """Header length in 32-bit words, as carried on the wire."""
        return self.header_length // 4

    def _options_bytes(self) -> bytes:
        opts = bytearray()
        if self.mss is not None:
            opts += bytes((_OPT_MSS, 4)) + self.mss.to_bytes(2, "big")
        opts += self.raw_options
        return bytes(opts)

    def build(self, src: IPv4Address, dst: IPv4Address) -> bytes:
        """Serialize, computing the checksum over the pseudo-header.

        ``src``/``dst`` are the IP addresses this segment will travel
        between -- TCP's checksum covers them even though they live in
        the IP header.
        """
        head = bytearray()
        head += self.src_port.to_bytes(2, "big")
        head += self.dst_port.to_bytes(2, "big")
        head += self.seq.to_bytes(4, "big")
        head += self.ack.to_bytes(4, "big")
        head += bytes(((self.data_offset << 4), self.flags))
        head += self.window.to_bytes(2, "big")
        head += b"\x00\x00"  # checksum placeholder
        head += self.urgent_pointer.to_bytes(2, "big")
        head += self._options_bytes()
        segment = bytes(head) + self.payload
        pseudo = pseudo_header_sum(src.value, dst.value, IPProto.TCP, len(segment))
        checksum = internet_checksum(segment, pseudo)
        head[16:18] = checksum.to_bytes(2, "big")
        self.checksum = checksum
        return bytes(head) + self.payload

    @classmethod
    def parse(
        cls,
        data: Union[bytes, bytearray, memoryview],
        src: Optional[IPv4Address] = None,
        dst: Optional[IPv4Address] = None,
    ) -> "TCPSegment":
        """Parse a segment; verify the checksum when ``src``/``dst`` given.

        Raises :class:`PacketError` on truncation or checksum mismatch,
        and :class:`TypeError` if only one of ``src``/``dst`` is given
        (the checksum needs both, and skipping it silently would accept
        a corrupt segment).
        """
        if (src is None) != (dst is None):
            raise TypeError("TCPSegment.parse needs both src and dst, or neither")
        data = bytes(data)
        if len(data) < TCP_MIN_HEADER_LEN:
            raise PacketError(f"TCP header truncated: {len(data)} bytes")
        (src_port, dst_port, seq, ack, offset_byte, flags, window, checksum,
         urgent_pointer) = _WIRE.unpack_from(data)
        data_offset = offset_byte >> 4
        header_len = data_offset * 4
        if header_len < TCP_MIN_HEADER_LEN:
            raise PacketError(f"TCP data offset too small: {data_offset}")
        if len(data) < header_len:
            raise PacketError("TCP options truncated")
        if src is not None and not verify_checksum(
            data, pseudo_header_sum(src.value, dst.value, IPProto.TCP, len(data))
        ):
            raise PacketError("TCP checksum mismatch")
        if header_len > TCP_MIN_HEADER_LEN:
            mss, raw_options = cls._parse_options(data[TCP_MIN_HEADER_LEN:header_len])
        else:
            mss, raw_options = None, b""
        return cls._from_wire(
            src_port,
            dst_port,
            seq,
            ack,
            flags,
            window,
            urgent_pointer,
            data[header_len:],
            mss,
            raw_options,
            checksum,
        )

    @classmethod
    def _from_wire(
        cls, src_port, dst_port, seq, ack, flags, window, urgent_pointer,
        payload, mss, raw_options, checksum,
    ) -> "TCPSegment":
        """Build from decoded wire fields without :meth:`__post_init__`.

        Its checks cannot fire once :meth:`parse` has passed: every
        field is an unsigned integer of its wire width, and a data
        offset <= 15 bounds the options, re-padded or not, to 40 bytes.
        """
        segment = cls.__new__(cls)
        segment.src_port = src_port
        segment.dst_port = dst_port
        segment.seq = seq
        segment.ack = ack
        segment.flags = flags
        segment.window = window
        segment.urgent_pointer = urgent_pointer
        segment.payload = payload
        segment.mss = mss
        segment.raw_options = raw_options
        segment.checksum = checksum
        return segment

    @staticmethod
    def _parse_options(raw: bytes):
        """Extract MSS; return other options re-padded to 4-byte multiple."""
        mss = None
        others = bytearray()
        i = 0
        while i < len(raw):
            kind = raw[i]
            if kind == _OPT_END:
                break
            if kind == _OPT_NOP:
                i += 1
                continue
            if i + 1 >= len(raw):
                raise PacketError("TCP option missing length byte")
            length = raw[i + 1]
            if length < 2 or i + length > len(raw):
                raise PacketError(f"TCP option kind={kind} bad length {length}")
            if kind == _OPT_MSS:
                if length != 4:
                    raise PacketError("MSS option must have length 4")
                mss = int.from_bytes(raw[i + 2 : i + 4], "big")
            else:
                others += raw[i : i + length]
            i += length
        while len(others) % 4:
            others.append(_OPT_NOP)
        return mss, bytes(others)

    # -- demultiplexing ----------------------------------------------------

    def four_tuple(self, src: IPv4Address, dst: IPv4Address) -> FourTuple:
        """The receiver-side demux key for this inbound segment.

        The receiving host's "local" side is this segment's destination.
        """
        return FourTuple(dst, self.dst_port, src, self.src_port)

    def __str__(self) -> str:
        return (
            f"TCP {self.src_port}->{self.dst_port}"
            f" [{TCPFlags.describe(self.flags)}]"
            f" seq={self.seq} ack={self.ack} len={len(self.payload)}"
        )


#: The fixed 20-byte header: ports, sequence and acknowledgement
#: numbers, data offset, flags, window, checksum, urgent pointer.
_WIRE = struct.Struct("!HHIIBBHHH")
