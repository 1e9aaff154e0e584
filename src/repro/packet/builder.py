"""Convenience constructors for whole TCP/IP packets.

The workload generators and the TCP stack describe traffic in terms of
"a query segment from this client to the server" and similar; this
module turns those descriptions into fully serialized (and parseable)
IPv4+TCP byte strings, and back.
"""

from __future__ import annotations

import dataclasses
from typing import Tuple, Union

from .addresses import FourTuple, IPv4Address
from .ip import IPProto, IPv4Header, PacketError
from .tcp import TCPFlags, TCPSegment

__all__ = ["Packet", "build_packet", "parse_packet", "make_data", "make_ack"]


@dataclasses.dataclass
class Packet:
    """A parsed IPv4+TCP packet pair, with demux helpers."""

    ip: IPv4Header
    tcp: TCPSegment

    @property
    def four_tuple(self) -> FourTuple:
        """The receiver-side demux key (local = this packet's destination).

        Built by the validating :class:`FourTuple` constructor, so a
        packet whose fields were changed after parsing still raises
        :class:`AddressError` for a bad port.
        """
        ip, tcp = self.ip, self.tcp
        return FourTuple(ip.dst, tcp.dst_port, ip.src, tcp.src_port)

    @property
    def is_pure_ack(self) -> bool:
        return self.tcp.is_pure_ack

    @property
    def wire_length(self) -> int:
        return self.ip.total_length

    def build(self) -> bytes:
        """Serialize IP header and TCP segment to one byte string."""
        tcp_bytes = self.tcp.build(self.ip.src, self.ip.dst)
        self.ip.payload_length = len(tcp_bytes)
        return self.ip.build() + tcp_bytes

    def __str__(self) -> str:
        return f"{self.ip.src} -> {self.ip.dst} {self.tcp}"


def build_packet(
    src: Union[str, IPv4Address],
    dst: Union[str, IPv4Address],
    segment: TCPSegment,
    *,
    ttl: int = 64,
    identification: int = 0,
) -> bytes:
    """Serialize one TCP segment inside an IPv4 header."""
    src = IPv4Address(src)
    dst = IPv4Address(dst)
    tcp_bytes = segment.build(src, dst)
    header = IPv4Header(
        src=src,
        dst=dst,
        protocol=IPProto.TCP,
        payload_length=len(tcp_bytes),
        ttl=ttl,
        identification=identification,
    )
    return header.build() + tcp_bytes


def parse_packet(data: bytes, *, verify: bool = True) -> Packet:
    """Parse bytes into a :class:`Packet`, checking both checksums.

    ``verify=False`` skips the TCP checksum (the IP header checksum is
    always verified since parsing depends on the header being sane).
    """
    ip_header = IPv4Header.parse(data)
    if ip_header.protocol != IPProto.TCP:
        raise PacketError(f"not a TCP packet (protocol={ip_header.protocol})")
    start = ip_header.header_length
    end = ip_header.total_length
    if len(data) < end:
        raise PacketError("IP payload truncated")
    tcp_bytes = data[start:end]
    if verify:
        segment = TCPSegment.parse(tcp_bytes, ip_header.src, ip_header.dst)
    else:
        segment = TCPSegment.parse(tcp_bytes)
    return Packet(ip=ip_header, tcp=segment)


def make_data(
    tup: FourTuple,
    payload: bytes,
    *,
    seq: int = 0,
    ack: int = 0,
    push: bool = True,
) -> Packet:
    """A data segment travelling *toward* ``tup``'s local endpoint.

    ``tup`` is the receiver-side key, so the packet's source is the
    tuple's remote side and its destination the local side.
    """
    flags = TCPFlags.ACK | (TCPFlags.PSH if push else 0)
    segment = TCPSegment(
        src_port=tup.remote_port,
        dst_port=tup.local_port,
        seq=seq,
        ack=ack,
        flags=flags,
        payload=payload,
    )
    header = IPv4Header(src=tup.remote_addr, dst=tup.local_addr)
    return Packet(ip=header, tcp=segment)


def make_ack(tup: FourTuple, *, seq: int = 0, ack: int = 0) -> Packet:
    """A pure transport-level acknowledgement toward ``tup``'s local side."""
    segment = TCPSegment(
        src_port=tup.remote_port,
        dst_port=tup.local_port,
        seq=seq,
        ack=ack,
        flags=TCPFlags.ACK,
    )
    header = IPv4Header(src=tup.remote_addr, dst=tup.local_addr)
    return Packet(ip=header, tcp=segment)


def split_payload(payload: bytes, mss: int) -> Tuple[bytes, ...]:
    """Split ``payload`` into MSS-sized chunks (the packet-train shape)."""
    if mss <= 0:
        raise PacketError(f"mss must be positive, got {mss}")
    return tuple(payload[i : i + mss] for i in range(0, len(payload), mss)) or (b"",)
