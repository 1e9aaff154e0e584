"""TCP/IP packet substrate: addresses, headers, checksums, framing.

Everything the demultiplexing layer consumes -- 96-bit four-tuples,
IPv4 and TCP headers that build/parse byte-exactly, Ethernet framing --
lives here.  See :mod:`repro.packet.addresses` for the demux key.
"""

from .addresses import MAX_PORT, AddressError, FourTuple, IPv4Address, ip
from .builder import Packet, build_packet, make_ack, make_data, parse_packet
from .checksum import (
    incremental_update,
    internet_checksum,
    ones_complement_sum,
    pseudo_header,
    pseudo_header_sum,
    verify_checksum,
)
from .ethernet import EthernetFrame, EtherType, MACAddress, crc32_ieee
from .ip import IPV4_MIN_HEADER_LEN, IPProto, IPv4Header, PacketError
from .tcp import TCP_MIN_HEADER_LEN, TCPFlags, TCPSegment

__all__ = [
    "AddressError",
    "EthernetFrame",
    "EtherType",
    "FourTuple",
    "IPProto",
    "IPv4Address",
    "IPv4Header",
    "IPV4_MIN_HEADER_LEN",
    "MACAddress",
    "MAX_PORT",
    "Packet",
    "PacketError",
    "TCPFlags",
    "TCPSegment",
    "TCP_MIN_HEADER_LEN",
    "build_packet",
    "crc32_ieee",
    "incremental_update",
    "internet_checksum",
    "ip",
    "make_ack",
    "make_data",
    "ones_complement_sum",
    "parse_packet",
    "pseudo_header",
    "pseudo_header_sum",
    "verify_checksum",
]
