"""CRC-16 and CRC-32C over demultiplexing keys.

Jain's study of hashing schemes for address lookup [Jai89] found CRC
based hashes to distribute real network addresses essentially as well
as a random function; the paper cites it when asserting that "efficient
hash functions for protocol addresses are well known" (Section 3.5).
These CRCs feed :mod:`repro.hashing.functions`.  CRC-16/CCITT is the
stdlib's ``binascii.crc_hqx``; the stdlib has no CRC-32C, so that one
is table-driven.
"""

from __future__ import annotations

import binascii

__all__ = ["crc16_ccitt", "crc32c", "CRC16_CCITT_POLY", "CRC32C_POLY"]

#: CCITT polynomial x^16 + x^12 + x^5 + 1 (non-reflected form).
CRC16_CCITT_POLY = 0x1021

#: Castagnoli polynomial (reflected form), as used by iSCSI/SCTP.
CRC32C_POLY = 0x82F63B78


def _build_crc32c_table(poly: int):
    table = []
    for byte in range(256):
        crc = byte
        for _ in range(8):
            if crc & 1:
                crc = (crc >> 1) ^ poly
            else:
                crc >>= 1
        table.append(crc)
    return tuple(table)


_CRC32C_TABLE = _build_crc32c_table(CRC32C_POLY)


def crc16_ccitt(data: bytes, initial: int = 0xFFFF) -> int:
    """CRC-16/CCITT-FALSE over ``data`` (``binascii.crc_hqx`` computes it)."""
    return binascii.crc_hqx(data, initial)


def crc32c(data: bytes, initial: int = 0xFFFFFFFF) -> int:
    """CRC-32C (Castagnoli) over ``data``."""
    crc = initial
    for byte in data:
        crc = (crc >> 8) ^ _CRC32C_TABLE[(crc ^ byte) & 0xFF]
    return crc ^ 0xFFFFFFFF
