"""CRC-16 and CRC-32C over demultiplexing keys.

Jain's study of hashing schemes for address lookup [Jai89] found CRC
based hashes to distribute real network addresses essentially as well
as a random function; the paper cites it when asserting that "efficient
hash functions for protocol addresses are well known" (Section 3.5).
These CRCs feed :mod:`repro.hashing.functions`.  CRC-16/CCITT is the
stdlib's ``binascii.crc_hqx``; the stdlib has no CRC-32C, so that one
is table-driven, with a fixed-width form for the 12-byte key.
"""

from __future__ import annotations

import binascii

__all__ = ["crc16_ccitt", "crc32c", "crc32c_key", "CRC16_CCITT_POLY", "CRC32C_POLY"]

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


#: Bytes in the packed demultiplexing key.
_KEY_BYTES = 12


def _build_key_tables():
    """Per-position tables for :func:`crc32c_key`, and its constant.

    A CRC step is linear over GF(2) in the register and the byte, so
    the CRC of a fixed-length message is a constant (the initial
    register, and the final XOR, carried through every step) XORed
    with one term per byte, each depending only on that byte and its
    position: the byte's table entry carried through the zero bytes
    that follow it.
    """
    def zero_byte(crc: int) -> int:
        return (crc >> 8) ^ _CRC32C_TABLE[crc & 0xFF]

    tables = [_CRC32C_TABLE]
    for _ in range(_KEY_BYTES - 1):
        tables.insert(0, tuple(zero_byte(crc) for crc in tables[0]))
    constant = 0xFFFFFFFF
    for _ in range(_KEY_BYTES):
        constant = zero_byte(constant)
    return tuple(tables), constant ^ 0xFFFFFFFF


_KEY_TABLES, _KEY_CONSTANT = _build_key_tables()


def crc32c_key(key: int) -> int:
    """``crc32c(key.to_bytes(12, "big"))``, for a 96-bit key.

    Twelve independent table reads instead of a chain of twelve
    dependent steps: under half the time in CPython, and the same
    value by construction (see :func:`_build_key_tables`).
    """
    b0, b1, b2, b3, b4, b5, b6, b7, b8, b9, b10, b11 = key.to_bytes(
        _KEY_BYTES, "big"
    )
    t0, t1, t2, t3, t4, t5, t6, t7, t8, t9, t10, t11 = _KEY_TABLES
    return (
        _KEY_CONSTANT
        ^ t0[b0] ^ t1[b1] ^ t2[b2] ^ t3[b3] ^ t4[b4] ^ t5[b5]
        ^ t6[b6] ^ t7[b7] ^ t8[b8] ^ t9[b9] ^ t10[b10] ^ t11[b11]
    )
