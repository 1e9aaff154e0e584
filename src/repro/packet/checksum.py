"""The Internet checksum (RFC 1071) used by the IPv4 and TCP headers.

The checksum is the 16-bit one's complement of the one's-complement sum
of the covered data taken as 16-bit big-endian words, with odd-length
data padded with a trailing zero byte.

The sum is computed without a per-word loop.  Because
``2**16 == 1 (mod 0xFFFF)``, the covered data read as one big-endian
integer is congruent to the sum of its 16-bit words, and folding the
carries back in reduces a sum modulo ``0xFFFF``.  The one exception is
that a nonzero sum never folds to 0: where the remainder is 0 the folded
sum is ``0xFFFF`` (one's-complement "negative zero").  Only an all-zero
input sums to 0.

The same residue argument lets the data be cut into pieces.  A piece
of even length that starts on a word boundary is congruent to the sum
of its own words, so the sum of such pieces is congruent to the sum of
all the words, and it is zero only if every piece is.  Long data is
therefore read in even-width chunks whose sum is folded once: one
remainder of a ~4,000-bit integer costs less than one of a ~12,000-bit
integer (a full 1480-byte segment).  Data up to one chunk long is read
in one piece, which is faster for short headers.

Two properties matter to callers and are exercised heavily by the test
suite:

* a header whose checksum field holds the value computed over the header
  (with the field zeroed) verifies to zero when re-summed; and
* the checksum is incremental -- :func:`incremental_update` adjusts a
  checksum for an in-place 16-bit word change without re-summing
  (RFC 1624), which real stacks use for TTL decrements and NAT.
"""

from __future__ import annotations

from typing import Union

__all__ = [
    "ones_complement_sum",
    "internet_checksum",
    "verify_checksum",
    "incremental_update",
    "pseudo_header",
    "pseudo_header_sum",
]


#: Width in bytes of the pieces a long input is summed in.  It must be
#: even, so that every piece starts on a 16-bit word boundary.
_CHUNK = 512


def _fold(total: int) -> int:
    """Fold the carries of a non-negative sum into 16 bits (see above)."""
    return total % 0xFFFF or (0xFFFF if total else 0)


def ones_complement_sum(
    data: Union[bytes, bytearray, memoryview], initial: int = 0
) -> int:
    """One's-complement sum of ``data`` as big-endian 16-bit words.

    ``initial`` seeds the sum (used to chain the TCP pseudo-header into
    the segment sum).  The result is a 16-bit value with all carries
    folded back in.

    Data longer than one chunk is summed as even-width, word-aligned
    chunks before the one fold.  Each chunk is congruent, modulo
    ``0xFFFF``, to the sum of its own words (``2**16 == 1``), so the
    folded result -- including whether it is 0 or ``0xFFFF`` -- is the
    same as for the data read in one piece.
    """
    if initial < 0 or initial > 0xFFFF:
        raise ValueError(f"initial sum out of 16-bit range: {initial}")
    size = len(data)
    if size <= _CHUNK:
        # An odd trailing byte is padded with 0x00: shift it into the
        # high half of the last word.
        return _fold((int.from_bytes(data, "big") << 8 * (size & 1)) + initial)
    whole = size & ~1
    total = initial
    for start in range(0, whole, _CHUNK):
        stop = start + _CHUNK
        total += int.from_bytes(data[start:stop if stop < whole else whole], "big")
    if size & 1:
        total += data[whole] << 8
    return _fold(total)


def internet_checksum(data: bytes, initial: int = 0) -> int:
    """RFC 1071 checksum: complement of the one's-complement sum.

    Returns a value in ``[0, 0xFFFF]`` ready to be stored in a header
    checksum field.
    """
    return (~ones_complement_sum(data, initial)) & 0xFFFF


def verify_checksum(data: bytes, initial: int = 0) -> bool:
    """True if ``data`` (checksum field included) sums to all-ones."""
    return ones_complement_sum(data, initial) == 0xFFFF


def incremental_update(old_checksum: int, old_word: int, new_word: int) -> int:
    """Adjust a checksum for one 16-bit word changed in the covered data.

    Implements the corrected algorithm of RFC 1624:
    ``HC' = ~(~HC + ~m + m')`` in one's-complement arithmetic.
    """
    for name, word in (("old_checksum", old_checksum),
                       ("old_word", old_word),
                       ("new_word", new_word)):
        if word < 0 or word > 0xFFFF:
            raise ValueError(f"{name} out of 16-bit range: {word}")
    total = (~old_checksum & 0xFFFF) + (~old_word & 0xFFFF) + new_word
    return (~_fold(total)) & 0xFFFF


def pseudo_header(
    src_addr_packed: bytes, dst_addr_packed: bytes, protocol: int, length: int
) -> bytes:
    """The 12-byte IPv4 pseudo-header covered by the TCP/UDP checksum."""
    if len(src_addr_packed) != 4 or len(dst_addr_packed) != 4:
        raise ValueError("pseudo-header addresses must be 4 packed bytes each")
    if not 0 <= protocol <= 0xFF:
        raise ValueError(f"protocol out of range: {protocol}")
    if not 0 <= length <= 0xFFFF:
        raise ValueError(f"segment length out of range: {length}")
    return (
        src_addr_packed
        + dst_addr_packed
        + bytes((0, protocol))
        + length.to_bytes(2, "big")
    )


def pseudo_header_sum(src: int, dst: int, protocol: int, length: int) -> int:
    """``ones_complement_sum(pseudo_header(...))`` without building it.

    ``src`` and ``dst`` are the addresses as 32-bit integers; a 32-bit
    value is congruent to the sum of its two 16-bit words, so the
    pseudo-header's word sum is congruent to the plain sum of its four
    fields.  Arguments are not range-checked: callers pass header
    fields that are in range by construction.
    """
    return _fold(src + dst + protocol + length)
