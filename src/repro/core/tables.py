"""Flat slot tables, and the demux bases built on them.

The paper's structures are linked lists of PCBs walked by comparing
four-tuples.  A :class:`SlotTable` keeps the same *logical* list as a
packed byte string of interned 96-bit keys beside a list of their
PCBs, so the scan that the paper prices as "PCBs examined" becomes one
C-speed ``bytearray.rfind`` over contiguous memory.  Because the
interned key is a bijection of the four-tuple, the index found (and
therefore the examined count, the found PCB, and every
cache/move-to-front decision derived from it) is exactly what a list
walk computes.

:class:`CachedSlot` is the flat-array rendering of the paper's
single-entry caches: one interned key plus one PCB reference, probed
with a single integer comparison.

:class:`SlotDemux` and :class:`ChainedSlotDemux` hold the plumbing the
paper's list-shaped structures share (one table, or H hashed chains of
tables); :mod:`repro.core.linear`, :mod:`~repro.core.bsd`,
:mod:`~repro.core.mtf`, :mod:`~repro.core.sequent` and
:mod:`~repro.core.hashed_mtf` add only their lookup rules.
"""

from __future__ import annotations

from typing import Iterator, List, Optional, Sequence, Tuple

import numpy as _np

from ..hashing.functions import HashFunction
from ..packet.addresses import FourTuple
from .base import DuplicateConnectionError
from .keycache import InternedDemux
from .pcb import PCB

__all__ = ["CachedSlot", "ChainedSlotDemux", "SlotDemux", "SlotTable"]

#: Bytes per packed key: the 96-bit key, big-endian.
KEY_BYTES = 12

#: One packed key as a record.  numpy has no uint96, so the mirror
#: compares each key's low 64 bits and confirms a match on the high 32;
#: a collision (flows that differ only in local address) falls back to
#: the exact scan.
_PACKED_KEY = _np.dtype([("high", ">u4"), ("low", ">u8")])

#: Below this table size the scalar scan beats the mirror upkeep.
_VECTOR_MIN_TABLE = 16

#: numpy's crossover, measured on a 2-vCPU x86-64 VM (Python 3.11,
#: numpy 2.4) whose speed drifts by up to ~1.8x, so costs are ranges:
#: the scalar scan costs ~1 us per call plus 4-5 ns per key passed;
#: the numpy path costs 9-12 us per call plus ~0.4 us per query and
#: ~0.3 ns per (query, table key) cell, and a mirror rebuild 4-6 us up
#: to 2000 keys (~22 us at 10^4).  Scanning half a table per found key,
#: numpy pays from about this many cells (queries x table length) ...
_VECTOR_MIN_WORK = 8_000
#: ... plus, for a stale mirror, its rebuild: this many queries' work.
_REBUILD_QUERIES = 2

#: Comparison-matrix budget (query rows x table columns) per block, so
#: a huge batch against a huge table stays cache- and memory-friendly.
_VECTOR_BLOCK = 1 << 22


class SlotTable:
    """One logical PCB list as a packed key buffer and a PCB list.

    ``packed`` holds each entry's 96-bit key as :data:`KEY_BYTES`
    big-endian bytes, *tail-first*: the logical head (index 0) is the
    last 12 bytes, so the historical head insert is an append.
    ``pcbs`` is head-first.  Invariant: the key at logical index ``i``,
    ``packed[len(packed) - 12 * (i + 1):len(packed) - 12 * i]``, is
    ``pcbs[i].four_tuple.key_bits()``; both mutate together.

    A scan is ``packed.rfind`` from the tail, i.e. from the head of the
    list.  ``rfind`` matches at any byte offset, so a hit that
    straddles two keys is skipped until an aligned one (or none) is
    found: the *alignment rule*.

    For batched lookups the table lazily maintains a numpy mirror of
    the keys' low 64 and high 32 bits, head-first (rebuilt only when a
    batch that needs it follows a mutation), so :meth:`scan_batch` can
    resolve a large chunk with one vectorized comparison instead of one
    ``rfind`` per packet.
    """

    __slots__ = ("packed", "pcbs", "_version", "_mirror_version", "_mirror_keys")

    def __init__(self) -> None:
        self.packed = bytearray()
        self.pcbs: List[PCB] = []
        #: Bumped on every mutation; the numpy mirror notes the version
        #: it was built at and rebuilds only when stale.
        self._version = 0
        self._mirror_version = -1
        self._mirror_keys = None

    def __len__(self) -> int:
        return len(self.packed) // KEY_BYTES

    @property
    def keys(self) -> List[int]:
        """The keys decoded head-first: a copy, for inspection."""
        packed = self.packed
        return [
            int.from_bytes(packed[at:at + KEY_BYTES], "big")
            for at in range(len(packed) - KEY_BYTES, -1, -KEY_BYTES)
        ]

    def scan(self, key: int) -> Tuple[int, int]:
        """Scan for ``key``; returns ``(index, examined)``.

        ``index`` is -1 on a miss; ``examined`` follows the pinned
        counting convention -- position + 1 on a hit, the full table
        length on a miss -- exactly as a linear list walk.
        """
        packed = self.packed
        needle = key.to_bytes(KEY_BYTES, "big")
        at = packed.rfind(needle)
        # The alignment rule.  Test ``at > 0`` first: a miss is -1, and
        # -1 % 12 == 11 would search again forever.
        while at > 0 and at % KEY_BYTES:
            at = packed.rfind(needle, 0, at + KEY_BYTES - 1)
        if at < 0:
            return -1, len(packed) // KEY_BYTES
        examined = (len(packed) - at) // KEY_BYTES
        return examined - 1, examined

    def scan_batch(
        self, keys: Sequence[int]
    ) -> List[Tuple[int, int]]:
        """Vectorized :meth:`scan` of many keys against one table state.

        Returns one ``(index, examined)`` pair per query key with
        *exactly* the semantics of calling :meth:`scan` in a loop --
        first-match index (or -1) and the pinned examined count -- so
        callers may substitute it freely anywhere the table is not
        mutated between the scans.  Uses the numpy mirror only where the
        batch spans enough (query, key) cells to pay numpy's fixed cost
        and any stale-mirror rebuild; else, and for single keys, the loop.
        """
        n = len(self)
        nqueries = len(keys)
        stale = self._mirror_version != self._version
        work = (nqueries - _REBUILD_QUERIES * stale) * n
        if n < _VECTOR_MIN_TABLE or nqueries < 2 or work < _VECTOR_MIN_WORK:
            return [self.scan(key) for key in keys]
        low, high = self._mirrors()
        wanted = _np.frombuffer(
            b"".join([key.to_bytes(KEY_BYTES, "big") for key in keys]),
            dtype=_PACKED_KEY,
        )
        queries = wanted["low"].astype(_np.uint64)
        queries_high = wanted["high"].astype(_np.uint32)
        results: List[Tuple[int, int]] = []
        step = max(1, _VECTOR_BLOCK // n)
        for start in range(0, nqueries, step):
            stop = start + step
            equal = low[None, :] == queries[start:stop, None]
            found = equal.any(axis=1)
            first = equal.argmax(axis=1)
            # A low-64-bit match is a hit when the high 32 bits agree.
            exact = found & (high[first] == queries_high[start:stop])
            for key, hit, match, index in zip(
                keys[start:stop], found.tolist(), exact.tolist(),
                first.tolist(),
            ):
                if match:
                    results.append((index, index + 1))
                elif not hit:
                    results.append((-1, n))
                else:  # a low-64-bit collision: settle it exactly
                    results.append(self.scan(key))
        return results

    def _mirrors(self):
        """Head-first arrays of the keys' low 64 and high 32 bits.

        Rebuilt if stale, all in C: a copy of ``packed`` (a live numpy
        view would pin the bytearray's size) is read as 12-byte
        records and each field reversed into head-first order.
        """
        if self._mirror_version != self._version:
            packed = bytes(self.packed)
            records = _np.frombuffer(packed, dtype=_PACKED_KEY)[::-1]
            self._mirror_keys = (
                records["low"].astype(_np.uint64),
                records["high"].astype(_np.uint32),
            )
            self._mirror_version = self._version
        return self._mirror_keys

    def push_front(self, key: int, pcb: PCB) -> None:
        """Insert at the head (historical BSD insert position)."""
        self.packed += key.to_bytes(KEY_BYTES, "big")
        self.pcbs.insert(0, pcb)
        self._version += 1

    def remove_key(self, key: int) -> PCB:
        """Remove and return the PCB stored under ``key``.

        Raises ``ValueError`` if absent; callers gate on the key cache
        first.
        """
        index, _ = self.scan(key)
        if index < 0:
            raise ValueError(f"key {key:#x} is not in the table")
        end = len(self.packed) - KEY_BYTES * index
        del self.packed[end - KEY_BYTES:end]
        self._version += 1
        return self.pcbs.pop(index)

    def move_to_front(self, index: int) -> None:
        """Hoist the entry at ``index`` to the head (MTF heuristic)."""
        if index:
            packed = self.packed
            end = len(packed) - KEY_BYTES * index
            key = packed[end - KEY_BYTES:end]
            del packed[end - KEY_BYTES:end]
            packed += key
            pcbs = self.pcbs
            pcbs.insert(0, pcbs.pop(index))
            self._version += 1


class CachedSlot:
    """A single-entry cache as an (interned key, PCB) pair.

    ``key`` is ``None`` while the slot is empty -- probing an empty
    slot costs nothing, per the counting convention.
    """

    __slots__ = ("key", "pcb")

    def __init__(self) -> None:
        self.key: Optional[int] = None
        self.pcb: Optional[PCB] = None

    def set(self, key: int, pcb: PCB) -> None:
        self.key = key
        self.pcb = pcb

    def clear(self) -> None:
        self.key = None
        self.pcb = None

    def invalidate_if(self, key: int) -> None:
        """Clear the slot when it caches ``key`` (removal hygiene)."""
        if self.key == key:
            self.clear()


class SlotDemux(InternedDemux):
    """Shared plumbing of the list-shaped structures: slot tables.

    The key cache is the live set: a tuple is live iff it has a memo.
    ``len()`` counts the entries of the tables' key buffers and
    iteration walks their PCB lists, so the leak audit compares three
    structures that are kept apart.
    """

    def __init__(self, nchains: int = 1, chain_fn=None) -> None:
        super().__init__(chain_fn)
        self._tables = [SlotTable() for _ in range(nchains)]

    def _insert(self, pcb: PCB) -> int:
        """Insert ``pcb``; returns its chain, for subclasses to reuse."""
        entry = self._keycache.intern(pcb.four_tuple)
        if entry is None:
            raise DuplicateConnectionError(
                f"duplicate connection {pcb.four_tuple}"
            )
        key, chain = entry
        # Historical BSD behaviour: new PCBs go at the head.
        self._tables[chain].push_front(key, pcb)
        return chain

    def _remove(self, tup: FourTuple) -> PCB:
        # The connection is gone; its interned entry goes with it, or
        # a churn workload would retain one memo per connection ever
        # seen.
        entry = self._keycache.evict(tup)
        if entry is None:
            raise KeyError(tup)
        key, chain = entry
        pcb = self._tables[chain].remove_key(key)
        self._invalidate_cache(chain, key)
        return pcb

    def _invalidate_cache(self, chain: int, key: int) -> None:
        """Hook for cached subclasses (default: no cache to clear)."""

    def __len__(self) -> int:
        return sum([len(table.packed) for table in self._tables]) // KEY_BYTES

    def __iter__(self) -> Iterator[PCB]:
        for table in self._tables:
            yield from table.pcbs


class ChainedSlotDemux(SlotDemux):
    """Shared shape of the hashed structures: H chains + memoized hash."""

    def __init__(self, nchains: int, hash_function: HashFunction) -> None:
        if nchains <= 0:
            raise ValueError(f"nchains must be positive, got {nchains}")
        self._nchains = nchains
        self._hash = hash_function
        super().__init__(
            nchains=nchains,
            chain_fn=lambda tup: hash_function(tup, nchains),
        )

    @property
    def nchains(self) -> int:
        """H, the number of hash chains."""
        return self._nchains

    def chain_lengths(self) -> Sequence[int]:
        """Current per-chain PCB counts (for balance reporting)."""
        return tuple(len(table) for table in self._tables)

    def chain_of(self, tup: FourTuple) -> int:
        """Which chain ``tup`` hashes to (memoized)."""
        return self._keycache.chain_of(tup)
