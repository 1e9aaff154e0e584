"""Flat array-backed slot tables, and the demux bases built on them.

The paper's structures are linked lists of PCBs walked by comparing
four-tuples.  A :class:`SlotTable` keeps the same *logical* list as two
parallel flat arrays -- interned integer keys and their PCBs -- so the
scan that the paper prices as "PCBs examined" becomes a single C-speed
``list.index`` over small integers.  Because the interned key is a
bijection of the four-tuple, the index found (and therefore the
examined count, the found PCB, and every cache/move-to-front decision
derived from it) is exactly what a list walk computes.

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

#: numpy has no uint96, so the mirror holds each key's low 64 bits; a
#: match there is confirmed on the full key, and a collision (flows that
#: differ only in local address) falls back to the exact scan.
_LOW64 = (1 << 64) - 1

#: Below this table size ``list.index`` beats the mirror upkeep.
_VECTOR_MIN_TABLE = 16

#: numpy's crossover, measured on a 2-vCPU x86-64 VM (Python 3.11,
#: numpy 2.4) whose speed drifts by up to ~1.8x, so costs are ranges:
#: ``list.index`` passes a key in 10-18 ns; the numpy path costs 7-8 us
#: per call plus ~0.9 ns per (query, table key) cell, and a mirror
#: rebuild 60-120 ns per key.  At half a table per found key, numpy
#: pays from about this many cells (queries x table length) ...
_VECTOR_MIN_WORK = 2_000
#: ... plus, for a stale mirror, its rebuild: this many queries' work.
_REBUILD_QUERIES = 16

#: Comparison-matrix budget (query rows x table columns) per block, so
#: a huge batch against a huge table stays cache- and memory-friendly.
_VECTOR_BLOCK = 1 << 22


def _low64(keys: Sequence[int]):
    return _np.array([key & _LOW64 for key in keys], dtype=_np.uint64)


class SlotTable:
    """One logical PCB list as parallel ``keys``/``pcbs`` arrays.

    Invariant: ``keys[i]`` is always ``pcbs[i].four_tuple.key_bits()``;
    both arrays mutate together, head-first like the historical BSD
    list (new entries at index 0).

    For batched lookups the table lazily maintains a numpy mirror of
    ``keys`` (their low 64 bits, rebuilt only when a batch that
    needs it follows a mutation), so :meth:`scan_batch` can resolve a
    large chunk with one vectorized comparison instead of one
    ``list.index`` per packet.
    """

    __slots__ = ("keys", "pcbs", "_version", "_mirror_version", "_mirror_keys")

    def __init__(self) -> None:
        self.keys: List[int] = []
        self.pcbs: List[PCB] = []
        #: Bumped on every mutation; the numpy mirror notes the version
        #: it was built at and rebuilds only when stale.
        self._version = 0
        self._mirror_version = -1
        self._mirror_keys = None

    def __len__(self) -> int:
        return len(self.keys)

    def scan(self, key: int) -> Tuple[int, int]:
        """Scan for ``key``; returns ``(index, examined)``.

        ``index`` is -1 on a miss; ``examined`` follows the pinned
        counting convention -- position + 1 on a hit, the full table
        length on a miss -- exactly as a linear list walk.
        """
        try:
            index = self.keys.index(key)
        except ValueError:
            return -1, len(self.keys)
        return index, index + 1

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
        n = len(self.keys)
        nqueries = len(keys)
        stale = self._mirror_version != self._version
        work = (nqueries - _REBUILD_QUERIES * stale) * n
        if n < _VECTOR_MIN_TABLE or nqueries < 2 or work < _VECTOR_MIN_WORK:
            return [self.scan(key) for key in keys]
        mirror = self._mirrors()
        queries = _low64(keys)
        results: List[Tuple[int, int]] = []
        step = max(1, _VECTOR_BLOCK // n)
        for start in range(0, nqueries, step):
            equal = mirror[None, :] == queries[start:start + step, None]
            found = equal.any(axis=1).tolist()
            first = equal.argmax(axis=1).tolist()
            for key, hit, index in zip(keys[start:start + step], found, first):
                if not hit:
                    results.append((-1, n))
                elif self.keys[index] == key:
                    results.append((index, index + 1))
                else:  # a low-64-bit collision: settle it exactly
                    results.append(self.scan(key))
        return results

    def _mirrors(self):
        """The low-64-bit key array, rebuilt if stale."""
        if self._mirror_version != self._version:
            self._mirror_keys = _low64(self.keys)
            self._mirror_version = self._version
        return self._mirror_keys

    def push_front(self, key: int, pcb: PCB) -> None:
        """Insert at the head (historical BSD insert position)."""
        self.keys.insert(0, key)
        self.pcbs.insert(0, pcb)
        self._version += 1

    def remove_key(self, key: int) -> PCB:
        """Remove and return the PCB stored under ``key``.

        Raises ``ValueError`` if absent; callers gate on their own
        membership set first.
        """
        index = self.keys.index(key)
        del self.keys[index]
        pcb = self.pcbs[index]
        del self.pcbs[index]
        self._version += 1
        return pcb

    def move_to_front(self, index: int) -> None:
        """Hoist the entry at ``index`` to the head (MTF heuristic)."""
        if index:
            key = self.keys[index]
            del self.keys[index]
            self.keys.insert(0, key)
            pcb = self.pcbs[index]
            del self.pcbs[index]
            self.pcbs.insert(0, pcb)
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
    """Shared plumbing of the list-shaped structures: slot tables."""

    def __init__(self, nchains: int = 1, chain_fn=None) -> None:
        super().__init__(chain_fn)
        self._tables = [SlotTable() for _ in range(nchains)]

    def _insert(self, pcb: PCB) -> int:
        """Insert ``pcb``; returns its chain, for subclasses to reuse."""
        key, chain = self._keycache.entry(pcb.four_tuple)
        if key in self._present:
            raise DuplicateConnectionError(
                f"duplicate connection {pcb.four_tuple}"
            )
        # Historical BSD behaviour: new PCBs go at the head.
        self._tables[chain].push_front(key, pcb)
        self._present.add(key)
        return chain

    def _remove(self, tup: FourTuple) -> PCB:
        key, chain = self._keycache.probe(tup)
        if key not in self._present:
            raise KeyError(tup)
        pcb = self._tables[chain].remove_key(key)
        self._present.discard(key)
        self._invalidate_cache(chain, key)
        # The connection is gone; its interned entry goes with it, or
        # a churn workload would retain one memo per connection ever
        # seen.
        self._keycache.evict(tup)
        return pcb

    def _invalidate_cache(self, chain: int, key: int) -> None:
        """Hook for cached subclasses (default: no cache to clear)."""

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
