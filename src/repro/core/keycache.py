"""Four-tuple key interning, and the demux base that owns it.

Comparing :class:`~repro.packet.addresses.FourTuple` objects on every
probe costs a Python-level ``__eq__`` per field, and the hashed
structures would additionally run a table-driven CRC over the packed
96-bit key on every packet.  Both costs are pure interpreter overhead
-- the paper's cost model charges neither (Section 3.5 treats hash
computation as negligible next to PCB memory traffic) -- so the
structures eliminate them *without changing any algorithmic decision*.

:class:`KeyCache` does that elimination:

* each four-tuple is interned to its packed 96-bit **integer key**
  (:meth:`FourTuple.key_bits`), a bijection, so integer equality is
  exactly tuple equality and slot tables can scan the keys packed as
  bytes in C;
* for chained structures, the chain index (a deterministic pure
  function of the tuple) is memoized alongside the key, so the CRC runs
  once per distinct tuple instead of once per packet.

:class:`InternedDemux` is the base every interned structure shares:
the paper's list-shaped structures (:mod:`repro.core.tables`) and the
cuckoo table (:mod:`repro.fastpath.cuckoo`).

Counters land in :class:`FastpathCounters`, which the owning algorithm
exposes as ``fastpath_counters`` and :func:`repro.fastpath.metrics.
publish_fastpath` exports through the observability registry.
"""

from __future__ import annotations

import dataclasses
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..packet.addresses import FourTuple
from .base import DemuxAlgorithm, LookupResult
from .batch import BatchLookupMixin, Packet

__all__ = ["FastpathCounters", "InternedDemux", "KeyCache"]


@dataclasses.dataclass
class FastpathCounters:
    """Interning and batching bookkeeping, separate from ``DemuxStats``.

    These counters never feed the paper's figure of merit; they exist
    so the observability layer can report how hard the key cache and
    the batch loop are working.
    """

    #: Distinct four-tuples interned (key-cache misses).
    interned_keys: int = 0
    #: Lookups served from the intern table (key-cache hits).
    key_cache_hits: int = 0
    #: Interned entries evicted on connection removal.
    evicted_keys: int = 0
    #: Probes of tuples with no memo: lookups of absent connections,
    #: whose key is computed on the fly and *not* stored, and removes
    #: of absent connections.
    transient_probes: int = 0
    #: ``lookup_batch`` invocations that took the amortized loop.
    batch_calls: int = 0
    #: Individual lookups served through the amortized loop.
    batched_lookups: int = 0

    def as_dict(self) -> Dict[str, int]:
        """JSON-ready snapshot."""
        return {
            "interned_keys": self.interned_keys,
            "key_cache_hits": self.key_cache_hits,
            "evicted_keys": self.evicted_keys,
            "transient_probes": self.transient_probes,
            "batch_calls": self.batch_calls,
            "batched_lookups": self.batched_lookups,
        }


class KeyCache:
    """Intern table: four-tuple -> (96-bit int key, chain index).

    ``chain_fn`` is the structure's chain assignment (``None`` for
    unchained structures, whose entries all report chain 0).  The memo
    is sound because every hash function in :mod:`repro.hashing` is a
    deterministic, unseeded pure function of the tuple, and the chain
    count is fixed for the structure's lifetime.

    Memory-bounds contract: only :meth:`intern` (the insert and
    restore paths) may store a memo; :meth:`probe` (the
    lookup path) computes the pair on the fly for unknown tuples
    without storing, and :meth:`evict` (the remove path) drops the
    memo when its connection is removed.  The
    owning structure therefore holds exactly one interned entry per
    *live* connection -- heavy insert/remove churn and miss-lookup
    floods cannot grow the table (see docs/fastpath.md, "Memory
    bounds").  Because key and chain are pure functions of the tuple,
    evicting and later recomputing an entry can never change a
    decision.
    """

    __slots__ = ("_entries", "_chain_fn", "counters")

    def __init__(
        self,
        chain_fn: Optional[Callable[[FourTuple], int]] = None,
        counters: Optional[FastpathCounters] = None,
    ):
        self._entries: Dict[FourTuple, Tuple[int, int]] = {}
        self._chain_fn = chain_fn
        self.counters = counters if counters is not None else FastpathCounters()

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, tup: FourTuple) -> bool:
        """Whether ``tup`` has a memo, i.e. is live (uncounted)."""
        return tup in self._entries

    def intern(self, tup: FourTuple) -> Optional[Tuple[int, int]]:
        """Store and return ``tup``'s ``(key, chain)`` memo.

        The *insert* path.  Returns ``None``, storing and counting
        nothing, when ``tup`` already has a memo: the connection is
        live and the insert is a duplicate.
        """
        entry = self._compute(tup)
        if self._entries.setdefault(tup, entry) is not entry:
            return None
        self.counters.interned_keys += 1
        return entry

    def probe(self, tup: FourTuple) -> Tuple[int, int]:
        """The ``(key, chain)`` pair for ``tup``, *without* interning.

        The *lookup* path: a tuple that is not already interned is a
        miss, so storing a memo for it would leak one entry per stray
        packet.  Live tuples cost one dict read; unknown ones pay one
        throwaway key computation.
        """
        entry = self._entries.get(tup)
        if entry is None:
            self.counters.transient_probes += 1
            return self._compute(tup)
        self.counters.key_cache_hits += 1
        return entry

    def probe_batch(
        self, tuples: Sequence[FourTuple]
    ) -> Tuple[List[Tuple[int, int]], List[bool]]:
        """:meth:`probe` each of ``tuples``; also say which had a memo.

        Returns the ``(key, chain)`` pairs and, beside them, whether
        each tuple was interned -- that is, whether its connection is
        live.  Counts exactly as the :meth:`probe` loop would.
        """
        entries = list(map(self._entries.get, tuples))
        live = [entry is not None for entry in entries]
        hits = live.count(True)
        if hits < len(entries):
            compute = self._compute
            entries = [
                entry or compute(tup) for entry, tup in zip(entries, tuples)
            ]
        self.counters.key_cache_hits += hits
        self.counters.transient_probes += len(entries) - hits
        return entries, live

    def evict(self, tup: FourTuple) -> Optional[Tuple[int, int]]:
        """Drop and return ``tup``'s memo: the *remove* path.

        Returns ``None`` if ``tup`` has none (the connection is not
        live), so it is safe to call for never-interned tuples.  Counts
        as a :meth:`probe` (a key-cache hit, or a transient probe)
        and, when a memo is dropped, an eviction.
        """
        entry = self._entries.pop(tup, None)
        counters = self.counters
        if entry is None:
            counters.transient_probes += 1
        else:
            counters.key_cache_hits += 1
            counters.evicted_keys += 1
        return entry

    def _compute(self, tup: FourTuple) -> Tuple[int, int]:
        chain = self._chain_fn(tup) if self._chain_fn is not None else 0
        return (tup.key_bits(), chain)

    def key_of(self, tup: FourTuple) -> int:
        """The 96-bit integer key for ``tup`` (non-interning, uncounted)."""
        return (self._entries.get(tup) or self._compute(tup))[0]

    def chain_of(self, tup: FourTuple) -> int:
        """The chain index for ``tup`` (0 if unchained; non-interning, uncounted)."""
        return (self._entries.get(tup) or self._compute(tup))[1]


class InternedDemux(BatchLookupMixin, DemuxAlgorithm):
    """Plumbing every interned structure shares: key cache, membership.

    Subclasses add their own storage -- :class:`~repro.core.tables.
    SlotDemux` the paper's list-shaped structures,
    :class:`~repro.fastpath.cuckoo.FastCuckooDemux` its bucket arrays
    -- and their own ``__len__``, counted from that storage.
    Interning, membership, counters, and the leak contract (interned
    entries == live connections) live here, as does the snapshot
    machinery's type anchor.  By that contract the key cache *is* the
    live set: a tuple is live iff it has a memo.
    """

    def __init__(self, chain_fn=None) -> None:
        super().__init__()
        self.fastpath_counters = FastpathCounters()
        self._keycache = KeyCache(chain_fn, self.fastpath_counters)

    def _lookup_batch(
        self, packets: Sequence[Packet]
    ) -> Optional[List[LookupResult]]:
        """Hook for vectorized whole-batch lookups.

        Return the results (decision-identical to looping ``_lookup``,
        side effects included) or ``None`` to take the generic tight
        loop.  Statistics are recorded by the mixin either way.
        """
        return None

    @property
    def interned_entries(self) -> int:
        """Interned-key count; equals ``len(self)`` by the memory-bounds
        contract (one memo per live connection, none for dead ones)."""
        return len(self._keycache)

    def __contains__(self, tup: FourTuple) -> bool:
        """Membership without perturbing caches, stats, or counters."""
        return tup in self._keycache
