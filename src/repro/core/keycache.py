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
  exactly tuple equality and slot tables can scan C-speed int lists;
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
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple

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
    #: Probes of never-interned tuples whose key was computed on the
    #: fly and *not* stored (miss lookups on absent connections).
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

    Memory-bounds contract: only :meth:`entry` (the insert path) may
    store a memo; :meth:`probe` (the lookup/remove path) computes the
    pair on the fly for unknown tuples without storing, and
    :meth:`evict` drops the memo when its connection is removed.  The
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

    def entry(self, tup: FourTuple) -> Tuple[int, int]:
        """The ``(key, chain)`` pair for ``tup``, interning it.

        The *insert* path: the connection is becoming live, so the
        memo is stored for the packets that will follow.
        """
        entry = self._entries.get(tup)
        if entry is None:
            entry = self._compute(tup)
            self._entries[tup] = entry
            self.counters.interned_keys += 1
        else:
            self.counters.key_cache_hits += 1
        return entry

    def probe(self, tup: FourTuple) -> Tuple[int, int]:
        """The ``(key, chain)`` pair for ``tup``, *without* interning.

        The *lookup/remove* path: a tuple that is not already interned
        is either a miss or a teardown, so storing a memo for it would
        leak one entry per stray packet.  Live tuples hit the same
        dict read as :meth:`entry`; unknown ones pay one throwaway key
        computation.
        """
        entry = self._entries.get(tup)
        if entry is None:
            self.counters.transient_probes += 1
            return self._compute(tup)
        self.counters.key_cache_hits += 1
        return entry

    def evict(self, tup: FourTuple) -> bool:
        """Drop ``tup``'s interned entry (connection removed).

        Returns ``True`` if an entry was present.  Safe to call for
        never-interned tuples (idempotent).
        """
        if self._entries.pop(tup, None) is not None:
            self.counters.evicted_keys += 1
            return True
        return False

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
    -- but interning, the membership set, counters, and the leak
    contract (interned entries == live connections) live here, as does
    the snapshot machinery's type anchor.
    """

    def __init__(self, chain_fn=None) -> None:
        super().__init__()
        self.fastpath_counters = FastpathCounters()
        self._keycache = KeyCache(chain_fn, self.fastpath_counters)
        self._present: Set[int] = set()

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

    def __len__(self) -> int:
        return len(self._present)

    def __contains__(self, tup: FourTuple) -> bool:
        """Membership without perturbing caches, stats, or counters."""
        return tup.key_bits() in self._present
