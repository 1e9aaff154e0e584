"""The Sequent algorithm: hash chains, each with its own cache (§3.4).

"Sequent's algorithm maintains a simple linear list for each of several
hash chains, each containing a single-entry cache containing the PCB
last found on that hash chain."  (A similar approach was suggested on
the tcp-ip list by Lance Vissner.)

With ``H`` chains the cache hit rate rises from 1/N to H/N, and -- far
more importantly, per the paper's miss-penalty-over-hit-ratio argument
-- a miss scans only the ~N/H PCBs of one chain:

    C_SQNT(N, H) ~ 1 + (N-H)/N * (N/H + 1)/2  = C_BSD(N/H)      (Eq. 19)

with a refinement (Eqs. 20-22) crediting the per-chain cache for
response-time intervals in which the chain receives no other traffic.
For the installation-default H=19 at N=2000, R=0.2 s: 53.0 expected
PCBs vs. BSD's 1,001 -- the paper's order-of-magnitude headline.

The hash function is pluggable (default CRC-32C over the 96-bit key);
``repro.hashing.analysis`` quantifies what a skewed hash costs.  Each
chain is a :class:`~repro.core.tables.SlotTable` and each cache a
:class:`~repro.core.tables.CachedSlot`; the chain index is computed
once per connection and memoized with its interned key.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from ..hashing.functions import HashFunction, default_hash
from ..packet.addresses import FourTuple
from .base import LookupResult
from .batch import Packet
from .pcb import PCB
from .stats import PacketKind
from .tables import CachedSlot, ChainedSlotDemux

__all__ = ["SequentDemux", "DEFAULT_HASH_CHAINS"]

#: "the installation default of 19 hash chains" (Section 3.4).
DEFAULT_HASH_CHAINS = 19


class SequentDemux(ChainedSlotDemux):
    """H hash chains, each a cached linear list."""

    name = "sequent"

    def __init__(
        self,
        nchains: int = DEFAULT_HASH_CHAINS,
        hash_function: HashFunction = default_hash,
        *,
        overload_threshold: Optional[int] = None,
    ):
        if overload_threshold is not None and overload_threshold < 1:
            raise ValueError(
                f"overload_threshold must be >= 1, got {overload_threshold}"
            )
        super().__init__(nchains, hash_function)
        self._caches: List[CachedSlot] = [
            CachedSlot() for _ in range(nchains)
        ]
        #: Chain population beyond which an insert counts as an
        #: overload event -- the adversarial-load signal (a skewed or
        #: attacked key distribution piling PCBs onto few chains).
        #: ``None`` disables detection.
        self._overload_threshold = overload_threshold
        #: Inserts that left a chain above the threshold.
        self.chain_overload_events = 0

    @property
    def overload_threshold(self) -> Optional[int]:
        return self._overload_threshold

    def overloaded_chains(self) -> Sequence[int]:
        """Indices of chains currently above the overload threshold."""
        if self._overload_threshold is None:
            return ()
        return tuple(
            index
            for index, table in enumerate(self._tables)
            if len(table) > self._overload_threshold
        )

    def _insert(self, pcb: PCB) -> None:
        chain = super()._insert(pcb)
        threshold = self._overload_threshold
        if threshold is not None and len(self._tables[chain]) > threshold:
            self.chain_overload_events += 1

    def _invalidate_cache(self, chain: int, key: int) -> None:
        self._caches[chain].invalidate_if(key)

    def _lookup(self, tup: FourTuple, kind: PacketKind) -> LookupResult:
        key, chain = self._keycache.probe(tup)
        cache = self._caches[chain]
        examined = 0
        if cache.key is not None:
            examined = 1
            if cache.key == key:
                return LookupResult(
                    cache.pcb, examined, cache_hit=True, kind=kind
                )
        table = self._tables[chain]
        index, scanned = table.scan(key)
        examined += scanned
        if index >= 0:
            pcb = table.pcbs[index]
            cache.set(key, pcb)
            return LookupResult(pcb, examined, cache_hit=False, kind=kind)
        return LookupResult(None, examined, cache_hit=False, kind=kind)

    def _lookup_batch(
        self, packets: Sequence[Packet]
    ) -> Optional[List[LookupResult]]:
        # Cache-first.  Chains never mutate during lookups, so a miss
        # finds its PCB iff its key is live: one pass in packet order
        # moves the cache keys as the per-call loop would, scanning
        # nothing; then found misses are scanned (one scan_batch per
        # chain) and PCBs filled into results and touched cache slots.
        probe = self._keycache.probe
        caches = self._caches
        tables = self._tables
        present = self._present
        pcbs: List[Optional[PCB]] = [None] * len(packets)
        examined = [1] * len(packets)
        hits = [False] * len(packets)
        misses: dict = {}  # chain -> [(position, key)] of found misses
        setter: dict = {}  # chain -> the found miss that last set its cache
        aliases = []  # (hit, found miss that set the slot it hit)
        for position, (tup, _) in enumerate(packets):
            key, chain = probe(tup)
            cache = caches[chain]
            if cache.key is None:
                examined[position] = 0
            elif cache.key == key:
                hits[position] = True
                source = setter.get(chain)
                if source is None:
                    pcbs[position] = cache.pcb
                else:
                    aliases.append((position, source))
                continue
            if key in present:
                cache.key = key
                setter[chain] = position
                misses.setdefault(chain, []).append((position, key))
            else:
                examined[position] += len(tables[chain])
        for chain, found in misses.items():
            table = tables[chain]
            scans = table.scan_batch([key for _, key in found])
            for (position, _), (index, scanned) in zip(found, scans):
                pcbs[position] = table.pcbs[index]
                examined[position] += scanned
        for position, source in aliases:
            pcbs[position] = pcbs[source]
        for chain, position in setter.items():
            caches[chain].pcb = pcbs[position]
        return [
            LookupResult(pcb, count, hit, kind)
            for pcb, count, hit, (_, kind) in zip(pcbs, examined, hits, packets)
        ]

    def describe(self) -> str:
        lengths = self.chain_lengths()
        longest = max(lengths) if lengths else 0
        return (
            f"{self.name} (H={self._nchains}, {len(self)} PCBs,"
            f" longest chain {longest})"
        )
