"""Hash chains with move-to-front ordering (the Section 3.5 combination).

"One could imagine combining move-to-front with hash chains.  However,
better results can be obtained simply by increasing the number of hash
chains" -- MTF buys at best a factor of two inside a chain, while going
from H=19 to H=100 buys a factor of five (53 -> <9 PCBs).

This structure exists to *measure* that claim: each chain is ordered
move-to-front, with an optional per-chain cache in front (giving the
full Sequent+MTF hybrid).  ``benchmarks/bench_text_combination.py``
runs it against plain Sequent at various H.
"""

from __future__ import annotations

from typing import List

from ..hashing.functions import HashFunction, default_hash
from ..packet.addresses import FourTuple
from .base import LookupResult
from .sequent import DEFAULT_HASH_CHAINS
from .stats import PacketKind
from .tables import CachedSlot, ChainedSlotDemux

__all__ = ["HashedMTFDemux"]


class HashedMTFDemux(ChainedSlotDemux):
    """H hash chains, each a move-to-front list, optionally cached."""

    name = "hashed_mtf"

    def __init__(
        self,
        nchains: int = DEFAULT_HASH_CHAINS,
        hash_function: HashFunction = default_hash,
        *,
        per_chain_cache: bool = True,
    ):
        super().__init__(nchains, hash_function)
        self._per_chain_cache = per_chain_cache
        self._caches: List[CachedSlot] = [
            CachedSlot() for _ in range(nchains)
        ]

    def _invalidate_cache(self, chain: int, key: int) -> None:
        self._caches[chain].invalidate_if(key)

    def _lookup(self, tup: FourTuple, kind: PacketKind) -> LookupResult:
        key, chain = self._keycache.probe(tup)
        examined = 0
        cache = self._caches[chain]
        if self._per_chain_cache and cache.key is not None:
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
            table.move_to_front(index)
            if self._per_chain_cache:
                cache.set(key, pcb)
            return LookupResult(pcb, examined, cache_hit=False, kind=kind)
        return LookupResult(None, examined, cache_hit=False, kind=kind)

    def describe(self) -> str:
        cache = "cached" if self._per_chain_cache else "uncached"
        return f"{self.name} (H={self._nchains}, {cache}, {len(self)} PCBs)"
