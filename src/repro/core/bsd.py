"""The BSD algorithm: linear list plus a one-PCB "last found" cache.

Paper Section 3.1.  "BSD searches a simple linear list of PCBs, with a
single-entry cache containing the PCB last found" -- the 4.3-Reno
optimization Van Jacobson added for bulk transfers, where packet trains
make consecutive packets hit the same PCB.

Cost model (Eq. 1):  hit = 1 examined;  miss = 1 (the stale cache
entry) + the list scan, expected ``(N+1)/2``, hence

    C_BSD(N) = 1 + (N^2 - 1) / 2N       ->  ~N/2 for large N.

Under TPC/A with N=2000 this is 1,001 PCBs per packet: the cache hit
rate is 1/N and "the cache is clearly providing little help".
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from ..packet.addresses import FourTuple
from .base import LookupResult
from .batch import Packet
from .pcb import PCB
from .stats import PacketKind
from .tables import CachedSlot, SlotDemux

__all__ = ["BSDDemux"]


class BSDDemux(SlotDemux):
    """Linear PCB list fronted by a single-entry last-found cache."""

    name = "bsd"

    def __init__(self) -> None:
        super().__init__()
        self._cache = CachedSlot()

    @property
    def cached_pcb(self) -> Optional[PCB]:
        """The PCB currently in the one-entry cache (for inspection)."""
        return self._cache.pcb

    def _invalidate_cache(self, chain: int, key: int) -> None:
        self._cache.invalidate_if(key)

    def _lookup(self, tup: FourTuple, kind: PacketKind) -> LookupResult:
        key, _ = self._keycache.probe(tup)
        cache = self._cache
        examined = 0
        if cache.key is not None:
            examined = 1
            if cache.key == key:
                return LookupResult(
                    cache.pcb, examined, cache_hit=True, kind=kind
                )
        table = self._tables[0]
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
        # The one-entry cache mutates per lookup but never the table,
        # so scans vectorize up front and the cache logic replays
        # sequentially over the precomputed results.
        table = self._tables[0]
        probe = self._keycache.probe
        keys = [probe(tup)[0] for tup, _ in packets]
        scans = table.scan_batch(keys)
        pcbs = table.pcbs
        cache = self._cache
        results: List[LookupResult] = []
        append = results.append
        for key, (index, scanned), (_, kind) in zip(keys, scans, packets):
            examined = 0
            if cache.key is not None:
                examined = 1
                if cache.key == key:
                    append(
                        LookupResult(
                            cache.pcb, examined, cache_hit=True, kind=kind
                        )
                    )
                    continue
            examined += scanned
            if index >= 0:
                pcb = pcbs[index]
                cache.set(key, pcb)
                append(
                    LookupResult(pcb, examined, cache_hit=False, kind=kind)
                )
            else:
                append(
                    LookupResult(None, examined, cache_hit=False, kind=kind)
                )
        return results
