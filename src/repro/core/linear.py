"""Plain linear-list PCB lookup (the pre-cache baseline).

"A simple PCB management approach uses a simple, linear linked list of
PCBs.  This approach was used in the initial BSD system" (paper,
Section 1).  No cache at all: every lookup scans from the head.  This
is the baseline the 4.3-Reno single-entry cache was added to, and it is
useful experimentally because its cost is exactly the scan length with
no cache noise.

The list is one :class:`~repro.core.tables.SlotTable`; a scan is one
``rfind`` over its packed interned keys.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from ..packet.addresses import FourTuple
from .base import LookupResult
from .batch import Packet
from .stats import PacketKind
from .tables import SlotDemux

__all__ = ["LinearDemux"]


class LinearDemux(SlotDemux):
    """Uncached linear scan over one list of PCBs.

    Expected cost for a uniformly chosen target: ``(N+1)/2``.
    """

    name = "linear"

    def _lookup(self, tup: FourTuple, kind: PacketKind) -> LookupResult:
        key, _ = self._keycache.probe(tup)
        table = self._tables[0]
        index, examined = table.scan(key)
        pcb = table.pcbs[index] if index >= 0 else None
        return LookupResult(pcb, examined, cache_hit=False, kind=kind)

    def _lookup_batch(
        self, packets: Sequence[Packet]
    ) -> Optional[List[LookupResult]]:
        # Lookups never mutate this table, so the whole batch resolves
        # against one vectorized scan (decision-identical by the
        # scan_batch contract).
        table = self._tables[0]
        probe = self._keycache.probe
        keys = [probe(tup)[0] for tup, _ in packets]
        scans = table.scan_batch(keys)
        pcbs = table.pcbs
        return [
            LookupResult(
                pcbs[index] if index >= 0 else None,
                examined,
                cache_hit=False,
                kind=kind,
            )
            for (index, examined), (_, kind) in zip(scans, packets)
        ]
