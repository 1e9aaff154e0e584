"""Crowcroft's move-to-front list (paper Section 3.2).

"Jon Crowcroft proposed maintaining a linear list with a 'move to
front' heuristic; namely, when a PCB is found, it is moved to the front
of the linear list."  (Independently suggested by Gary Delp.)

Under TPC/A the heuristic trades a slightly *longer* scan for the
transaction-entry packet (other users' PCBs pile up in front during the
~10 s think time; Eq. 5 gives 1019-1150 preceding PCBs for response
times 0.2-2.0 s, vs. BSD's 1001) for a much shorter scan on the
response's transport-level acknowledgement (only PCBs touched during
the response-time window precede, N(2R) = 78-659).  Overall: 549-904,
a significant win over BSD -- but still an order of magnitude worse
than hashing.

Worst case (Section 3.2): *deterministic* think times, e.g. a central
server polling point-of-sale terminals round-robin, where every arrival
scans the entire list.  ``workload.polling`` reproduces this.
"""

from __future__ import annotations

from ..packet.addresses import FourTuple
from .base import LookupResult
from .stats import PacketKind
from .tables import SlotDemux

__all__ = ["MoveToFrontDemux"]


class MoveToFrontDemux(SlotDemux):
    """Linear PCB list with move-to-front on every successful lookup."""

    name = "mtf"

    def _lookup(self, tup: FourTuple, kind: PacketKind) -> LookupResult:
        key, _ = self._keycache.probe(tup)
        table = self._tables[0]
        index, examined = table.scan(key)
        if index >= 0:
            pcb = table.pcbs[index]
            table.move_to_front(index)
            return LookupResult(pcb, examined, cache_hit=False, kind=kind)
        return LookupResult(None, examined, cache_hit=False, kind=kind)

    def position_of(self, tup: FourTuple) -> int:
        """Current 0-based list position of ``tup`` (no stats, no MTF).

        Lets tests and experiments observe list order without the
        Heisenberg effect of a real lookup.  Raises ``KeyError`` if the
        connection is absent.
        """
        index, _ = self._tables[0].scan(tup.key_bits())
        if index < 0:
            raise KeyError(tup)
        return index
