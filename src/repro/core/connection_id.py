"""Connection-ID direct indexing (the protocol-change alternative, §3.5).

TP4, X.25, and XTP let the endpoints negotiate small-integer connection
IDs carried in every data packet, "typically used to directly index an
array of PCBs, thus completely eliminating the need to search".  The
paper's punchline is that cheap hashing *removes the motivation* for
adding such IDs to TCP; this structure exists so experiments can show
the remaining gap (exactly 1 PCB examined, always) next to what Sequent
hashing achieves without any protocol change.

IDs are assigned at insert (connection setup = the negotiation) from a
free list, so the array stays dense under churn.  Lookup accepts either
a connection ID (the real TP4-style fast path) or a four-tuple (the
setup-time path, which must still search -- modelled here as a
dictionary probe costing one examined PCB, an idealization noted in
DESIGN.md).
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional

from ..packet.addresses import FourTuple
from .base import DemuxAlgorithm, DemuxError, DuplicateConnectionError, LookupResult
from .pcb import PCB
from .stats import PacketKind

__all__ = ["ConnectionIdDemux"]


class ConnectionIdDemux(DemuxAlgorithm):
    """Dense PCB array indexed by negotiated connection ID."""

    name = "connection_id"

    def __init__(self, max_connections: int = 1 << 16):
        super().__init__()
        if max_connections <= 0:
            raise ValueError(f"max_connections must be positive: {max_connections}")
        self._max = max_connections
        self._slots: List[Optional[PCB]] = []
        self._free: List[int] = []
        self._ids: Dict[FourTuple, int] = {}

    @property
    def max_connections(self) -> int:
        return self._max

    def connection_id(self, tup: FourTuple) -> int:
        """The negotiated ID for ``tup`` (``KeyError`` if absent)."""
        return self._ids[tup]

    def _insert(self, pcb: PCB) -> None:
        if pcb.four_tuple in self._ids:
            raise DuplicateConnectionError(f"duplicate connection {pcb.four_tuple}")
        if self._free:
            cid = self._free.pop()
            self._slots[cid] = pcb
        else:
            if len(self._slots) >= self._max:
                raise DemuxError(
                    f"connection-ID space exhausted ({self._max} connections)"
                )
            cid = len(self._slots)
            self._slots.append(pcb)
        self._ids[pcb.four_tuple] = cid

    def _remove(self, tup: FourTuple) -> PCB:
        cid = self._ids.pop(tup)  # KeyError propagates per the interface
        pcb = self._slots[cid]
        assert pcb is not None
        self._slots[cid] = None
        self._free.append(cid)
        return pcb

    def lookup_by_id(
        self, cid: int, kind: PacketKind = PacketKind.DATA
    ) -> LookupResult:
        """The TP4/X.25/XTP fast path: one array index, one PCB examined."""
        if 0 <= cid < len(self._slots):
            pcb = self._slots[cid]
        else:
            pcb = None
        result = LookupResult(pcb, examined=1, cache_hit=pcb is not None, kind=kind)
        if self.observer is not None:  # they wrap the finished lookup
            tup = pcb.four_tuple if pcb is not None else None
            self.observer.on_lookup(self, lambda *_: result, tup, kind)
        self._record(result)
        return result

    def _lookup(self, tup: FourTuple, kind: PacketKind) -> LookupResult:
        cid = self._ids.get(tup)
        if cid is None:
            return LookupResult(None, examined=1, cache_hit=False, kind=kind)
        pcb = self._slots[cid]
        return LookupResult(pcb, examined=1, cache_hit=True, kind=kind)

    def __len__(self) -> int:
        return len(self._ids)

    def __iter__(self) -> Iterator[PCB]:
        return (pcb for pcb in self._slots if pcb is not None)
