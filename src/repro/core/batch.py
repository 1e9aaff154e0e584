"""Amortized batched lookups.

Every public ``lookup`` pays the template-method toll: the observer
check, then the statistics update.  Those costs are per *call*, not
per packet, so a NIC-style coalesced batch can amortize them:
:class:`BatchLookupMixin` overrides the
:meth:`~repro.core.base.DemuxAlgorithm.lookup_batch` entry point (whose
base implementation simply loops ``lookup``) with a tight loop that
checks the observer slot once per batch and counts each result straight
into :meth:`~repro.core.stats.KindStats.add` -- the same counts, in the
same order, into the same histogram as the per-call path.

When an observer is attached the mixin falls back to the per-call
path, because observers are defined per lookup; batching never changes
what an observer (or a reaper) sees, only how fast the bare hot path
runs.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from ..packet.addresses import FourTuple
from .base import LookupResult
from .stats import PacketKind

__all__ = ["BatchLookupMixin", "as_packets"]

#: One inbound packet as the batch API consumes it.
Packet = Tuple[FourTuple, PacketKind]


def as_packets(
    keys: Sequence, kind: PacketKind = PacketKind.DATA
) -> List[Packet]:
    """Adapt a sequence of bare four-tuples (or packets) to packets.

    Convenience for callers holding plain key lists: four-tuples get
    the default ``kind``; ``(tuple, kind)`` pairs pass through.
    """
    packets: List[Packet] = []
    for item in keys:
        if isinstance(item, FourTuple):
            packets.append((item, kind))
        else:
            tup, item_kind = item
            packets.append((tup, item_kind))
    return packets


class BatchLookupMixin:
    """Tight-loop ``lookup_batch`` for the interned structures.

    Mixed in *before* :class:`~repro.core.base.DemuxAlgorithm`; relies
    only on the template-method contract (``_lookup`` + ``stats`` +
    ``observer``) plus the structure's ``fastpath_counters``.
    """

    def lookup_batch(
        self, packets: Sequence[Packet]
    ) -> List[LookupResult]:
        if self.observer is not None:
            # Observers are per-lookup by contract; take the exact path.
            return [self.lookup(tup, kind) for tup, kind in packets]
        # A structure may resolve the whole batch at once (cache-first
        # or vectorized scans); it returns None to take the tight loop.
        batch_impl = getattr(self, "_lookup_batch", None)
        results: Optional[List[LookupResult]] = (
            batch_impl(packets) if batch_impl is not None else None
        )
        if results is None:
            lookup = self._lookup
            results = [lookup(tup, kind) for tup, kind in packets]
        by_kind = self.stats.by_kind
        for result in results:
            by_kind[result.kind].add(
                result.examined, result.cache_hit, result.pcb is not None
            )
        counters = self.fastpath_counters
        counters.batch_calls += 1
        counters.batched_lookups += len(results)
        return results
