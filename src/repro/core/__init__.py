"""The paper's contribution: PCB demultiplexing algorithms.

Four structures from the paper --

* :class:`BSDDemux` -- linear list + one-entry cache (Section 3.1)
* :class:`MoveToFrontDemux` -- Crowcroft's heuristic (Section 3.2)
* :class:`SendRecvDemux` -- Partridge/Pink two-slot cache (Section 3.3)
* :class:`SequentDemux` -- hash chains with per-chain caches (Section 3.4)

plus the pre-cache :class:`LinearDemux`, the Section 3.5 extensions
(:class:`HashedMTFDemux`, :class:`ConnectionIdDemux`), lookup-cost
accounting (:mod:`~repro.core.stats`) and the PCBs-to-nanoseconds
memory model (:mod:`~repro.core.costmodel`).

The list-shaped structures store their lists as flat arrays of
interned integer keys (:mod:`~repro.core.tables`,
:mod:`~repro.core.keycache`) and amortize batched lookups
(:mod:`~repro.core.batch`); the examined counts are the paper's.
"""

from .base import (
    DemuxAlgorithm,
    DemuxError,
    DuplicateConnectionError,
    LookupResult,
)
from .bsd import BSDDemux
from .connection_id import ConnectionIdDemux
from .costmodel import CIRCA_1992, CIRCA_2020, CacheLevel, MemoryModel
from .hashed_mtf import HashedMTFDemux
from .linear import LinearDemux
from .mtf import MoveToFrontDemux
from .multicache import MultiCacheDemux
from .pcb import PCB
from .registry import ALGORITHMS, available_algorithms, make_algorithm
from .sendrecv import SendRecvDemux
from .sequent import DEFAULT_HASH_CHAINS, SequentDemux
from .stats import DemuxStats, KindStats, LookupRecord, PacketKind

__all__ = [
    "ALGORITHMS",
    "BSDDemux",
    "CIRCA_1992",
    "CIRCA_2020",
    "CacheLevel",
    "ConnectionIdDemux",
    "DEFAULT_HASH_CHAINS",
    "DemuxAlgorithm",
    "DemuxError",
    "DemuxStats",
    "DuplicateConnectionError",
    "HashedMTFDemux",
    "KindStats",
    "LinearDemux",
    "LookupRecord",
    "LookupResult",
    "MemoryModel",
    "MoveToFrontDemux",
    "MultiCacheDemux",
    "PCB",
    "PacketKind",
    "SendRecvDemux",
    "SequentDemux",
    "available_algorithms",
    "make_algorithm",
]
