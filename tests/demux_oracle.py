"""List-walking reference implementations of the paper's structures.

These are the paper's prose made literal: Python lists of PCBs walked
front to back, comparing four-tuples, with caches holding PCB objects
and the chain hash computed on every packet.  ``src/`` makes the same
decisions on flat arrays of interned integer keys
(:mod:`repro.core.tables`); the golden suite
(``tests/test_fastpath_golden.py``) and the differential property
tests (``tests/property/test_fastpath_equiv.py``) require equal
found/examined/cache-hit decisions, statistics and iteration order on
every input, and ``tests/golden/generate_golden.py`` records the
committed golden traces from these classes.

:func:`make_oracle` builds the oracle twin of any registry spec of the
five structures (``sharded-`` compositions included), configured as
the registry would configure the production class.
"""

from __future__ import annotations

from typing import Iterator, List, Optional, Sequence

from repro.core.base import DemuxAlgorithm, DuplicateConnectionError, LookupResult
from repro.core.bsd import BSDDemux
from repro.core.hashed_mtf import HashedMTFDemux
from repro.core.linear import LinearDemux
from repro.core.mtf import MoveToFrontDemux
from repro.core.pcb import PCB
from repro.core.registry import make_algorithm
from repro.core.sequent import DEFAULT_HASH_CHAINS, SequentDemux
from repro.core.stats import PacketKind
from repro.hashing.functions import HashFunction, default_hash
from repro.packet.addresses import FourTuple
from repro.smp.sharded import ShardedDemux

__all__ = [
    "BSDOracle",
    "HashedMTFOracle",
    "LinearOracle",
    "MoveToFrontOracle",
    "ORACLES",
    "SequentOracle",
    "make_oracle",
]


class _ListDemux(DemuxAlgorithm):
    """One PCB list, head-inserted, with a membership set."""

    def __init__(self) -> None:
        super().__init__()
        self._pcbs: List[PCB] = []
        self._tuples = set()

    def _insert(self, pcb: PCB) -> None:
        if pcb.four_tuple in self._tuples:
            raise DuplicateConnectionError(f"duplicate connection {pcb.four_tuple}")
        # Historical BSD behaviour: new PCBs go at the head.
        self._pcbs.insert(0, pcb)
        self._tuples.add(pcb.four_tuple)

    def _remove(self, tup: FourTuple) -> PCB:
        if tup not in self._tuples:
            raise KeyError(tup)
        for i, pcb in enumerate(self._pcbs):
            if pcb.four_tuple == tup:
                del self._pcbs[i]
                self._tuples.discard(tup)
                self._forget(pcb)
                return pcb
        raise KeyError(tup)  # unreachable if _tuples is consistent

    def _forget(self, pcb: PCB) -> None:
        """Hook for cached subclasses: ``pcb`` was just removed."""

    def __len__(self) -> int:
        return len(self._pcbs)

    def __iter__(self) -> Iterator[PCB]:
        return iter(self._pcbs)


class LinearOracle(_ListDemux):
    """Uncached linear scan (paper Section 1)."""

    name = "oracle-linear"

    def _lookup(self, tup: FourTuple, kind: PacketKind) -> LookupResult:
        examined = 0
        for pcb in self._pcbs:
            examined += 1
            if pcb.four_tuple == tup:
                return LookupResult(pcb, examined, cache_hit=False, kind=kind)
        return LookupResult(None, examined, cache_hit=False, kind=kind)


class BSDOracle(_ListDemux):
    """Linear list fronted by a one-entry last-found cache (Section 3.1)."""

    name = "oracle-bsd"

    def __init__(self) -> None:
        super().__init__()
        self._cache: Optional[PCB] = None

    @property
    def cached_pcb(self) -> Optional[PCB]:
        return self._cache

    def _forget(self, pcb: PCB) -> None:
        if self._cache is pcb:
            self._cache = None

    def _lookup(self, tup: FourTuple, kind: PacketKind) -> LookupResult:
        examined = 0
        if self._cache is not None:
            examined += 1
            if self._cache.four_tuple == tup:
                return LookupResult(self._cache, examined, cache_hit=True, kind=kind)
        for pcb in self._pcbs:
            examined += 1
            if pcb.four_tuple == tup:
                self._cache = pcb
                return LookupResult(pcb, examined, cache_hit=False, kind=kind)
        return LookupResult(None, examined, cache_hit=False, kind=kind)


class MoveToFrontOracle(_ListDemux):
    """Crowcroft's move-to-front list (Section 3.2)."""

    name = "oracle-mtf"

    def _lookup(self, tup: FourTuple, kind: PacketKind) -> LookupResult:
        pcbs = self._pcbs
        for i, pcb in enumerate(pcbs):
            if pcb.four_tuple == tup:
                if i:
                    del pcbs[i]
                    pcbs.insert(0, pcb)
                return LookupResult(pcb, i + 1, cache_hit=False, kind=kind)
        return LookupResult(None, len(pcbs), cache_hit=False, kind=kind)

    def position_of(self, tup: FourTuple) -> int:
        for i, pcb in enumerate(self._pcbs):
            if pcb.four_tuple == tup:
                return i
        raise KeyError(tup)


class _Chain:
    """One hash chain: a PCB list plus a one-entry cache."""

    __slots__ = ("pcbs", "cache")

    def __init__(self) -> None:
        self.pcbs: List[PCB] = []
        self.cache: Optional[PCB] = None


class _ChainedDemux(DemuxAlgorithm):
    """H hash chains; the hash runs on every packet."""

    def __init__(self, nchains: int, hash_function: HashFunction) -> None:
        super().__init__()
        if nchains <= 0:
            raise ValueError(f"nchains must be positive, got {nchains}")
        self._nchains = nchains
        self._hash = hash_function
        self._chains = [_Chain() for _ in range(nchains)]
        self._tuples = set()

    @property
    def nchains(self) -> int:
        return self._nchains

    def chain_lengths(self) -> Sequence[int]:
        return tuple(len(chain.pcbs) for chain in self._chains)

    def chain_of(self, tup: FourTuple) -> int:
        return self._hash(tup, self._nchains)

    def _insert(self, pcb: PCB) -> None:
        if pcb.four_tuple in self._tuples:
            raise DuplicateConnectionError(f"duplicate connection {pcb.four_tuple}")
        chain = self._chains[self.chain_of(pcb.four_tuple)]
        chain.pcbs.insert(0, pcb)
        self._tuples.add(pcb.four_tuple)
        self._inserted(chain)

    def _inserted(self, chain: _Chain) -> None:
        """Hook: ``chain`` just gained a PCB."""

    def _remove(self, tup: FourTuple) -> PCB:
        if tup not in self._tuples:
            raise KeyError(tup)
        chain = self._chains[self.chain_of(tup)]
        for i, pcb in enumerate(chain.pcbs):
            if pcb.four_tuple == tup:
                del chain.pcbs[i]
                self._tuples.discard(tup)
                if chain.cache is pcb:
                    chain.cache = None
                return pcb
        raise KeyError(tup)

    def __len__(self) -> int:
        return len(self._tuples)

    def __iter__(self) -> Iterator[PCB]:
        for chain in self._chains:
            yield from chain.pcbs


class SequentOracle(_ChainedDemux):
    """H hash chains, each a cached linear list (Section 3.4)."""

    name = "oracle-sequent"

    def __init__(
        self,
        nchains: int = DEFAULT_HASH_CHAINS,
        hash_function: HashFunction = default_hash,
        *,
        overload_threshold: Optional[int] = None,
    ):
        super().__init__(nchains, hash_function)
        self._overload_threshold = overload_threshold
        self.chain_overload_events = 0

    def _inserted(self, chain: _Chain) -> None:
        threshold = self._overload_threshold
        if threshold is not None and len(chain.pcbs) > threshold:
            self.chain_overload_events += 1

    def _lookup(self, tup: FourTuple, kind: PacketKind) -> LookupResult:
        chain = self._chains[self.chain_of(tup)]
        examined = 0
        if chain.cache is not None:
            examined += 1
            if chain.cache.four_tuple == tup:
                return LookupResult(chain.cache, examined, cache_hit=True, kind=kind)
        for pcb in chain.pcbs:
            examined += 1
            if pcb.four_tuple == tup:
                chain.cache = pcb
                return LookupResult(pcb, examined, cache_hit=False, kind=kind)
        return LookupResult(None, examined, cache_hit=False, kind=kind)


class HashedMTFOracle(_ChainedDemux):
    """H move-to-front chains, optionally cached (Section 3.5)."""

    name = "oracle-hashed_mtf"

    def __init__(
        self,
        nchains: int = DEFAULT_HASH_CHAINS,
        hash_function: HashFunction = default_hash,
        *,
        per_chain_cache: bool = True,
    ):
        super().__init__(nchains, hash_function)
        self._per_chain_cache = per_chain_cache

    def _lookup(self, tup: FourTuple, kind: PacketKind) -> LookupResult:
        chain = self._chains[self.chain_of(tup)]
        examined = 0
        if self._per_chain_cache and chain.cache is not None:
            examined += 1
            if chain.cache.four_tuple == tup:
                return LookupResult(chain.cache, examined, cache_hit=True, kind=kind)
        pcbs = chain.pcbs
        for i, pcb in enumerate(pcbs):
            examined += 1
            if pcb.four_tuple == tup:
                if i:
                    del pcbs[i]
                    pcbs.insert(0, pcb)
                if self._per_chain_cache:
                    chain.cache = pcb
                return LookupResult(pcb, examined, cache_hit=False, kind=kind)
        return LookupResult(None, examined, cache_hit=False, kind=kind)


#: Production class -> its oracle.
ORACLES = {
    LinearDemux: LinearOracle,
    BSDDemux: BSDOracle,
    MoveToFrontDemux: MoveToFrontOracle,
    SequentDemux: SequentOracle,
    HashedMTFDemux: HashedMTFOracle,
}


def make_oracle(spec: str) -> DemuxAlgorithm:
    """The oracle twin of registry ``spec``, configured alike.

    The registry parses and validates the spec; the oracle copies the
    configuration (chain count, hash, cache and overload options) off
    the production instance it built.  A ``sharded-`` spec shards the
    oracle behind the same steering.
    """
    return _twin(make_algorithm(spec))


def _twin(production: DemuxAlgorithm) -> DemuxAlgorithm:
    if isinstance(production, ShardedDemux):
        inner = production.inner_spec
        return ShardedDemux(
            lambda: make_oracle(inner),
            production.nshards,
            production.steering,
            inner_spec=inner,
        )
    if isinstance(production, SequentDemux):
        return SequentOracle(
            production.nchains,
            production._hash,
            overload_threshold=production.overload_threshold,
        )
    if isinstance(production, HashedMTFDemux):
        return HashedMTFOracle(
            production.nchains,
            production._hash,
            per_chain_cache=production._per_chain_cache,
        )
    return ORACLES[type(production)]()
