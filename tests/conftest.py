"""Shared fixtures for the test suite."""

from __future__ import annotations

import random

import pytest

from repro.core.bsd import BSDDemux
from repro.core.connection_id import ConnectionIdDemux
from repro.core.hashed_mtf import HashedMTFDemux
from repro.core.linear import LinearDemux
from repro.core.mtf import MoveToFrontDemux
from repro.core.multicache import MultiCacheDemux
from repro.core.pcb import PCB
from repro.core.registry import make_algorithm
from repro.core.sendrecv import SendRecvDemux
from repro.core.sequent import SequentDemux
from repro.fastpath.cuckoo import FastCuckooDemux
from repro.packet.addresses import FourTuple, IPv4Address

from demux_oracle import (
    BSDOracle,
    HashedMTFOracle,
    LinearOracle,
    MoveToFrontOracle,
    SequentOracle,
)

#: Factories for every demux algorithm.  Tests that assert
#: interface-level behaviour parametrize over these.  Each structure's
#: class appears once under its paper name; the ``fast-`` entries
#: build the same classes through the registry from the alias
#: spelling, so the spec path is held to the same contract; the
#: ``oracle-`` entries are the list-walking references from
#: tests/demux_oracle.py, which must pass every contract too.
ALL_ALGORITHM_FACTORIES = {
    "linear": LinearDemux,
    "bsd": BSDDemux,
    "mtf": MoveToFrontDemux,
    "multicache": lambda: MultiCacheDemux(4),
    "sendrecv": SendRecvDemux,
    "sequent": lambda: SequentDemux(7),
    "hashed_mtf": lambda: HashedMTFDemux(7),
    "connection_id": ConnectionIdDemux,
    # Small geometry so interface-level churn also exercises kickouts,
    # the stash, and resizes (not just the easy free-slot path).
    "fast-cuckoo": lambda: FastCuckooDemux(
        buckets=2, slots=2, stash=2, kick=4
    ),
    "fast-linear": lambda: make_algorithm("fast-linear"),
    "fast-bsd": lambda: make_algorithm("fast-bsd"),
    "fast-mtf": lambda: make_algorithm("fast-mtf"),
    "fast-sequent": lambda: make_algorithm("fast-sequent:h=7"),
    "fast-hashed_mtf": lambda: make_algorithm("fast-hashed_mtf:h=7"),
    "oracle-linear": LinearOracle,
    "oracle-bsd": BSDOracle,
    "oracle-mtf": MoveToFrontOracle,
    "oracle-sequent": lambda: SequentOracle(7),
    "oracle-hashed_mtf": lambda: HashedMTFOracle(7),
}


def make_tuple(index: int, *, server_port: int = 1521) -> FourTuple:
    """A distinct, valid four-tuple per index (deterministic)."""
    return FourTuple(
        IPv4Address("10.0.0.1"),
        server_port,
        IPv4Address("10.1.0.0") + (index + 1),
        40000 + (index % 20000),
    )


def make_pcbs(count: int) -> list:
    """``count`` distinct PCBs."""
    return [PCB(make_tuple(i)) for i in range(count)]


@pytest.fixture
def rng():
    return random.Random(12345)


@pytest.fixture(params=sorted(ALL_ALGORITHM_FACTORIES))
def any_algorithm(request):
    """One instance of each demux algorithm (parametrized)."""
    return ALL_ALGORITHM_FACTORIES[request.param]()


@pytest.fixture(
    params=["linear", "bsd", "mtf", "multicache", "sendrecv", "sequent",
            "hashed_mtf", "fast-linear", "fast-bsd", "fast-mtf",
            "fast-sequent", "fast-hashed_mtf", "oracle-linear",
            "oracle-bsd", "oracle-mtf", "oracle-sequent",
            "oracle-hashed_mtf"]
)
def scanning_algorithm(request):
    """Algorithms whose lookups actually scan (excludes connection_id)."""
    return ALL_ALGORITHM_FACTORIES[request.param]()
