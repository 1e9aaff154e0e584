"""Shared workload result types.

Every workload (TPC/A, packet trains, polling, mixes) runs some traffic
against a demultiplexing algorithm and reports a :class:`WorkloadResult`
snapshot of the algorithm's lookup statistics, so experiments compare
algorithms and workloads through one shape.
"""

from __future__ import annotations

import dataclasses

from ..core.base import DemuxAlgorithm
from ..core.stats import PacketKind
from ..sim.engine import Simulator

__all__ = ["WorkloadResult", "bind_tracer_clock"]


def bind_tracer_clock(algorithm: DemuxAlgorithm, sim: Simulator) -> None:
    """Stamp the algorithm's observer events with ``sim``'s virtual time.

    Simulation-driven workloads call this right after constructing
    their :class:`Simulator`, so an observer with a ``clock`` (tracer,
    span collector) attached to the algorithm *before* the workload is
    built gets virtual timestamps without any caller plumbing.  An
    already-bound clock is left alone (the caller may have bound
    something deliberately).
    """
    for observer in algorithm.observers():
        if getattr(observer, "clock", False) is None:
            observer.clock = lambda: sim.now


@dataclasses.dataclass(frozen=True)
class WorkloadResult:
    """Measured demultiplexing cost of one workload run."""

    algorithm: str
    workload: str
    n_connections: int
    sim_time: float
    lookups: int
    #: Mean PCBs examined per inbound packet -- the paper's figure of merit.
    mean_examined: float
    data_lookups: int
    data_mean_examined: float
    ack_lookups: int
    ack_mean_examined: float
    cache_hit_rate: float
    ack_cache_hit_rate: float
    max_examined: int

    @classmethod
    def from_algorithm(
        cls,
        algorithm: DemuxAlgorithm,
        *,
        workload: str,
        n_connections: int,
        sim_time: float,
    ) -> "WorkloadResult":
        """Snapshot ``algorithm.stats`` into a result record."""
        stats = algorithm.stats
        data = stats.kind(PacketKind.DATA)
        ack = stats.kind(PacketKind.ACK)
        combined = stats.combined()
        return cls(
            algorithm=algorithm.name,
            workload=workload,
            n_connections=n_connections,
            sim_time=sim_time,
            lookups=stats.lookups,
            mean_examined=stats.mean_examined,
            data_lookups=data.lookups,
            data_mean_examined=data.mean_examined,
            ack_lookups=ack.lookups,
            ack_mean_examined=ack.mean_examined,
            cache_hit_rate=stats.hit_rate,
            ack_cache_hit_rate=ack.hit_rate,
            max_examined=combined.max_examined,
        )

    def summary(self) -> str:
        return (
            f"{self.workload}/{self.algorithm}:"
            f" N={self.n_connections}"
            f" lookups={self.lookups}"
            f" mean={self.mean_examined:.2f}"
            f" (data {self.data_mean_examined:.2f},"
            f" ack {self.ack_mean_examined:.2f})"
            f" hit={self.cache_hit_rate:.2%}"
        )
