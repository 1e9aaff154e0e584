"""Publish lifecycle/retention gauges through the observability layer.

Two gauge families, in the style of the other ``publish_*`` exporters
(duck-typed, registry-agnostic, no hard dependency from the lifecycle
machinery on :mod:`repro.obs`):

* ``lifecycle_reaper`` -- the reaper's counters (:class:`~repro.
  lifecycle.reaper.ReapStats`) plus its live-connection and pending-
  timer population;
* ``lifecycle_retention`` -- live PCBs vs interned fast-path keys, the
  pair the leak audit compares.  A structure with no intern table
  (sendrecv, multicache) publishes only the live count.
"""

from __future__ import annotations

from typing import Optional

__all__ = ["count_interned", "publish_lifecycle"]


def count_interned(algorithm) -> Optional[int]:
    """Total interned fast-path entries held by ``algorithm``.

    Duck-typed: sums ``interned_entries`` over the structure itself
    and, for sharded facades, every shard.  Returns ``None`` when
    nothing interns (sendrecv, multicache) -- "no intern table" and
    "empty intern table" are different answers to a leak audit.
    """
    total: Optional[int] = None
    own = getattr(algorithm, "interned_entries", None)
    if own is not None:
        total = own
    for shard in getattr(algorithm, "shards", ()) or ():
        shard_count = getattr(shard, "interned_entries", None)
        if shard_count is not None:
            total = (total or 0) + shard_count
    return total


def publish_lifecycle(
    registry, reaper, *, label: Optional[str] = None
) -> None:
    """Export ``reaper``'s stats and retention gauges into ``registry``."""
    algorithm = reaper.algorithm
    name = label if label is not None else getattr(algorithm, "name", "demux")
    gauges = registry.gauge(
        "lifecycle_reaper",
        "connection reaping: evictions, wakeups, timer traffic",
    )
    for counter_name, value in reaper.stats.as_dict().items():
        gauges.set(value, algorithm=name, counter=counter_name)
    gauges.set(reaper.live, algorithm=name, counter="live_connections")
    gauges.set(len(reaper.wheel), algorithm=name, counter="pending_timers")

    retention = registry.gauge(
        "lifecycle_retention",
        "live PCBs vs interned fast-path keys (leak-audit pair)",
    )
    retention.set(len(algorithm), algorithm=name, population="live_pcbs")
    interned = count_interned(algorithm)
    if interned is not None:
        retention.set(interned, algorithm=name, population="interned_keys")
