"""Publish fast-path counters through the observability registry.

The interned structures keep their own bookkeeping
(:class:`~repro.core.keycache.FastpathCounters`: key interning,
chain-memo traffic, batch amortization) separate from the pinned
``DemuxStats``.  :func:`publish_fastpath` exports those counters as
gauges into a :class:`repro.obs.metrics.MetricsRegistry`, alongside the
demux statistics the existing exporters already publish, so a
``simulate --metrics-out`` run shows how hard the key cache and the
batch loop worked.

Duck-typed like the other exporters: any object with a
``fastpath_counters`` attribute participates; everything else is a
no-op (the function returns ``False`` so callers can tell).
"""

from __future__ import annotations

from typing import Optional

__all__ = ["publish_fastpath"]


def publish_fastpath(
    registry, algorithm, *, label: Optional[str] = None
) -> bool:
    """Export ``algorithm``'s fast-path counters into ``registry``.

    Returns ``True`` when the algorithm carries fast-path counters
    (itself, or any shard of a sharded facade), ``False`` otherwise.
    """
    published = False
    name = label if label is not None else getattr(algorithm, "name", "demux")
    counters = getattr(algorithm, "fastpath_counters", None)
    if counters is not None:
        gauges = registry.gauge(
            "fastpath_counters",
            "fast-path key interning and batch amortization",
        )
        for counter_name, value in counters.as_dict().items():
            gauges.set(value, algorithm=name, counter=counter_name)
        published = True
    published |= _publish_cuckoo(registry, algorithm, name, shard=None)

    shards = getattr(algorithm, "shards", None)
    if shards is not None:
        for index, shard in enumerate(shards):
            published |= _publish_cuckoo(
                registry, shard, name, shard=str(index)
            )
            shard_counters = getattr(shard, "fastpath_counters", None)
            if shard_counters is None:
                continue
            gauges = registry.gauge(
                "fastpath_shard_counters",
                "per-shard fast-path counters",
            )
            for counter_name, value in shard_counters.as_dict().items():
                gauges.set(
                    value,
                    algorithm=name,
                    shard=str(index),
                    counter=counter_name,
                )
            published = True
    return published


def _publish_cuckoo(registry, algorithm, name: str, *, shard) -> bool:
    """Export cuckoo table health (kickouts, stash, pre-filter rate).

    Duck-typed on ``cuckoo_metrics`` like the rest of the exporter;
    shardless structures publish without a ``shard`` label so existing
    dashboards keying on (algorithm, metric) keep working.
    """
    metrics_fn = getattr(algorithm, "cuckoo_metrics", None)
    if metrics_fn is None:
        return False
    gauges = registry.gauge(
        "cuckoo_table",
        "cuckoo table health: kickouts, stash, pre-filter, load",
    )
    labels = {"algorithm": name}
    if shard is not None:
        labels["shard"] = shard
    for metric_name, value in metrics_fn().items():
        gauges.set(value, metric=metric_name, **labels)
    return True
