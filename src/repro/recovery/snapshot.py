"""Versioned, checksummed snapshots of demux decision state.

A snapshot captures everything that determines an algorithm's *future
decisions* -- which PCB a lookup finds, how many PCBs it examines, and
whether a cache satisfies it:

* the PCB population **in structure order** (list order, chain order,
  MTF recency order);
* every cache slot's contents (BSD's last-found slot, Partridge/Pink's
  send/recv pair, the k-entry LRU in LRU order, Sequent's per-chain
  slots);
* the interned structures' logical state -- restoring re-interns
  exactly one key per live connection, re-establishing the KeyCache
  census and the parallel key/PCB arrays -- plus the interning
  counters for observability continuity;
* connection-ID slot/free-list layout (IDs must survive restore);
* sharded wrappers: per-shard snapshots, the flow-director home table,
  steering state (round-robin cursor, sticky pins), migration counts;
* lifecycle reaper state when attached: per-connection last-touch
  times and pending wheel check deadlines.

The guarantee -- ``restore(snapshot(d))`` is decision-identical to
``d`` on any subsequent traffic, per-call and batched -- is enforced by
golden traces (``tests/test_recovery_golden.py``) and differential
property tests (``tests/property/test_recovery_properties.py``).

On the wire a snapshot is a JSON envelope::

    {"format": "repro-demux-snapshot", "version": 1,
     "sha256": "<hex digest of the canonical payload>",
     "payload": {...}}

:func:`open_envelope` recomputes the digest before trusting one byte of
the payload: a corrupted snapshot raises
:class:`SnapshotIntegrityError` (flipped payload bits) or
:class:`SnapshotFormatError` (mangled framing), never restores silently
wrong state.

Restoring builds a fresh instance from the captured registry ``spec``
and replays the population through the public ``insert`` path in
reverse structure order (every structure head-inserts, so reverse
replay reproduces the exact order), then re-imposes cache slots
directly.  Pass ``pcbs`` (a four-tuple -> live PCB mapping, e.g. the
supervisor's connection directory) to re-link the restored structure to
surviving PCB *objects* -- on an SMP the PCBs live in shared memory and
outlive the per-CPU index structure -- instead of deserialized copies.
"""

from __future__ import annotations

import hashlib
import json
from typing import Any, Dict, List, Mapping, Optional

from ..core.base import DemuxAlgorithm
from ..core.bsd import BSDDemux
from ..core.connection_id import ConnectionIdDemux
from ..core.hashed_mtf import HashedMTFDemux
from ..core.keycache import InternedDemux
from ..core.multicache import MultiCacheDemux
from ..core.pcb import PCB
from ..core.registry import make_algorithm
from ..core.sendrecv import SendRecvDemux
from ..core.sequent import SequentDemux
from ..core.stats import DemuxStats
from ..fastpath.cuckoo import FastCuckooDemux
from ..hashing.functions import HASH_FUNCTIONS
from ..packet.addresses import FourTuple
from ..smp.sharded import ShardedDemux
from ..smp.steering import (
    HashSteering,
    RoundRobinSteering,
    StickyFlowSteering,
)

__all__ = [
    "SNAPSHOT_FORMAT",
    "SNAPSHOT_VERSION",
    "SnapshotError",
    "SnapshotFormatError",
    "SnapshotIntegrityError",
    "capture_state",
    "open_envelope",
    "restore_bytes",
    "restore_state",
    "snapshot_bytes",
    "to_envelope",
]

SNAPSHOT_FORMAT = "repro-demux-snapshot"
SNAPSHOT_VERSION = 1


class SnapshotError(Exception):
    """Base error for snapshot capture/restore."""


class SnapshotFormatError(SnapshotError):
    """The blob is not a well-formed snapshot of a known version."""


class SnapshotIntegrityError(SnapshotError):
    """The payload does not match its checksum (corruption)."""


# -- PCB / tuple wire form ---------------------------------------------

#: PCB fields serialized verbatim (``user_data`` is an application
#: handle and is intentionally excluded; pass ``pcbs=`` at restore to
#: keep live objects, handles included).
_PCB_FIELDS = (
    "state", "snd_una", "snd_nxt", "snd_wnd", "rcv_nxt", "rcv_wnd",
    "iss", "irs", "mss", "srtt", "rttvar", "rto",
    "packets_in", "packets_out", "bytes_in", "bytes_out",
)


def _tuple_to_wire(tup: FourTuple) -> List[Any]:
    return [
        str(tup.local_addr), tup.local_port,
        str(tup.remote_addr), tup.remote_port,
    ]


def _tuple_from_wire(wire: List[Any]) -> FourTuple:
    try:
        return FourTuple(wire[0], wire[1], wire[2], wire[3])
    except Exception as exc:
        raise SnapshotFormatError(f"bad four-tuple {wire!r}: {exc}") from exc


def _pcb_to_wire(pcb: PCB) -> Dict[str, Any]:
    wire: Dict[str, Any] = {"tuple": _tuple_to_wire(pcb.four_tuple)}
    for field in _PCB_FIELDS:
        wire[field] = getattr(pcb, field)
    return wire


def _pcb_from_wire(wire: Dict[str, Any]) -> PCB:
    pcb = PCB(_tuple_from_wire(wire["tuple"]))
    for field in _PCB_FIELDS:
        if field in wire:
            setattr(pcb, field, wire[field])
    return pcb


class _Resolver:
    """Maps wire PCBs back to objects, preferring surviving live ones."""

    def __init__(self, pcbs: Optional[Mapping[FourTuple, PCB]]):
        self._live = pcbs
        self.by_tuple: Dict[FourTuple, PCB] = {}

    def resolve(self, wire: Dict[str, Any]) -> PCB:
        tup = _tuple_from_wire(wire["tuple"])
        obj = self._live.get(tup) if self._live is not None else None
        if obj is None:
            obj = _pcb_from_wire(wire)
        self.by_tuple[tup] = obj
        return obj

    def cached(self, wire: List[Any], what: str) -> PCB:
        """The already-restored PCB a cache slot references."""
        tup = _tuple_from_wire(wire)
        obj = self.by_tuple.get(tup)
        if obj is None:
            raise SnapshotFormatError(
                f"{what} references {tup}, which is not in the population"
            )
        return obj


# -- capture ------------------------------------------------------------

def capture_state(
    algorithm: DemuxAlgorithm, spec: Optional[str] = None
) -> Dict[str, Any]:
    """The JSON-able decision state of ``algorithm``.

    ``spec`` defaults to the registry spec stamped by
    :func:`~repro.core.registry.make_algorithm`; directly constructed
    instances must pass it explicitly so restore knows what to build.
    """
    if not getattr(algorithm, "snapshottable", True):
        raise SnapshotError(
            f"{algorithm.name} is a supervisor facade, not a structure;"
            " checkpoint its shards (ShardSupervisor.checkpoint) instead"
        )
    spec = spec or algorithm.spec
    if not spec:
        raise SnapshotError(
            f"{algorithm.name} has no registry spec; pass spec= so"
            " restore knows what to rebuild"
        )
    if isinstance(algorithm, ShardedDemux):
        return _capture_sharded(algorithm, spec)
    return _capture_single(algorithm, spec)


def _capture_single(algorithm: DemuxAlgorithm, spec: str) -> Dict[str, Any]:
    return {
        "kind": "single",
        "spec": spec,
        "name": algorithm.name,
        "pcbs": [_pcb_to_wire(pcb) for pcb in algorithm],
        "stats": algorithm.stats.as_dict(),
        "extra": _capture_extra(algorithm),
        "lifecycle": _capture_lifecycle(algorithm),
    }


def _cache_wire(pcb: Optional[PCB]) -> Optional[List[Any]]:
    return None if pcb is None else _tuple_to_wire(pcb.four_tuple)


def _capture_extra(algorithm: DemuxAlgorithm) -> Dict[str, Any]:
    extra: Dict[str, Any] = {}
    if isinstance(algorithm, BSDDemux):
        extra["cache"] = _cache_wire(algorithm.cached_pcb)
    elif isinstance(algorithm, SendRecvDemux):
        extra["recv_cache"] = _cache_wire(algorithm.recv_cached_pcb)
        extra["send_cache"] = _cache_wire(algorithm.send_cached_pcb)
    elif isinstance(algorithm, MultiCacheDemux):
        # OrderedDict iterates LRU -> MRU; preserved verbatim.
        extra["cache_lru"] = [
            _tuple_to_wire(tup) for tup in algorithm._cache.keys()
        ]
    elif isinstance(algorithm, (SequentDemux, HashedMTFDemux)):
        extra["chain_caches"] = [
            [index, _tuple_to_wire(slot.pcb.four_tuple)]
            for index, slot in enumerate(algorithm._caches)
            if slot.key is not None
        ]
        if isinstance(algorithm, SequentDemux):
            extra["overload_events"] = algorithm.chain_overload_events
    elif isinstance(algorithm, ConnectionIdDemux):
        extra["slots"] = [
            _cache_wire(pcb) for pcb in algorithm._slots
        ]
        extra["free"] = list(algorithm._free)
    elif isinstance(algorithm, FastCuckooDemux):
        # The physical layout *is* the decision state: slot placement
        # came from kickout history that an insert replay cannot
        # reproduce, so capture it verbatim.  Pre-filters are a pure
        # function of the placement and are re-derived on restore.
        extra["cuckoo"] = {
            "nbuckets": algorithm.nbuckets,
            "bucket_size": algorithm.bucket_size,
            "kick_cursor": algorithm._kick_cursor,
            "slots": [
                [index, _tuple_to_wire(pcb.four_tuple)]
                for index, pcb in enumerate(algorithm._slot_pcbs)
                if algorithm._slot_fps[index]
            ],
            "stash": [
                _tuple_to_wire(pcb.four_tuple)
                for _key, pcb, _fp in algorithm._stash
            ],
            "counters": algorithm.cuckoo_counters.as_dict(),
        }
    if isinstance(algorithm, InternedDemux):
        # The KeyCache intern census: one memo per live connection by
        # the memory-bounds contract.  Recorded for post-restore
        # verification; counters for observability continuity.
        extra["fastpath"] = {
            "interned": algorithm.interned_entries,
            "counters": algorithm.fastpath_counters.as_dict(),
        }
    return extra


def _capture_lifecycle(algorithm: DemuxAlgorithm) -> Optional[Dict[str, Any]]:
    reaper = algorithm.lifecycle
    if reaper is None:
        return None
    from ..lifecycle.reaper import ConnectionReaper

    if not isinstance(reaper, ConnectionReaper):
        return None
    entries = []
    for tup, last_touch in reaper._last_touch.items():
        deadline = (
            reaper.wheel.deadline_of(tup) if tup in reaper.wheel else None
        )
        entries.append([_tuple_to_wire(tup), last_touch, deadline])
    return {
        "idle_timeout": reaper.idle_timeout,
        "time_wait": reaper.time_wait,
        "now": reaper.now,
        "wheel_tick": reaper.wheel.tick,
        "entries": entries,
    }


def _steering_spec(steering: Any) -> str:
    if isinstance(steering, HashSteering):
        for name, fn in HASH_FUNCTIONS.items():
            if fn is steering._hash:
                from ..hashing.functions import default_hash

                return "hash" if fn is default_hash else f"hash={name}"
        raise SnapshotError(
            "hash steering uses an unregistered hash function; cannot"
            " serialize it"
        )
    return steering.name


def _capture_sharded(algorithm: ShardedDemux, spec: str) -> Dict[str, Any]:
    inner_spec = algorithm.inner_spec
    shards = []
    for shard in algorithm.shards:
        shard_spec = shard.spec or inner_spec
        if not shard_spec:
            raise SnapshotError(
                "sharded structure's shards carry no registry spec;"
                " build it through make_algorithm or pass inner_spec"
            )
        shards.append(_capture_single(shard, shard_spec))
    steering = algorithm.steering
    steering_state: Dict[str, Any] = {"spec": _steering_spec(steering)}
    if isinstance(steering, RoundRobinSteering):
        steering_state["rr_next"] = steering._next
    elif isinstance(steering, StickyFlowSteering):
        steering_state["sticky_flows"] = [
            [_tuple_to_wire(tup), shard]
            for tup, shard in steering._flows.items()
        ]
        steering_state["sticky_assigned"] = steering.assigned_loads()
    return {
        "kind": "sharded",
        "spec": spec,
        "name": algorithm.name,
        "inner_spec": inner_spec,
        "nshards": algorithm.nshards,
        "home": [
            [_tuple_to_wire(tup), shard]
            for tup, shard in algorithm.home_table().items()
        ],
        "steering": steering_state,
        "flow_migrations": algorithm.flow_migrations,
        "migration_relookups": list(algorithm.migration_loads()),
        "stats": algorithm.stats.as_dict(),
        "shards": shards,
        "lifecycle": _capture_lifecycle(algorithm),
    }


# -- restore ------------------------------------------------------------

def restore_state(
    payload: Dict[str, Any],
    *,
    pcbs: Optional[Mapping[FourTuple, PCB]] = None,
) -> DemuxAlgorithm:
    """Rebuild a decision-identical structure from a captured payload.

    ``pcbs`` optionally maps four-tuples to surviving live PCB objects
    (the supervisor's connection directory); matching connections are
    re-linked to those objects instead of deserialized copies, so
    owners holding PCB references (the TCP stack, workloads) stay
    coherent across a restore.
    """
    try:
        kind = payload["kind"]
    except (TypeError, KeyError):
        raise SnapshotFormatError("payload has no 'kind' field") from None
    if kind == "sharded":
        return _restore_sharded(payload, pcbs)
    if kind == "single":
        return _restore_single(payload, pcbs)
    raise SnapshotFormatError(f"unknown payload kind {kind!r}")


def _restore_single(
    payload: Dict[str, Any],
    pcbs: Optional[Mapping[FourTuple, PCB]],
) -> DemuxAlgorithm:
    try:
        algorithm = make_algorithm(payload["spec"])
    except ValueError as exc:
        raise SnapshotFormatError(
            f"snapshot spec {payload.get('spec')!r} does not build: {exc}"
        ) from exc
    resolver = _Resolver(pcbs)
    extra = payload.get("extra", {})
    if isinstance(algorithm, ConnectionIdDemux):
        _restore_connection_id(algorithm, payload, extra, resolver)
    elif isinstance(algorithm, FastCuckooDemux):
        _restore_cuckoo(algorithm, payload, extra, resolver)
        _restore_extra(algorithm, extra, resolver)
    else:
        # Every list/chain structure head-inserts, so replaying the
        # captured structure order *in reverse* reproduces it exactly
        # (per chain too: relative order within a chain is preserved).
        for wire in reversed(payload["pcbs"]):
            algorithm.insert(resolver.resolve(wire))
        _restore_extra(algorithm, extra, resolver)
    try:
        algorithm.stats = DemuxStats.from_dict(payload["stats"])
    except (KeyError, TypeError, ValueError) as exc:
        raise SnapshotFormatError(f"bad stats block: {exc}") from exc
    _verify_fastpath_census(algorithm, extra)
    lifecycle = payload.get("lifecycle")
    if lifecycle is not None:
        _restore_lifecycle(algorithm, lifecycle, resolver)
    return algorithm


def _restore_connection_id(
    algorithm: ConnectionIdDemux,
    payload: Dict[str, Any],
    extra: Dict[str, Any],
    resolver: _Resolver,
) -> None:
    # IDs are negotiated state: lookup_by_id must keep resolving the
    # same connections, so the slot array and free list are restored
    # verbatim rather than replayed through insert (which would
    # renumber).
    wires = {
        tuple(wire["tuple"]): wire for wire in payload["pcbs"]
    }
    slots: List[Optional[PCB]] = []
    ids: Dict[FourTuple, int] = {}
    for cid, slot_wire in enumerate(extra.get("slots", [])):
        if slot_wire is None:
            slots.append(None)
            continue
        pcb_wire = wires.get(tuple(slot_wire))
        if pcb_wire is None:
            raise SnapshotFormatError(
                f"slot {cid} references a PCB missing from the population"
            )
        pcb = resolver.resolve(pcb_wire)
        slots.append(pcb)
        ids[pcb.four_tuple] = cid
    free = [int(cid) for cid in extra.get("free", [])]
    if len(ids) != len(payload["pcbs"]):
        raise SnapshotFormatError(
            "connection-ID slot table disagrees with the PCB population"
        )
    algorithm._slots = slots
    algorithm._free = free
    algorithm._ids = ids


def _restore_cuckoo(
    algorithm: FastCuckooDemux,
    payload: Dict[str, Any],
    extra: Dict[str, Any],
    resolver: _Resolver,
) -> None:
    # Slot placement is kickout history that an insert replay cannot
    # reproduce, so -- like connection IDs -- the physical layout is
    # restored verbatim.  Pre-filters are re-derived by the restore
    # hooks (they are a pure function of the placement).
    data = extra.get("cuckoo")
    if data is None:
        raise SnapshotFormatError(
            "cuckoo snapshot is missing its layout block"
        )
    nbuckets = int(data["nbuckets"])
    if nbuckets < 2:
        raise SnapshotFormatError(
            f"cuckoo snapshot has {nbuckets} buckets (need >= 2)"
        )
    if int(data["bucket_size"]) != algorithm.bucket_size:
        raise SnapshotFormatError(
            f"cuckoo snapshot has {data['bucket_size']}-slot buckets"
            f" but spec {payload.get('spec')!r} builds"
            f" {algorithm.bucket_size}-slot buckets"
        )
    wires = {tuple(wire["tuple"]): wire for wire in payload["pcbs"]}
    algorithm._alloc(nbuckets)
    restored = 0
    try:
        for index, tup_wire in data.get("slots", []):
            pcb_wire = wires.get(tuple(tup_wire))
            if pcb_wire is None:
                raise SnapshotFormatError(
                    f"cuckoo slot {index} references a PCB missing"
                    " from the population"
                )
            algorithm.restore_slot(int(index), resolver.resolve(pcb_wire))
            restored += 1
        for tup_wire in data.get("stash", []):
            pcb_wire = wires.get(tuple(tup_wire))
            if pcb_wire is None:
                raise SnapshotFormatError(
                    "cuckoo stash references a PCB missing from the"
                    " population"
                )
            algorithm.restore_stash(resolver.resolve(pcb_wire))
            restored += 1
    except (ValueError, IndexError) as exc:
        raise SnapshotFormatError(
            f"cuckoo layout does not restore: {exc}"
        ) from exc
    if restored != len(payload["pcbs"]):
        raise SnapshotFormatError(
            f"cuckoo layout places {restored} PCBs but the population"
            f" holds {len(payload['pcbs'])}"
        )
    algorithm._kick_cursor = int(data.get("kick_cursor", 0))
    counters = data.get("counters")
    if counters:
        for field, value in counters.items():
            if hasattr(algorithm.cuckoo_counters, field):
                setattr(algorithm.cuckoo_counters, field, int(value))


def _restore_extra(
    algorithm: DemuxAlgorithm,
    extra: Dict[str, Any],
    resolver: _Resolver,
) -> None:
    if isinstance(algorithm, BSDDemux):
        wire = extra.get("cache")
        if wire is not None:
            pcb = resolver.cached(wire, "bsd cache")
            algorithm._cache.set(pcb.four_tuple.key_bits(), pcb)
    elif isinstance(algorithm, SendRecvDemux):
        for field, label in (
            ("_recv_cache", "recv_cache"), ("_send_cache", "send_cache"),
        ):
            wire = extra.get(label)
            if wire is not None:
                setattr(algorithm, field, resolver.cached(wire, label))
    elif isinstance(algorithm, MultiCacheDemux):
        for wire in extra.get("cache_lru", []):
            pcb = resolver.cached(wire, "lru cache")
            algorithm._cache[pcb.four_tuple] = pcb
    elif isinstance(algorithm, (SequentDemux, HashedMTFDemux)):
        for index, wire in extra.get("chain_caches", []):
            _check_chain(algorithm._caches, index)
            pcb = resolver.cached(wire, f"chain {index} cache")
            algorithm._caches[index].set(pcb.four_tuple.key_bits(), pcb)
        if isinstance(algorithm, SequentDemux):
            algorithm.chain_overload_events = int(
                extra.get("overload_events", 0)
            )
    if isinstance(algorithm, InternedDemux):
        counters = extra.get("fastpath", {}).get("counters")
        if counters:
            for field, value in counters.items():
                if hasattr(algorithm.fastpath_counters, field):
                    setattr(algorithm.fastpath_counters, field, int(value))


def _check_chain(chains: List[Any], index: Any) -> None:
    if not isinstance(index, int) or not 0 <= index < len(chains):
        raise SnapshotFormatError(
            f"cache references chain {index!r} of {len(chains)}"
        )


def _verify_fastpath_census(
    algorithm: DemuxAlgorithm, extra: Dict[str, Any]
) -> None:
    if not isinstance(algorithm, InternedDemux):
        return
    interned = algorithm.interned_entries
    if interned != len(algorithm):
        raise SnapshotError(
            f"restore broke the intern census: {interned} memos for"
            f" {len(algorithm)} live connections"
        )
    recorded = extra.get("fastpath", {}).get("interned")
    if recorded is not None and recorded != interned:
        raise SnapshotFormatError(
            f"snapshot recorded {recorded} interned keys but the"
            f" population restores {interned}"
        )


def _restore_lifecycle(
    algorithm: DemuxAlgorithm,
    data: Dict[str, Any],
    resolver: _Resolver,
) -> None:
    from ..lifecycle.reaper import ConnectionReaper
    from ..lifecycle.wheel import TimerWheel

    wheel = TimerWheel(tick=float(data["wheel_tick"]))
    reaper = ConnectionReaper(
        algorithm,
        idle_timeout=data.get("idle_timeout"),
        time_wait=data.get("time_wait"),
        wheel=wheel,
    )
    now = float(data.get("now", 0.0))
    # The constructor adopted the population at wheel time zero; move
    # the wheel to snapshot time (discarding the adoption timers that
    # "expired" on the way) and re-arm the captured check deadlines and
    # last-touch times.  The true deadline is last_touch + timeout
    # (lazy-deadline design), so restoring both reproduces reap timing.
    wheel.advance(now)
    reaper._now = max(reaper._now, now)
    for wire, last_touch, deadline in data.get("entries", []):
        tup = _tuple_from_wire(wire)
        if tup not in reaper._last_touch:
            raise SnapshotFormatError(
                f"lifecycle entry for {tup} has no restored connection"
            )
        reaper._last_touch[tup] = float(last_touch)
        if deadline is None:
            wheel.cancel(tup)
        else:
            wheel.schedule(tup, float(deadline))


def _restore_sharded(
    payload: Dict[str, Any],
    pcbs: Optional[Mapping[FourTuple, PCB]],
) -> ShardedDemux:
    try:
        algorithm = make_algorithm(payload["spec"])
    except ValueError as exc:
        raise SnapshotFormatError(
            f"snapshot spec {payload.get('spec')!r} does not build: {exc}"
        ) from exc
    if not isinstance(algorithm, ShardedDemux):
        raise SnapshotFormatError(
            f"spec {payload['spec']!r} is not sharded but the payload is"
        )
    shard_payloads = payload.get("shards", [])
    if len(shard_payloads) != algorithm.nshards:
        raise SnapshotFormatError(
            f"payload has {len(shard_payloads)} shards,"
            f" spec builds {algorithm.nshards}"
        )
    for index, shard_payload in enumerate(shard_payloads):
        algorithm.replace_shard(
            index, _restore_single(shard_payload, pcbs)
        )
    algorithm._home = {
        _tuple_from_wire(wire): int(shard)
        for wire, shard in payload.get("home", [])
    }
    steering_state = payload.get("steering", {})
    steering = algorithm.steering
    if isinstance(steering, RoundRobinSteering):
        steering._next = int(steering_state.get("rr_next", 0))
    elif isinstance(steering, StickyFlowSteering):
        for wire, shard in steering_state.get("sticky_flows", []):
            steering._flows[_tuple_from_wire(wire)] = int(shard)
        steering._assigned = [
            int(load) for load in steering_state.get("sticky_assigned", [])
        ]
    algorithm.flow_migrations = int(payload.get("flow_migrations", 0))
    relookups = payload.get("migration_relookups")
    if relookups is not None:  # absent in pre-attribution snapshots
        algorithm._migration_relookups = [int(n) for n in relookups]
    try:
        algorithm.stats = DemuxStats.from_dict(payload["stats"])
    except (KeyError, TypeError, ValueError) as exc:
        raise SnapshotFormatError(f"bad stats block: {exc}") from exc
    lifecycle = payload.get("lifecycle")
    if lifecycle is not None:
        _restore_lifecycle(algorithm, lifecycle, _Resolver(pcbs))
    return algorithm


# -- the checksummed envelope ------------------------------------------

def _canonical(payload: Dict[str, Any]) -> bytes:
    return json.dumps(
        payload, sort_keys=True, separators=(",", ":")
    ).encode("utf-8")


def to_envelope(payload: Dict[str, Any]) -> bytes:
    """Frame a captured payload as versioned, checksummed bytes."""
    body = _canonical(payload)
    envelope = {
        "format": SNAPSHOT_FORMAT,
        "version": SNAPSHOT_VERSION,
        "sha256": hashlib.sha256(body).hexdigest(),
        "payload": payload,
    }
    return json.dumps(envelope, sort_keys=True).encode("utf-8")


def snapshot_bytes(
    algorithm: DemuxAlgorithm, spec: Optional[str] = None
) -> bytes:
    """Capture ``algorithm`` into checksummed snapshot bytes."""
    return to_envelope(capture_state(algorithm, spec))


def open_envelope(blob: bytes) -> Dict[str, Any]:
    """Verify framing, version, and checksum; return the payload.

    Raises :class:`SnapshotFormatError` for anything that does not
    parse as a current-version snapshot and
    :class:`SnapshotIntegrityError` when the payload fails its
    checksum.  Never returns unverified state.
    """
    try:
        envelope = json.loads(blob.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise SnapshotFormatError(f"not a snapshot: {exc}") from exc
    if not isinstance(envelope, dict):
        raise SnapshotFormatError("not a snapshot: envelope is not an object")
    if envelope.get("format") != SNAPSHOT_FORMAT:
        raise SnapshotFormatError(
            f"unknown snapshot format {envelope.get('format')!r}"
        )
    version = envelope.get("version")
    if version != SNAPSHOT_VERSION:
        raise SnapshotFormatError(
            f"unsupported snapshot version {version!r}"
            f" (this build reads version {SNAPSHOT_VERSION})"
        )
    payload = envelope.get("payload")
    recorded = envelope.get("sha256")
    if not isinstance(payload, dict) or not isinstance(recorded, str):
        raise SnapshotFormatError("snapshot envelope is missing fields")
    actual = hashlib.sha256(_canonical(payload)).hexdigest()
    if actual != recorded:
        raise SnapshotIntegrityError(
            f"snapshot checksum mismatch: recorded {recorded[:12]}...,"
            f" computed {actual[:12]}... -- refusing to restore"
        )
    # The digest covers the parsed payload, not the bytes: a flip that
    # only changes JSON whitespace would otherwise pass unnoticed.
    if json.dumps(envelope, sort_keys=True).encode("utf-8") != blob:
        raise SnapshotFormatError("snapshot bytes are not in canonical form")
    return payload


def restore_bytes(
    blob: bytes,
    *,
    pcbs: Optional[Mapping[FourTuple, PCB]] = None,
) -> DemuxAlgorithm:
    """Verify + restore in one step (see :func:`open_envelope`)."""
    return restore_state(open_envelope(blob), pcbs=pcbs)
