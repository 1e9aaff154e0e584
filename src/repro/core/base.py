"""The demultiplexing-algorithm interface.

Each algorithm from the paper (and each extension) is a mutable
container of PCBs with one hot operation:

    ``lookup(four_tuple, kind)`` -> :class:`LookupResult`

The result carries the number of PCBs the structure *examined* -- the
paper's figure of merit -- which the base class feeds into a
:class:`~repro.core.stats.DemuxStats` automatically.

Counting convention (pinned so simulations match the paper's formulas):

* comparing a four-tuple against one PCB costs one "examined", whether
  that PCB sits in a cache slot or in a list;
* an *empty* cache slot costs nothing (nothing was fetched);
* computing a hash costs nothing (Section 3.5 treats the hash
  computation as negligible next to PCB memory traffic).

Under this convention BSD's expected miss cost is the paper's
``1 + (N+1)/2``, Partridge/Pink's is ``(N+5)/2``, and Sequent's is
``1 + (N/H+1)/2``, exactly as in Sections 3.1-3.4.

Observers (docs/observability.md): the public ``lookup`` / ``insert``
/ ``remove`` / ``note_send`` template methods wrap the subclass
primitives ``_lookup`` / ``_insert`` / ``_remove`` / ``_note_send``
with statistics and one hook, ``self.observer`` -- ``None`` by default,
so the bare path pays one ``is None`` check.  :meth:`~DemuxAlgorithm.
attach` fills it with any object with ``on_lookup(algorithm, lookup,
tup, kind)``, which calls ``lookup(tup, kind)`` once and returns the
result (so a profiler can time it), and the notifications
``on_insert(algorithm, pcb)``, ``on_remove(algorithm, tup)`` and
``on_send(algorithm, pcb)``.  The tracer, profiler and span collector
(:mod:`repro.obs`) and the idle reaper (:mod:`repro.lifecycle`) are
observers; several share the slot through an :class:`ObserverFanout`.
None changes a decision; the reaper may *remove* connections.
"""

from __future__ import annotations

import abc
import dataclasses
from functools import partial
from typing import Iterator, List, Optional, Sequence, Tuple

from ..packet.addresses import FourTuple
from .pcb import PCB
from .stats import DemuxStats, PacketKind

__all__ = [
    "DemuxError",
    "DuplicateConnectionError",
    "LookupResult",
    "DemuxAlgorithm",
    "ObserverFanout",
]


class DemuxError(Exception):
    """Base error for demultiplexing structures."""


class DuplicateConnectionError(DemuxError):
    """Raised when inserting a PCB whose four-tuple is already present."""


@dataclasses.dataclass(frozen=True)
class LookupResult:
    """Outcome of one PCB lookup."""

    #: The PCB found, or ``None`` (no such connection -- e.g. a stray
    #: segment after close, or a SYN that belongs to a listener).
    pcb: Optional[PCB]
    #: PCBs examined, per the module-level counting convention.
    examined: int
    #: Whether a cache slot satisfied the lookup.
    cache_hit: bool
    #: Packet class this lookup served.
    kind: PacketKind

    def __init__(
        self,
        pcb: Optional[PCB],
        examined: int,
        cache_hit: bool,
        kind: PacketKind,
    ) -> None:
        # Every lookup builds one of these.  The generated frozen
        # __init__ pays an object.__setattr__ call per field; filling
        # __dict__ directly stores the same four attributes at about
        # half the cost.  Equality, hash, repr, ``dataclasses.replace``,
        # pickling and the frozen __setattr__ are unchanged.
        fields = self.__dict__
        fields["pcb"] = pcb
        fields["examined"] = examined
        fields["cache_hit"] = cache_hit
        fields["kind"] = kind

    @property
    def found(self) -> bool:
        return self.pcb is not None


class ObserverFanout:
    """Several observers in one slot, built and unwound by
    :meth:`DemuxAlgorithm.attach` / :meth:`~DemuxAlgorithm.detach`.

    Lookups nest in attach order, the first observer outermost (so a
    profiler attached last times the structure alone); notifications
    reach every observer in attach order.
    """

    __slots__ = ("observers", "_outer", "_inner", "_primitive", "_chain")

    def __init__(self, observers: Sequence[object]) -> None:
        self.observers = tuple(observers)
        self._outer = self.observers[0].on_lookup
        self._inner = tuple(o.on_lookup for o in self.observers[:0:-1])
        self._primitive = self._chain = None

    def on_lookup(self, algorithm, lookup, tup, kind):
        if lookup != self._primitive:
            # Wrap the primitive innermost first.  A structure passes
            # the same bound ``_lookup`` on every call, so the chain is
            # built once and reused.
            chain = lookup
            for on_lookup in self._inner:
                chain = partial(on_lookup, algorithm, chain)
            self._primitive, self._chain = lookup, chain
        return self._outer(algorithm, self._chain, tup, kind)

    def on_insert(self, algorithm, pcb) -> None:
        for observer in self.observers:
            observer.on_insert(algorithm, pcb)

    def on_remove(self, algorithm, tup) -> None:
        for observer in self.observers:
            observer.on_remove(algorithm, tup)

    def on_send(self, algorithm, pcb) -> None:
        for observer in self.observers:
            observer.on_send(algorithm, pcb)


class DemuxAlgorithm(abc.ABC):
    """Abstract PCB container with cost-accounted lookup.

    Subclasses implement ``_lookup``, ``_insert``, ``_remove``,
    iteration, and ``__len__`` (plus ``_note_send`` if the structure
    reacts to outbound packets); the public template methods wrap the
    primitives with statistics recording and the observer hook.
    """

    #: Short machine-readable name (registry key, figure legend).
    name: str = "abstract"

    #: The registry spec string this instance was built from, stamped
    #: by :func:`repro.core.registry.make_algorithm`.  ``None`` for
    #: directly constructed instances.  Checkpoint/restore
    #: (:mod:`repro.recovery`) uses it to rebuild an equivalent
    #: structure before re-imposing the captured decision state.
    spec: Optional[str] = None

    def __init__(self) -> None:
        self.stats = DemuxStats()
        #: The observer hook (see the module docstring): ``None``, one
        #: observer, or an :class:`ObserverFanout`.  Fill and empty it
        #: with :meth:`attach` / :meth:`detach`.
        self.observer: Optional[object] = None

    # -- observers -------------------------------------------------------

    def observers(self) -> Tuple[object, ...]:
        """The observers watching this structure, in attach order.

        These are the ones in :attr:`observer`; a wrapper that attaches
        some observers to a structure it owns lists those too
        (:class:`~repro.recovery.supervisor.ShardSupervisor`).
        """
        observer = self.observer
        if observer is None:
            return ()
        if isinstance(observer, ObserverFanout):
            return observer.observers
        return (observer,)

    def attach(self, observer):
        """Add ``observer`` to the slot; returns it.

        Observers of different classes compose.  A second observer of
        a class already attached raises ``ValueError``: two reapers or
        two span collectors on one structure would contradict each
        other, and silently replacing the first would orphan it.
        """
        attached = DemuxAlgorithm.observers(self)  # this slot only
        for other in attached:
            if type(other) is type(observer):
                raise ValueError(
                    f"{self!r} already has a {type(other).__name__} attached"
                )
        self._fill(attached + (observer,))
        return observer

    def detach(self, observer) -> None:
        """Remove ``observer``; ``ValueError`` if it is not attached."""
        attached = DemuxAlgorithm.observers(self)
        if not any(other is observer for other in attached):
            raise ValueError(f"{observer!r} is not attached to {self!r}")
        self._fill(tuple(other for other in attached if other is not observer))

    def _fill(self, observers: Tuple[object, ...]) -> None:
        if len(observers) > 1:
            self.observer = ObserverFanout(observers)
        else:
            self.observer = observers[0] if observers else None

    # -- public API ------------------------------------------------------

    def lookup(
        self, tup: FourTuple, kind: PacketKind = PacketKind.DATA
    ) -> LookupResult:
        """Find the PCB for an inbound packet's four-tuple.

        ``kind`` distinguishes data packets from pure transport-level
        acknowledgements; the Partridge/Pink structure probes its two
        cache slots in kind-dependent order (paper Section 3.3.3) and
        all algorithms keep kind-separated statistics.
        """
        observer = self.observer
        if observer is None:
            result = self._lookup(tup, kind)
        else:
            result = observer.on_lookup(self, self._lookup, tup, kind)
        self._record(result)
        return result

    def lookup_batch(
        self, packets: Sequence[Tuple[FourTuple, PacketKind]]
    ) -> List[LookupResult]:
        """Look up many ``(four_tuple, kind)`` pairs, in order.

        The batched entry point the interrupt-coalescing path uses
        (:class:`repro.smp.coalesce.BatchCoalescer`, the sharded
        facade, the bench-gate replays).  Semantics are pinned to a
        plain loop over :meth:`lookup` -- same results, same statistics,
        same observer behaviour -- and that loop *is* the default
        implementation.  Interned structures override it
        (:class:`repro.core.batch.BatchLookupMixin`) to amortize
        the per-call template toll without changing one decision.
        """
        return [self.lookup(tup, kind) for tup, kind in packets]

    def note_send(self, pcb: PCB) -> None:
        """Tell the structure a packet was *sent* on ``pcb``.

        Only the Partridge/Pink last-sent/last-received cache reacts;
        the default is a no-op.  Costs nothing: the sender already
        holds the PCB.
        """
        self._note_send(pcb)
        observer = self.observer
        if observer is not None:
            observer.on_send(self, pcb)

    def insert(self, pcb: PCB) -> None:
        """Add a PCB (connection establishment).

        Raises :class:`DuplicateConnectionError` if the four-tuple is
        already present.
        """
        self._insert(pcb)
        observer = self.observer
        if observer is not None:
            observer.on_insert(self, pcb)

    def remove(self, tup: FourTuple) -> PCB:
        """Remove and return the PCB for ``tup`` (connection teardown).

        Raises ``KeyError`` if absent.  Any cache slot referencing the
        removed PCB must be invalidated -- a dangling cache entry would
        resurrect closed connections.
        """
        pcb = self._remove(tup)
        observer = self.observer
        if observer is not None:
            observer.on_remove(self, tup)
        return pcb

    # -- subclass primitives ---------------------------------------------

    @abc.abstractmethod
    def _insert(self, pcb: PCB) -> None:
        """Subclass insert (see :meth:`insert` for the contract)."""

    @abc.abstractmethod
    def _remove(self, tup: FourTuple) -> PCB:
        """Subclass remove (see :meth:`remove` for the contract)."""

    def _note_send(self, pcb: PCB) -> None:
        """Subclass reaction to an outbound packet (default: none)."""

    @abc.abstractmethod
    def _lookup(self, tup: FourTuple, kind: PacketKind) -> LookupResult:
        """Subclass lookup; must fill ``examined`` per the convention."""

    def _record(self, result: LookupResult) -> None:
        """Count one completed lookup into the statistics."""
        self.stats.by_kind[result.kind].add(
            result.examined, result.cache_hit, result.pcb is not None
        )

    @abc.abstractmethod
    def __len__(self) -> int:
        """Number of PCBs currently installed."""

    @abc.abstractmethod
    def __iter__(self) -> Iterator[PCB]:
        """Iterate over installed PCBs in structure order."""

    # -- conveniences ------------------------------------------------------

    def __contains__(self, tup: FourTuple) -> bool:
        """Membership test that does *not* perturb caches or stats."""
        return any(pcb.four_tuple == tup for pcb in self)

    def __bool__(self) -> bool:
        """Always truthy.

        Without this, ``__len__`` would make an *empty* structure falsy
        and ``algorithm or default()`` would silently replace it -- an
        algorithm object is not a container in the caller's mental
        model, even though it holds PCBs.
        """
        return True

    def describe(self) -> str:
        """Human-readable one-liner for reports."""
        return f"{self.name} ({len(self)} PCBs)"

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self.describe()}>"
