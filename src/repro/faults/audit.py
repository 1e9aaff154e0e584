"""Post-run invariant audits: did the stack survive *cleanly*?

Fault campaigns are only meaningful if the absence of a crash implies
the absence of damage.  :func:`audit_stack` checks the structural
invariants a :class:`~repro.tcpstack.stack.HostStack` must uphold no
matter what the network did to it:

* the demux structure's ``__len__`` agrees with iteration (no
  algorithm-internal bookkeeping drift);
* no four-tuple appears twice (duplicate PCBs shadow each other and
  corrupt lookup statistics);
* no PCB belongs to a CLOSED endpoint (a leak: teardown ran but the
  table entry survived);
* with a bounded table, occupancy never exceeds ``max_connections``.

The result is a :class:`PCBAudit` report rather than an assertion so
the fault matrix can aggregate violations across a whole campaign and
the chaos CI job can print every failure before exiting nonzero.

:func:`audit_leaks` is the memory-bounds companion: it checks that a
demux structure's *auxiliary* state (the fast path's interned-key
table, per shard for sharded facades) has not outgrown the live
connection population -- the class of slow leak a crash-free fault
campaign would otherwise never notice.
"""

from __future__ import annotations

import dataclasses
from typing import List, Optional

from ..lifecycle.metrics import count_interned
from ..tcpstack.endpoint import TCPEndpoint
from ..tcpstack.stack import HostStack
from ..tcpstack.states import TCPState

__all__ = ["LeakAudit", "PCBAudit", "audit_leaks", "audit_stack"]


@dataclasses.dataclass
class PCBAudit:
    """Outcome of one post-run table audit."""

    host: str
    table_len: int
    iterated: int
    violations: List[str] = dataclasses.field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations

    def describe(self) -> str:
        status = "OK" if self.ok else f"{len(self.violations)} violation(s)"
        lines = [f"audit {self.host}: {self.table_len} PCBs, {status}"]
        lines.extend(f"  - {violation}" for violation in self.violations)
        return "\n".join(lines)


def audit_stack(stack: HostStack, *, expect_empty: bool = False) -> PCBAudit:
    """Audit one host's PCB table; see the module docstring for checks.

    ``expect_empty=True`` additionally flags any surviving PCB -- the
    right setting after a run whose every connection was closed.
    """
    pcbs = list(stack.table)
    audit = PCBAudit(
        host=str(stack.address),
        table_len=len(stack.table),
        iterated=len(pcbs),
    )
    if audit.table_len != audit.iterated:
        audit.violations.append(
            f"__len__ says {audit.table_len} but iteration"
            f" yields {audit.iterated}"
        )
    seen = set()
    for pcb in pcbs:
        tup = pcb.four_tuple
        if tup in seen:
            audit.violations.append(f"duplicate PCB for {tup}")
        seen.add(tup)
        endpoint = pcb.user_data
        if isinstance(endpoint, TCPEndpoint) and endpoint.state is TCPState.CLOSED:
            audit.violations.append(f"leaked PCB for CLOSED endpoint {tup}")
    limit = stack.table.max_connections
    if limit is not None and audit.iterated > limit:
        audit.violations.append(
            f"table over capacity: {audit.iterated} > {limit}"
        )
    if expect_empty and pcbs:
        audit.violations.append(
            f"expected empty table, found {len(pcbs)} PCB(s)"
        )
    return audit


@dataclasses.dataclass
class LeakAudit:
    """Outcome of one memory-bounds audit of a demux structure."""

    label: str
    live: int
    #: Total interned key entries, or ``None`` for structures with no
    #: intern table (sendrecv, multicache -- nothing *can* leak).
    interned: Optional[int]
    grace: int
    violations: List[str] = dataclasses.field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations

    def describe(self) -> str:
        status = "OK" if self.ok else f"{len(self.violations)} violation(s)"
        interned = "n/a" if self.interned is None else str(self.interned)
        lines = [
            f"leak-audit {self.label}: live={self.live}"
            f" interned={interned} grace={self.grace}, {status}"
        ]
        lines.extend(f"  - {violation}" for violation in self.violations)
        return "\n".join(lines)


def audit_leaks(algorithm, *, grace: int = 0, label: Optional[str] = None) -> LeakAudit:
    """Check that ``algorithm``'s auxiliary state tracks its population.

    The memory-bounds contract (docs/fastpath.md): an interned
    structure holds exactly one key memo per *live* connection, so after any
    sequence of inserts, removes, and lookups --

    * total interned entries must not exceed live connections plus
      ``grace`` (whole structure *and* each shard of a sharded facade);
    * ``__len__`` must agree with iteration (bookkeeping drift is how
      these leaks hide).

    ``grace`` exists for structures that legitimately retain a bounded
    overhang; the stock structures need none.
    """
    name = label if label is not None else getattr(
        algorithm, "name", type(algorithm).__name__
    )
    live = len(algorithm)
    audit = LeakAudit(
        label=name, live=live, interned=count_interned(algorithm), grace=grace
    )
    iterated = sum(1 for _ in algorithm)
    if live != iterated:
        audit.violations.append(
            f"__len__ says {live} but iteration yields {iterated}"
        )
    if audit.interned is not None and audit.interned > live + grace:
        audit.violations.append(
            f"interned keys leak: {audit.interned} interned"
            f" > {live} live + {grace} grace"
        )
    for index, shard in enumerate(getattr(algorithm, "shards", ()) or ()):
        shard_interned = getattr(shard, "interned_entries", None)
        if shard_interned is None:
            continue
        shard_live = len(shard)
        if shard_interned > shard_live + grace:
            audit.violations.append(
                f"shard {index} interned keys leak: {shard_interned}"
                f" interned > {shard_live} live + {grace} grace"
            )
    return audit
