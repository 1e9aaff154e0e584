"""The O(1) demux tier and the tooling that proves the structures right.

The paper's structures live in :mod:`repro.core`, one implementation
each, on array-backed slot tables.  This package holds what sits
beside them:

* :mod:`~repro.fastpath.cuckoo` -- the two-choice cuckoo table with
  per-bucket pre-filters (``cuckoo``), which the paper does not have;
* :mod:`~repro.fastpath.conformance` -- golden decision traces;
* :mod:`~repro.fastpath.gate` -- the cross-PR ``bench-gate`` harness
  and the canary gate;
* :mod:`~repro.fastpath.metrics` -- observability export of the
  interning, batching and cuckoo counters.

A ``fast-`` prefix on a registry spec is a spelling alias kept for
existing specs (``fast-sequent:h=19`` builds the same structure as
``sequent:h=19``).  See ``docs/fastpath.md``.
"""

from .cuckoo import CuckooCounters, FastCuckooDemux
from .metrics import publish_fastpath

__all__ = ["CuckooCounters", "FastCuckooDemux", "publish_fastpath"]
