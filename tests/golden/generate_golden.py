"""Regenerate the golden decision-trace files in this directory.

Run from the repository root::

    PYTHONPATH=src:tests python tests/golden/generate_golden.py

Each golden file pins the per-packet decisions -- ``[found, examined,
cache_hit]`` -- of the paper's five structures on one seeded stream
(see :mod:`repro.fastpath.conformance`), recorded from the list-walking
oracle in ``tests/demux_oracle.py``, never from the code under test.
The files are committed; regenerating them should be a no-op unless
the oracle's semantics changed on purpose, in which case the diff *is*
the review artifact.  The cuckoo goldens have no oracle and are
recorded from the registry spec itself.  ``snapshots/`` holds fixed
fixtures this script does not write.
"""

from __future__ import annotations

import json
import pathlib
import sys

from demux_oracle import make_oracle
from repro.fastpath.conformance import (
    churn_ops,
    decision_trace,
    golden_stream,
    mutation_trace,
)

HERE = pathlib.Path(__file__).resolve().parent

#: (filename stem, stream parameters) per golden stream.  Sizes are
#: kept modest so the JSON stays reviewable; three seeds × five
#: algorithms still cross every cache, chain, and miss path.
STREAMS = (
    ("tpca_seed101", {"seed": 101, "n_users": 48, "duration": 40.0}),
    ("tpca_seed202", {"seed": 202, "n_users": 96, "duration": 30.0}),
    ("tpca_seed303", {"seed": 303, "n_users": 24, "duration": 60.0}),
)

#: (filename stem, churn parameters): mutation-heavy streams where
#: inserts and removes interleave with the lookups, pinning the
#: remove/evict path the static TPC/A streams never touch.
CHURN_STREAMS = (
    ("churn_seed404", {"seed": 404, "steps": 4000}),
)

#: Specs recorded in each file, each replayed through its oracle.
ALGORITHMS = (
    "linear",
    "bsd",
    "mtf",
    "sequent:h=7",
    "hashed_mtf:h=5",
)

#: Cuckoo goldens live in the ``cuckoo/`` subdirectory -- they have no
#: oracle, so they are recorded from the spec itself
#: (tests/test_cuckoo_golden.py owns them).  Geometries are
#: chosen to pin different behaviours: the default table, a tiny table
#: that must resize (and kick, and stash) under the stream, and the
#: sharded composition.
CUCKOO_STREAMS = (
    ("cuckoo_seed101", {"seed": 101, "n_users": 48, "duration": 40.0}),
    ("cuckoo_seed202", {"seed": 202, "n_users": 96, "duration": 30.0}),
)

CUCKOO_CHURN_STREAMS = (
    ("cuckoo_churn_seed404", {"seed": 404, "steps": 4000}),
)

CUCKOO_ALGORITHMS = (
    "fast-cuckoo",
    "fast-cuckoo:buckets=2,slots=2,stash=2,kick=4",
    "sharded-fast-cuckoo:shards=4,buckets=4",
)


def build_golden(seed: int, n_users: int, duration: float) -> dict:
    stream = golden_stream(seed, n_users=n_users, duration=duration)
    return {
        "stream": {"seed": seed, "n_users": n_users, "duration": duration},
        "packets": len(stream.packets),
        "decisions": {
            spec: decision_trace(make_oracle(spec), stream)
            for spec in ALGORITHMS
        },
    }


def build_churn_golden(seed: int, steps: int, algorithms=ALGORITHMS,
                       build=make_oracle) -> dict:
    ops = churn_ops(seed, steps=steps)
    return {
        "mode": "churn",
        "churn": {"seed": seed, "steps": steps},
        "lookups": sum(1 for op in ops if op[0] == "lookup"),
        "decisions": {
            spec: mutation_trace(build(spec), ops)[0] for spec in algorithms
        },
    }


def build_cuckoo_golden(seed: int, n_users: int, duration: float) -> dict:
    stream = golden_stream(seed, n_users=n_users, duration=duration)
    return {
        "stream": {"seed": seed, "n_users": n_users, "duration": duration},
        "packets": len(stream.packets),
        "decisions": {
            spec: decision_trace(spec, stream)
            for spec in CUCKOO_ALGORITHMS
        },
    }


def main() -> int:
    for stem, params in STREAMS:
        path = HERE / f"{stem}.json"
        golden = build_golden(**params)
        path.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
        ndecisions = len(next(iter(golden["decisions"].values())))
        print(f"wrote {path.name}: {golden['packets']} packets,"
              f" {ndecisions} decisions x {len(ALGORITHMS)} algorithms")
    for stem, params in CHURN_STREAMS:
        path = HERE / f"{stem}.json"
        golden = build_churn_golden(**params)
        path.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
        print(f"wrote {path.name}: {golden['churn']['steps']} churn ops,"
              f" {golden['lookups']} decisions x {len(ALGORITHMS)} algorithms")
    cuckoo_dir = HERE / "cuckoo"
    cuckoo_dir.mkdir(exist_ok=True)
    for stem, params in CUCKOO_STREAMS:
        path = cuckoo_dir / f"{stem}.json"
        golden = build_cuckoo_golden(**params)
        path.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
        ndecisions = len(next(iter(golden["decisions"].values())))
        print(f"wrote cuckoo/{path.name}: {golden['packets']} packets,"
              f" {ndecisions} decisions x {len(CUCKOO_ALGORITHMS)} specs")
    for stem, params in CUCKOO_CHURN_STREAMS:
        path = cuckoo_dir / f"{stem}.json"
        golden = build_churn_golden(
            **params, algorithms=CUCKOO_ALGORITHMS,
            build=lambda spec: spec,  # no oracle: the spec itself
        )
        path.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
        print(f"wrote cuckoo/{path.name}: {golden['churn']['steps']} churn"
              f" ops, {golden['lookups']} decisions"
              f" x {len(CUCKOO_ALGORITHMS)} specs")
    return 0


if __name__ == "__main__":
    sys.exit(main())
