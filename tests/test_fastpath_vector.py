"""The numpy-vectorized batch scan: decision-exact and faster.

``SlotTable.scan_batch`` replaces one ``rfind`` per packet with a
blocked numpy comparison -- but it must be a pure speedup: first-match
index and pinned examined count identical to the scalar scan, which
small tables and single-key batches still take as the reference loop.
These tests pin all three claims:

* unit equivalence of ``scan_batch`` against a scalar ``scan`` loop on
  randomized tables and query mixes, on both the numpy and loop paths;
* whole-suite equivalence: every committed golden replayed through
  every structure's batched path forced onto the loop must still
  reproduce the committed decisions;
* the speedup itself (marked slow): at N >= 10^3 the vectorized scan
  beats the scalar ``rfind`` loop on the same table.
"""

from __future__ import annotations

import json
import pathlib
import random
import sys
import time

import pytest

import repro.core.tables as tables
from repro.core.pcb import PCB
from repro.core.tables import SlotTable
from repro.fastpath.conformance import (
    churn_ops,
    decision_trace,
    golden_stream,
    mutation_trace,
)
from repro.packet.addresses import FourTuple, IPv4Address

GOLDEN_DIR = pathlib.Path(__file__).parent / "golden"


@pytest.fixture
def loop_path(monkeypatch):
    """Every ``scan_batch`` takes the scalar loop, whatever the size."""
    monkeypatch.setattr(tables, "_VECTOR_MIN_TABLE", sys.maxsize)


def make_table(n: int) -> SlotTable:
    table = SlotTable()
    for index in range(n):
        tup = FourTuple(
            IPv4Address("10.0.0.1"), 1521,
            IPv4Address("10.4.0.0") + index, 40000 + index,
        )
        table.push_front(tup.key_bits(), PCB(tup))
    return table


def query_mix(table: SlotTable, n_queries: int, seed: int) -> list:
    """Hits, misses, and repeats in a deterministic shuffle."""
    rng = random.Random(seed)
    queries = (
        [rng.choice(table.keys) for _ in range(n_queries)]
        if table.keys else []
    )
    queries += [(1 << 95) + index for index in range(max(n_queries // 3, 2))]
    rng.shuffle(queries)
    return queries


class TestScanBatchUnit:
    @pytest.mark.parametrize("n", [0, 1, 5, 16, 100, 1000])
    def test_matches_scalar_scan(self, n):
        table = make_table(n)
        queries = query_mix(table, max(n, 4), seed=n)
        assert table.scan_batch(queries) == [
            table.scan(key) for key in queries
        ]

    @pytest.mark.parametrize("n", [0, 5, 16, 100])
    def test_fallback_matches_scalar_scan(self, loop_path, n):
        table = make_table(n)
        queries = query_mix(table, max(n, 4), seed=n)
        assert table.scan_batch(queries) == [
            table.scan(key) for key in queries
        ]

    def test_first_match_on_duplicate_keys(self):
        # Decision semantics are *first*-match; build a table with the
        # same key at two positions (possible transiently for MTF-style
        # callers) and check both paths pick the earlier index.
        table = make_table(32)
        dup_key = table.keys[20]
        # Overwrite logical index 5 in the packed, tail-first buffer.
        end = len(table.packed) - tables.KEY_BYTES * 5
        table.packed[end - tables.KEY_BYTES:end] = dup_key.to_bytes(
            tables.KEY_BYTES, "big"
        )
        table.pcbs[5] = table.pcbs[20]
        table._version += 1
        results = table.scan_batch([dup_key] * 3)
        assert results == [(5, 6)] * 3
        assert table.scan(dup_key) == (5, 6)

    def test_mirror_tracks_mutations(self):
        table = make_table(40)
        queries = query_mix(table, 40, seed=9)
        before = table.scan_batch(queries)
        removed = table.keys[7]
        table.remove_key(removed)
        table.push_front(
            removed, PCB(FourTuple(
                IPv4Address("10.0.0.1"), 1521,
                IPv4Address("10.5.0.0") + 1, 41000,
            ))
        )
        table.move_to_front(13)
        after = table.scan_batch(queries)
        assert after == [table.scan(key) for key in queries]
        assert before != after  # the mutations moved decisions

    def test_low_64_bit_collisions_settle_exactly(self, monkeypatch):
        # The mirror holds only each key's low 64 bits; flows that
        # differ only in local address collide there, and the full-key
        # check must still report the first *exact* match (or a miss).
        monkeypatch.setattr(tables, "_VECTOR_MIN_WORK", 0)
        monkeypatch.setattr(tables, "_REBUILD_QUERIES", 0)
        table = SlotTable()
        for index in range(24):
            for local in ("10.0.0.1", "10.0.0.2"):
                tup = FourTuple(
                    IPv4Address(local), 1521,
                    IPv4Address("10.6.0.0") + index, 40000 + index,
                )
                table.push_front(tup.key_bits(), PCB(tup))
        absent = FourTuple(
            IPv4Address("10.0.0.3"), 1521, IPv4Address("10.6.0.0") + 3, 40003,
        ).key_bits()
        queries = table.keys[::3] + [absent] + table.keys[1::5]
        assert table.scan_batch(queries) == [
            table.scan(key) for key in queries
        ]
        assert table.scan(absent) == (-1, 48)

    def test_examined_counts_match_miss_semantics(self):
        table = make_table(64)
        miss = [(1 << 95) + index for index in range(8)]
        assert table.scan_batch(miss) == [(-1, 64)] * 8


#: Every (golden file, fast spec) cell of the committed suite.
GOLDEN_CELLS = []
for path in sorted(GOLDEN_DIR.glob("*.json")):
    golden = json.loads(path.read_text())
    for spec, decisions in golden["decisions"].items():
        GOLDEN_CELLS.append(pytest.param(
            golden, f"fast-{spec}", decisions, id=f"{path.stem}-fast-{spec}",
        ))


class TestGoldenEquivalenceWithoutNumpy:
    """The whole fastpath golden suite, every batch scan on the loop."""

    @pytest.mark.parametrize("golden,spec,decisions", GOLDEN_CELLS)
    def test_batched_decisions_unchanged(self, loop_path, golden, spec,
                                         decisions):
        if golden.get("mode") == "churn":
            ops = churn_ops(
                golden["churn"]["seed"], steps=golden["churn"]["steps"]
            )
            trace, _ = mutation_trace(spec, ops, use_batch=True)
        else:
            params = golden["stream"]
            stream = golden_stream(
                params["seed"],
                n_users=params["n_users"],
                duration=params["duration"],
            )
            trace = decision_trace(spec, stream, use_batch=True)
        assert trace == decisions


class TestNumpyVsFallbackDirect:
    """numpy path vs loop path, same spec, same stream."""

    @pytest.mark.parametrize(
        "spec", ["fast-linear", "fast-bsd", "fast-sequent:h=7",
                 "fast-cuckoo:buckets=2,slots=2"]
    )
    def test_decisions_identical(self, spec, monkeypatch):
        stream = golden_stream(77, n_users=80, duration=20.0)
        with_numpy = decision_trace(spec, stream, use_batch=True)
        monkeypatch.setattr(tables, "_VECTOR_MIN_TABLE", sys.maxsize)
        loop_only = decision_trace(spec, stream, use_batch=True)
        assert with_numpy == loop_only


@pytest.mark.slow
def test_vectorized_scan_beats_list_scan_at_1e3():
    """The acceptance claim: at N >= 10^3 the numpy scan wins."""
    table = make_table(2000)
    queries = query_mix(table, 2000, seed=3)
    table._mirrors()  # mirror build is amortized, not per-batch
    best_vector = min(
        _timed(lambda: table.scan_batch(queries)) for _ in range(3)
    )
    best_loop = min(
        _timed(lambda: [table.scan(key) for key in queries])
        for _ in range(3)
    )
    assert table.scan_batch(queries) == [table.scan(k) for k in queries]
    assert best_vector < best_loop, (
        f"vectorized {best_vector:.4f}s not faster than loop"
        f" {best_loop:.4f}s at N=2000"
    )


def _timed(fn) -> float:
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start
