"""Tests of the benchmark itself: inputs, oracle, checksum gate, seeds.

Run with ``python -m pytest perfbench -q``.  Sizes are small so the
whole file takes a few seconds.
"""

import dataclasses
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from replay import default_make, fit_line, replay_round
from workloads import CORRUPT, SYN, WORKLOADS, build_inputs

from repro.core.pcb import PCB

SMALL = {"oltp": (300, 800), "bulk": (50, 800), "churn": (300, 800)}
#: Not used while the benchmark was written.
HELD_OUT_SEED = 20261017


def small_inputs(name, seed):
    n_conns, frames = SMALL[name]
    return build_inputs(WORKLOADS[name], seed, n_conns=n_conns, frames=frames)


def codes(inputs):
    return [code for expect in inputs.expect for code, _ in expect]


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_inputs_are_a_pure_function_of_the_seed(name):
    first = small_inputs(name, 3)
    assert first.digest() == small_inputs(name, 3).digest()
    assert first.digest() != small_inputs(name, 4).digest()
    assert first.n_frames == SMALL[name][1]
    assert CORRUPT in codes(first)


def test_churn_frames_include_syn_and_fin():
    seen = set(codes(small_inputs("churn", 3)))
    assert {SYN, "fin", "data", "ack", CORRUPT} <= seen


def test_oracle_flags_a_structure_that_returns_a_wrong_pcb():
    inputs = small_inputs("oltp", 3)

    def make():
        alg = default_make()
        real = alg.lookup_batch

        def wrong_pcb(packets):
            # An equal-looking copy is still not the installed PCB.
            return [
                dataclasses.replace(r, pcb=PCB(r.pcb.four_tuple)) if r.pcb else r
                for r in real(packets)
            ]

        alg.lookup_batch = wrong_pcb
        return alg

    lookups = sum(code not in (CORRUPT, SYN) for code in codes(inputs))
    assert replay_round(inputs, make=make).failed == lookups


def test_oracle_counts_an_exception_as_failed_frames():
    inputs = small_inputs("oltp", 3)

    def make():
        alg = default_make()

        def crash(packets):
            raise RuntimeError("boom")

        alg.lookup_batch = crash
        return alg

    result = replay_round(inputs, make=make)
    assert result.failed == 16 and result.errors


def test_skipping_the_checksum_lets_corrupt_frames_through_as_failures():
    inputs = small_inputs("churn", 3)
    corrupt = codes(inputs).count(CORRUPT)
    result = replay_round(inputs, verify=False)
    assert result.rejected == 0
    assert result.failed == corrupt > 0


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_held_out_seed_runs_clean(name):
    inputs = small_inputs(name, HELD_OUT_SEED)
    for trace in (False, True):
        result = replay_round(inputs, trace=trace)
        assert result.failed == 0 and not result.errors
        assert result.rejected == codes(inputs).count(CORRUPT)


def test_traced_spans_nest_inside_their_batch():
    result = replay_round(small_inputs("churn", 3), trace=True)
    spans = result.traced.spans
    batches = {s[0]: s for s in spans if s[2] == "batch"}
    assert len(batches) == len(result.batch_ns)
    children = {}
    for span_id, parent, name, start, end in spans:
        if name != "batch":
            _, _, _, b_start, b_end = batches[parent]
            assert b_start <= start <= end <= b_end
            children[parent] = children.get(parent, 0) + end - start
    for span_id, (_, _, _, start, end) in batches.items():
        assert children.get(span_id, 0) <= end - start
    assert {s[2] for s in spans} == {"batch", "packet", "key", "lookup", "conn"}


def test_fit_line_recovers_a_known_line():
    a, b = fit_line([(x, 5.0 + 2.0 * x) for x in range(10)])
    assert a == pytest.approx(5.0) and b == pytest.approx(2.0)


def test_run_exits_nonzero_without_the_repository_sources(tmp_path):
    shutil.copytree(
        Path(__file__).parent,
        tmp_path / "perfbench",
        ignore=shutil.ignore_patterns("__pycache__", "out"),
    )
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "oltp", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
