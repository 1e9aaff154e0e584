"""What the demux observers write, pinned byte-for-byte.

Three reference ``simulate`` runs attach every observer the system has
-- tracer, sampled profiler, span collector with sketches, idle reaper
-- to a plain, a supervised sharded, and a full-stack structure.  Each
run writes a JSONL trace, a JSONL span dump and a JSON metrics
snapshot.  This test reruns them in-process and compares the SHA-256
of each artifact against ``tests/golden/observers/digests.json``.

Wall-clock fields are removed before hashing: ``mttr_ms`` (recovery
spans), the ``recovery_mttr_ms*`` series and ``lookup_wallclock_ns``
(metrics).  Everything else -- virtual timestamps, span ids, sample
counters, examined counts -- must not move.

After an intended change to what an observer emits, regenerate the
digests from the repository root and explain the diff::

    PYTHONPATH=src python tests/test_obs_artifacts.py
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import pathlib
import sys

import pytest

from repro.cli import main

HERE = pathlib.Path(__file__).resolve().parent
GOLDEN = HERE / "golden" / "observers" / "digests.json"

#: Run name -> ``simulate`` arguments (output flags are added per run).
RUNS = {
    "bsd_profile_sketch": [
        "--algorithm", "bsd", "--users", "100", "--duration", "30",
        "--seed", "1", "--profile", "--sketch",
    ],
    # Two warm shard recoveries under the supervisor.
    "sharded_recovery": [
        "--algorithm", "sharded-sequent:shards=4,h=19", "--users", "60",
        "--duration", "30", "--seed", "3", "--crash-shards", "1@100,2@400",
        "--checkpoint-every", "50",
    ],
    # Thirty idle reaps through the full TCP stack.
    "sequent_idle_reap": [
        "--algorithm", "sequent:h=19", "--full-stack", "--idle-timeout", "5",
        "--users", "30", "--duration", "40", "--seed", "5", "--sketch",
    ],
}

ARTIFACTS = ("trace.jsonl", "spans.jsonl", "metrics.json")

#: Keys whose values are wall-clock readings, dropped at any depth.
WALLCLOCK_PREFIXES = ("mttr_ms", "recovery_mttr_ms", "lookup_wallclock_ns")


def _strip(value):
    if isinstance(value, dict):
        return {
            key: _strip(item)
            for key, item in value.items()
            if not key.startswith(WALLCLOCK_PREFIXES)
        }
    if isinstance(value, list):
        return [_strip(item) for item in value]
    return value


def _digest(path: pathlib.Path) -> str:
    text = path.read_text(encoding="utf-8")
    if path.suffix == ".jsonl":
        records = [json.loads(line) for line in text.splitlines() if line]
    else:
        records = [json.loads(text)]
    canonical = "\n".join(
        json.dumps(_strip(record), sort_keys=True, separators=(",", ":"))
        for record in records
    )
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def run_digests(name: str, out: pathlib.Path) -> dict:
    """Run reference ``name`` into ``out``; artifact -> SHA-256."""
    paths = {artifact: out / f"{name}.{artifact}" for artifact in ARTIFACTS}
    argv = ["simulate", *RUNS[name],
            "--trace-out", str(paths["trace.jsonl"]),
            "--spans-out", str(paths["spans.jsonl"]),
            "--span-sample-every", "8",
            "--metrics-out", str(paths["metrics.json"])]
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(argv) == 0
    return {artifact: _digest(path) for artifact, path in paths.items()}


@pytest.mark.parametrize("name", sorted(RUNS))
def test_observer_artifacts_match_digests(name, tmp_path):
    expected = json.loads(GOLDEN.read_text())[name]
    assert run_digests(name, tmp_path) == expected


def test_supervised_spans_carry_virtual_time(tmp_path):
    # Under ShardSupervisor the span collector sits on the sharded
    # facade; its clock must still be bound to the simulator, so spans
    # start at virtual times after 0.0, in packet order.
    run_digests("sharded_recovery", tmp_path)
    text = (tmp_path / "sharded_recovery.spans.jsonl").read_text(encoding="utf-8")
    starts = [json.loads(line)["start"] for line in text.splitlines() if line]
    assert starts
    assert min(starts) > 0.0
    assert starts == sorted(starts)


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as scratch:
        digests = {
            name: run_digests(name, pathlib.Path(scratch)) for name in sorted(RUNS)
        }
    GOLDEN.write_text(json.dumps(digests, indent=2, sort_keys=True) + "\n")
    sys.stdout.write(f"wrote {GOLDEN}\n")
