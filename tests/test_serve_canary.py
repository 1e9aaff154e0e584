"""Tests for the canary gate: candidate-vs-incumbent A/B on mirrored
recorded traffic, and its CLI entry points (``canary``,
``bench-gate --canary``)."""

import asyncio
import json

import pytest

from repro.core.base import DemuxAlgorithm, LookupResult
from repro.core.registry import ALGORITHMS
from repro.fastpath.gate import CanaryConfig, CanaryReport, run_canary
from repro.serve.loadgen import LoadConfig
from repro.serve.server import ServeConfig, run_self_drive
from repro.workload.record import record_tpca_stream


@pytest.fixture(scope="module")
def stream():
    return record_tpca_stream(n_users=150, duration=8.0, seed=7)


class TestCanaryConfig:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"candidate": ""},
            {"candidate": "bsd", "incumbent": ""},
            {"candidate": "bsd", "repeats": 0},
            {"candidate": "bsd", "pps_margin": 1.0},
            {"candidate": "bsd", "pps_margin": -0.1},
            {"candidate": "bsd", "examined_margin": -0.5},
        ],
    )
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ValueError):
            CanaryConfig(**kwargs)


class TestRunCanary:
    def test_promotes_a_faster_candidate(self, stream):
        report = run_canary(
            stream,
            CanaryConfig(
                candidate="fast-sequent:h=19",
                # Partridge/Pink's list walk: several times slower.
                incumbent="sendrecv",
                repeats=1,
            ),
        )
        assert report.promoted
        assert report.decisions_match
        assert report.blockers == []
        assert report.candidate.p99_examined < report.incumbent.p99_examined
        assert "PROMOTE" in report.render_text()

    def test_blocks_a_slower_candidate_on_p99(self, stream):
        report = run_canary(
            stream,
            CanaryConfig(
                candidate="linear",
                incumbent="fast-sequent:h=19",
                repeats=1,
            ),
        )
        assert not report.promoted
        # The deterministic axis always catches it, whatever the clock
        # said: linear's p99 is the whole population.
        assert any("p99" in reason for reason in report.blockers)
        assert "BLOCK" in report.render_text()

    def test_equal_specs_always_promote(self, stream):
        # A candidate identical to the incumbent must never be blocked
        # by the deterministic axis; allow the clock axis full slack.
        report = run_canary(
            stream,
            CanaryConfig(
                candidate="sequent:h=19",
                incumbent="sequent:h=19",
                repeats=2,
                pps_margin=0.9,
            ),
        )
        assert report.decisions_match
        assert not any("p99" in reason for reason in report.blockers)

    def test_blocks_on_decision_mismatch(self, stream, monkeypatch):
        class LyingDemux(DemuxAlgorithm):
            """Finds nothing: right speed, wrong answers."""

            name = "lying"

            def __init__(self):
                super().__init__()
                self._pcbs = {}

            def _insert(self, pcb):
                self._pcbs[pcb.four_tuple] = pcb

            def _remove(self, tup):
                return self._pcbs.pop(tup)

            def _lookup(self, tup, kind):
                return LookupResult(
                    None, examined=1, cache_hit=False, kind=kind
                )

            def __len__(self):
                return len(self._pcbs)

            def __iter__(self):
                return iter(self._pcbs.values())

        monkeypatch.setitem(ALGORITHMS, "lying", lambda: LyingDemux())
        report = run_canary(
            stream,
            CanaryConfig(
                candidate="lying",
                incumbent="bsd",
                repeats=1,
                pps_margin=0.99,
                examined_margin=1e9,
            ),
        )
        assert not report.promoted
        assert not report.decisions_match
        assert any("mismatch" in reason for reason in report.blockers)

    def test_to_json_shape(self, stream):
        report = run_canary(
            stream,
            CanaryConfig(candidate="bsd", incumbent="bsd", repeats=1),
        )
        payload = report.to_json()
        assert payload["verdict"] in ("promote", "block")
        assert payload["capture"]["packet_count"] == len(stream.packets)
        assert payload["candidate"]["algorithm"] == "bsd"
        assert isinstance(payload["blockers"], list)
        json.dumps(payload)  # JSON-serializable end to end

    def test_progress_messages(self, stream):
        messages = []
        run_canary(
            stream,
            CanaryConfig(candidate="bsd", incumbent="bsd", repeats=1),
            progress=messages.append,
        )
        assert any("incumbent" in message for message in messages)
        assert any("candidate" in message for message in messages)

    def test_report_is_a_canary_report(self, stream):
        report = run_canary(
            stream,
            CanaryConfig(candidate="bsd", incumbent="bsd", repeats=1),
        )
        assert isinstance(report, CanaryReport)
        assert report.pps_ratio > 0


class TestCanaryCLI:
    def test_promote_exits_zero(self, capsys):
        from repro.cli import main

        code = main(
            [
                "canary", "fast-sequent:h=19",
                "--incumbent", "sendrecv",
                "--users", "80", "--duration", "5", "--repeats", "1",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "PROMOTE" in out

    def test_block_exits_one(self, capsys):
        from repro.cli import main

        code = main(
            [
                "canary", "linear",
                "--incumbent", "fast-sequent:h=19",
                "--users", "80", "--duration", "5", "--repeats", "1",
            ]
        )
        out = capsys.readouterr().out
        assert code == 1
        assert "BLOCK" in out

    def test_json_output(self, capsys):
        from repro.cli import main

        code = main(
            [
                "canary", "fast-sequent:h=19",
                "--incumbent", "sendrecv",
                "--users", "60", "--duration", "5", "--repeats", "1",
                "--json",
            ]
        )
        payload = json.loads(capsys.readouterr().out)
        assert code == 0
        assert payload["verdict"] == "promote"

    def test_unknown_spec_exits_two(self, capsys):
        from repro.cli import main

        code = main(
            ["canary", "no-such-algorithm", "--users", "20",
             "--duration", "2", "--repeats", "1"]
        )
        assert code == 2
        assert "error" in capsys.readouterr().err

    def test_missing_capture_exits_two(self, capsys):
        from repro.cli import main

        code = main(
            ["canary", "bsd", "--capture", "/nonexistent/cap.json"]
        )
        assert code == 2
        assert "capture" in capsys.readouterr().err

    def test_bench_gate_canary_on_live_capture(self, tmp_path, capsys):
        """The CI acceptance path: serve a swarm, record the capture,
        then ``bench-gate --canary --quick`` on it."""
        from repro.cli import main

        path = str(tmp_path / "live.json")
        report = asyncio.run(
            run_self_drive(
                ServeConfig(),
                LoadConfig(clients=30, frames=10, seed=5),
                record_path=path,
            )
        )
        assert report.ok
        code = main(
            [
                "bench-gate", "--canary", "fast-sequent:h=19",
                "--incumbent", "sendrecv",
                "--capture", path, "--quick", "--repeats", "1",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "live-capture" in out

    def test_bench_gate_capture_without_canary_is_an_error(self, capsys):
        from repro.cli import main

        code = main(["bench-gate", "--capture", "x.json"])
        assert code == 2
        assert "--canary" in capsys.readouterr().err
