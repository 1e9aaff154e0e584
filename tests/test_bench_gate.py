"""Tests for the benchmark-regression gate (repro.fastpath.gate).

These run a miniature sweep (two specs, short streams) against a
``tmp_path`` trajectory so they are fast and hermetic; the real sweep
behind ``bench-gate`` differs only in configuration.
"""

from __future__ import annotations

import json

import pytest

from repro.fastpath.gate import (
    _baselines,
    _load_trajectory,
    GateConfig,
    Measurement,
    QUICK_CONFIG,
    measure_replay,
    run_gate,
)
from repro.workload.record import record_tpca_stream

#: A sweep small enough for unit tests: two specs, tiny streams.  The
#: threshold is deliberately loose (90%) because micro-stream timings
#: jitter far past the production 10% -- the forged-baseline test below
#: inflates by 1000x, which trips any threshold.
TINY = GateConfig(
    specs=("bsd", "fast-sequent:h=7"),
    n_sweep=(30,),
    duration=5.0,
    repeats=3,
    chunk=32,
    threshold=0.9,
)


def test_config_validation():
    with pytest.raises(ValueError, match="spec"):
        GateConfig(specs=())
    with pytest.raises(ValueError, match="repeats"):
        GateConfig(repeats=0)
    with pytest.raises(ValueError, match="threshold"):
        GateConfig(threshold=1.5)
    assert QUICK_CONFIG.repeats < GateConfig().repeats


def test_measure_replay_counts_every_packet():
    stream = record_tpca_stream(30, 5.0, 7)
    measurement = measure_replay("fast-sequent:h=7", stream, repeats=1, chunk=16)
    assert measurement.packets == len(stream.packets)
    assert measurement.packets_per_sec > 0
    assert measurement.best_seconds > 0
    assert measurement.n_users == 30
    assert measurement.key(TINY) == "fast-sequent:h=7@n=30;d=5;seed=7"


def test_first_run_creates_trajectory_and_passes(tmp_path):
    path = tmp_path / "BENCH_trajectory.json"
    report = run_gate(TINY, str(path))
    assert report.ok
    assert path.exists()

    data = json.loads(path.read_text())
    assert len(data["entries"]) == 1
    entry = data["entries"][0]
    assert {"date", "python", "config", "results"} <= set(entry)
    assert "speedups" not in entry
    assert [result["algorithm"] for result in entry["results"]] == list(
        TINY.specs
    )
    assert "fast-sequent" in report.render_text()


def test_second_run_gates_against_first(tmp_path):
    path = tmp_path / "BENCH_trajectory.json"
    run_gate(TINY, str(path))
    report = run_gate(TINY, str(path))
    # Same machine, back to back, loose test threshold: no regression;
    # and the trajectory now records both runs.
    assert report.ok
    assert len(json.loads(path.read_text())["entries"]) == 2


def test_inflated_baseline_trips_the_gate(tmp_path):
    path = tmp_path / "BENCH_trajectory.json"
    report = run_gate(TINY, str(path))
    data = json.loads(path.read_text())
    # Forge an impossible baseline: 1000x the measured throughput.
    for result in data["entries"][0]["results"]:
        result["packets_per_sec"] = result["packets_per_sec"] * 1000
    path.write_text(json.dumps(data))

    report = run_gate(TINY, str(path))
    assert not report.ok
    assert len(report.regressions) == 2
    assert "drop" in report.regressions[0]
    # The regressing entry is still appended: the trajectory is the
    # record; the nonzero exit is the gate.
    assert len(json.loads(path.read_text())["entries"]) == 2
    assert "REGRESSIONS" in report.render_text()


def test_quick_runs_never_gate_against_full_runs(tmp_path):
    path = tmp_path / "BENCH_trajectory.json"
    run_gate(TINY, str(path))
    data = json.loads(path.read_text())
    for result in data["entries"][0]["results"]:
        result["packets_per_sec"] = result["packets_per_sec"] * 1000
    path.write_text(json.dumps(data))

    # Different duration -> different measurement key -> no baseline.
    other = GateConfig(
        specs=TINY.specs, n_sweep=TINY.n_sweep, duration=4.0,
        repeats=1, chunk=32, threshold=TINY.threshold,
    )
    assert run_gate(other, str(path)).ok


def test_no_append_leaves_trajectory_untouched(tmp_path):
    path = tmp_path / "BENCH_trajectory.json"
    run_gate(TINY, str(path))
    before = path.read_text()
    report = run_gate(TINY, str(path), append=False)
    assert report.ok
    assert path.read_text() == before


def test_bare_list_trajectory_is_tolerated(tmp_path):
    path = tmp_path / "BENCH_trajectory.json"
    path.write_text("[]")
    report = run_gate(TINY, str(path))
    assert report.ok
    assert json.loads(path.read_text())["entries"]


def test_progress_callback_sees_every_spec(tmp_path):
    messages = []
    run_gate(
        TINY, str(tmp_path / "t.json"), progress=messages.append
    )
    joined = "\n".join(messages)
    assert "measuring bsd at" in joined
    assert "fast-sequent:h=7" in joined


@pytest.mark.parametrize("reap_idle", [None, 2.5])
def test_measured_keys_match_recorded_baseline_keys(tmp_path, reap_idle):
    # If the measured and the recorded key drifted apart, the gate
    # would find no baseline and silently never fire.
    config = GateConfig(
        specs=("bsd",), n_sweep=(20,), duration=3.0, repeats=1,
        chunk=32, threshold=0.9, reap_idle=reap_idle,
    )
    path = tmp_path / "t.json"
    report = run_gate(config, str(path))
    (result,) = report.entry["results"]
    measured = Measurement(**result).key(config)
    recorded = _baselines(_load_trajectory(str(path)))
    assert recorded == {measured: result["packets_per_sec"]}


def _forged_entry(template, scale):
    """A copy of a trajectory entry with packets/sec scaled."""
    entry = json.loads(json.dumps(template))
    for result in entry["results"]:
        result["packets_per_sec"] = result["packets_per_sec"] * scale
    return entry


def test_baseline_is_trajectory_maximum_not_latest_entry():
    # Regression test for the ratchet bug: _baselines used
    # last-write-wins, so a run could gate against an already-degraded
    # recent entry instead of the best the machine ever did.
    trajectory = {
        "entries": [
            {
                "config": {"duration": 5.0, "seed": 7},
                "results": [
                    {
                        "algorithm": "sequent:h=7",
                        "n_users": 30,
                        "packets_per_sec": rate,
                    }
                ],
            }
            for rate in (1000.0, 930.0, 870.0, 810.0)  # each drop < 10%
        ]
    }
    baselines = _baselines(trajectory)
    assert baselines == {"sequent:h=7@n=30;d=5;seed=7": 1000.0}


def test_compounding_subthreshold_drops_cannot_ratchet_the_gate(tmp_path):
    # End to end: a trajectory whose history decayed in sub-threshold
    # steps must still gate the next run against its historic maximum.
    path = tmp_path / "BENCH_trajectory.json"
    run_gate(TINY, str(path))
    data = json.loads(path.read_text())
    template = data["entries"][0]
    # History: one excellent run (1000x real), then a decayed one
    # (half of real).  Last-write-wins would gate against the decayed
    # entry and pass; the maximum gates against the excellent run.
    data["entries"] = [
        _forged_entry(template, 1000.0),
        _forged_entry(template, 0.5),
    ]
    path.write_text(json.dumps(data))

    report = run_gate(TINY, str(path))
    assert not report.ok
    assert all("drop" in regression for regression in report.regressions)


class TestTimedWindow:
    """The perf_counter window must measure replay only.

    Recorded pps entries feed BENCH_trajectory.json baselines; if
    structure population, reaper attach, or conformance checks leak
    into the timed region, every subsequent run is gated against a
    polluted number.
    """

    @staticmethod
    def _instrument(monkeypatch, events):
        import time as real_time

        from repro.fastpath import gate
        import repro.lifecycle.reaper as reaper_module

        real_perf = real_time.perf_counter

        class _Clock:
            @staticmethod
            def perf_counter():
                events.append("clock")
                return real_perf()

        monkeypatch.setattr(gate, "time", _Clock)

        real_reaper = reaper_module.ConnectionReaper

        class RecordingReaper(real_reaper):
            def __init__(self, *args, **kwargs):
                events.append("reaper")
                super().__init__(*args, **kwargs)

            def advance(self, *args, **kwargs):
                events.append("advance")
                return super().advance(*args, **kwargs)

        monkeypatch.setattr(
            reaper_module, "ConnectionReaper", RecordingReaper
        )
        return gate

    def test_window_excludes_reaper_attach(self, monkeypatch):
        events = []
        gate = self._instrument(monkeypatch, events)
        stream = record_tpca_stream(30, 5.0, 7)
        gate.measure_replay(
            "fast-sequent:h=7", stream, repeats=2, chunk=16, reap_idle=4.0
        )
        # Exactly two perf_counter reads per repeat: the window opens
        # after the reaper attaches and closes right after the replay.
        assert events.count("clock") == 4
        assert events.count("reaper") == 2
        repeats = []
        for event in events:
            if event == "reaper":
                repeats.append([])
            else:
                repeats[-1].append(event)
        for repeat in repeats:
            assert repeat[0] == "clock", (
                "reaper attach leaked into the timed window"
            )
            assert repeat[-1] == "clock"
            assert all(e == "advance" for e in repeat[1:-1]), (
                f"unexpected work inside the window: {repeat}"
            )

    def test_canary_conformance_outside_window(self, monkeypatch):
        from repro.fastpath.gate import CanaryConfig, run_canary

        events = []
        gate = self._instrument(monkeypatch, events)
        real_trace = gate._found_trace

        def recording_trace(spec, stream):
            events.append("trace")
            return real_trace(spec, stream)

        monkeypatch.setattr(gate, "_found_trace", recording_trace)
        stream = record_tpca_stream(30, 5.0, 7)
        report = run_canary(
            stream,
            CanaryConfig(
                candidate="fast-sequent:h=7",
                incumbent="sequent:h=7",
                repeats=1,
                chunk=16,
            ),
        )
        assert report.decisions_match
        assert events.count("trace") == 2
        last_clock = max(i for i, e in enumerate(events) if e == "clock")
        first_trace = min(i for i, e in enumerate(events) if e == "trace")
        assert last_clock < first_trace, (
            "conformance check ran inside a timed window"
        )
