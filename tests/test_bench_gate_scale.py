"""The million-connection gate tier: config bounds, reaping, scaling.

Pins the n_sweep validation fix (the gate used to accept any value and
discover the mistake hours into a sweep), the reaper-bounded replay
mode, the scale-tier configuration, and -- marked slow -- the scaling
claim itself: chained backends' p99 PCBs-examined grows with N while
``fast-cuckoo`` stays at a small constant.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.fastpath.gate import (
    GateConfig,
    MAX_SWEEP_USERS,
    SCALE_CONFIG,
    SCALE_SPECS,
    measure_replay,
)
from repro.workload.record import record_tpca_stream


class TestSweepValidation:
    def test_rejects_empty_sweep(self):
        with pytest.raises(ValueError, match="at least one connection"):
            GateConfig(n_sweep=())

    @pytest.mark.parametrize("bad", [0, -5, 2.5, "100"])
    def test_rejects_non_positive_or_non_int(self, bad):
        with pytest.raises(ValueError, match="positive integers"):
            GateConfig(n_sweep=(bad,))

    def test_rejects_above_bound(self):
        with pytest.raises(ValueError, match="exceeds the sweep bound"):
            GateConfig(n_sweep=(MAX_SWEEP_USERS + 1,))

    def test_accepts_the_bound_itself(self):
        config = GateConfig(n_sweep=(MAX_SWEEP_USERS,))
        assert config.n_sweep == (MAX_SWEEP_USERS,)

    def test_rejects_non_positive_reap_idle(self):
        for bad in (0.0, -1.0):
            with pytest.raises(ValueError, match="reap_idle"):
                GateConfig(reap_idle=bad)

    def test_scale_config_shape(self):
        assert SCALE_CONFIG.specs == SCALE_SPECS
        assert SCALE_SPECS == ("fast-sequent:h=19", "fast-cuckoo")
        assert max(SCALE_CONFIG.n_sweep) >= 100_000
        assert all(n <= MAX_SWEEP_USERS for n in SCALE_CONFIG.n_sweep)


class TestReapKeying:
    def test_reap_tag_separates_baselines(self):
        stream = record_tpca_stream(50, 2.0, 7)
        plain = measure_replay("fast-cuckoo", stream, repeats=1)
        config = GateConfig(n_sweep=(50,), duration=2.0)
        reaped_config = dataclasses.replace(config, reap_idle=5.0)
        assert plain.key(config) != plain.key(reaped_config)
        assert plain.key(reaped_config).endswith(";reap=5")

    def test_reaped_replay_bounds_population(self):
        # Long stream, aggressive timeout: the reaper must actually
        # remove idle flows mid-replay (the memory bound the
        # million-connection sweep relies on), and the measurement
        # must still complete coherently.
        stream = record_tpca_stream(200, 20.0, 11)
        reaped = measure_replay(
            "fast-cuckoo", stream, repeats=1, chunk=64, reap_idle=0.5
        )
        plain = measure_replay("fast-cuckoo", stream, repeats=1, chunk=64)
        assert reaped.packets == plain.packets
        # Reaped flows turn later packets into misses; with a 0.5 s
        # idle bound on a 20 s stream some flows must have been reaped.
        assert reaped.mean_examined <= plain.mean_examined


@pytest.mark.slow
class TestScalingShape:
    """The tentpole claim, asserted end-to-end at 10^4 and 10^5."""

    def test_cuckoo_p99_flat_while_chained_grows(self):
        p99 = {}
        for n_users in (10_000, 100_000):
            stream = record_tpca_stream(n_users, 1.0, 7)
            for spec in ("fast-sequent:h=19", "fast-cuckoo"):
                m = measure_replay(spec, stream, repeats=1, chunk=512)
                p99[(spec, n_users)] = m.p99_examined
        # Chained: p99 examined tracks N/H -- grows by roughly 10x
        # across the decade (allow wide slack; the shape is the claim).
        assert p99[("fast-sequent:h=19", 100_000)] > (
            3 * p99[("fast-sequent:h=19", 10_000)]
        )
        assert p99[("fast-sequent:h=19", 100_000)] > 1000
        # O(1) tier: a small constant, per the acceptance bound.
        assert p99[("fast-cuckoo", 10_000)] <= 4
        assert p99[("fast-cuckoo", 100_000)] <= 4
