"""Tests for lookup statistics accounting."""

import pytest

from repro.core.stats import DemuxStats, KindStats, LookupRecord, PacketKind


def rec(examined, *, hit=False, found=True, kind=PacketKind.DATA):
    return LookupRecord(examined=examined, cache_hit=hit, found=found, kind=kind)


class TestKindStats:
    def test_empty_stats(self):
        stats = KindStats()
        assert stats.mean_examined == 0.0
        assert stats.hit_rate == 0.0
        assert stats.percentile(0.5) == 0

    def test_counters(self):
        stats = KindStats()
        stats.record(rec(3))
        stats.record(rec(1, hit=True))
        stats.record(rec(10, found=False))
        assert stats.lookups == 3
        assert stats.examined_total == 14
        assert stats.cache_hits == 1
        assert stats.not_found == 1
        assert stats.max_examined == 10
        assert stats.mean_examined == pytest.approx(14 / 3)
        assert stats.hit_rate == pytest.approx(1 / 3)

    def test_histogram(self):
        stats = KindStats()
        for examined in (1, 1, 2, 5, 5, 5):
            stats.record(rec(examined))
        assert stats.histogram == {1: 2, 2: 1, 5: 3}

    def test_percentiles(self):
        stats = KindStats()
        for examined in range(1, 101):
            stats.record(rec(examined))
        assert stats.percentile(0.5) == 50
        assert stats.percentile(0.99) == 99
        assert stats.percentile(1.0) == 100
        assert stats.percentile(0.0) == 1  # smallest bucket reached first

    def test_percentile_range_checked(self):
        with pytest.raises(ValueError):
            KindStats().percentile(1.5)

    def test_merge(self):
        a, b = KindStats(), KindStats()
        a.record(rec(2))
        a.record(rec(4, hit=True))
        b.record(rec(6, found=False))
        a.merge(b)
        assert a.lookups == 3
        assert a.examined_total == 12
        assert a.not_found == 1
        assert a.max_examined == 6
        assert a.histogram == {2: 1, 4: 1, 6: 1}


class TestDemuxStats:
    def test_kind_separation(self):
        stats = DemuxStats()
        stats.record(rec(10, kind=PacketKind.DATA))
        stats.record(rec(2, kind=PacketKind.ACK))
        stats.record(rec(4, kind=PacketKind.ACK))
        assert stats.kind(PacketKind.DATA).lookups == 1
        assert stats.kind(PacketKind.ACK).lookups == 2
        assert stats.kind(PacketKind.ACK).mean_examined == 3.0
        assert stats.lookups == 3
        assert stats.mean_examined == pytest.approx(16 / 3)

    def test_combined_merges_kinds(self):
        stats = DemuxStats()
        stats.record(rec(10, kind=PacketKind.DATA))
        stats.record(rec(2, kind=PacketKind.ACK))
        combined = stats.combined()
        assert combined.lookups == 2
        assert combined.examined_total == 12

    def test_reset(self):
        stats = DemuxStats()
        stats.record(rec(10))
        stats.reset()
        assert stats.lookups == 0
        assert stats.kind(PacketKind.DATA).histogram == {}

    def test_aggregate_hit_rate(self):
        stats = DemuxStats()
        stats.record(rec(1, hit=True, kind=PacketKind.ACK))
        stats.record(rec(5, kind=PacketKind.DATA))
        assert stats.hit_rate == 0.5
        assert stats.cache_hits == 1

    def test_summary_text(self):
        stats = DemuxStats()
        stats.record(rec(7))
        text = stats.summary("bsd")
        assert "bsd" in text
        assert "1 lookups" in text
        assert "7.00" in text


class TestMergeRegression:
    """merge()/from_dict() feed cross-process aggregation (repro.smp);
    these pin the algebra parallel sweeps rely on."""

    def stream(self, examineds, kind=PacketKind.DATA):
        stats = KindStats()
        for examined in examineds:
            stats.record(rec(examined, kind=kind))
        return stats

    def test_merge_empty_is_identity(self):
        stats = self.stream([3, 1, 4, 1, 5])
        before = stats.as_dict()
        stats.merge(KindStats())
        assert stats.as_dict() == before
        empty = KindStats()
        empty.merge(self.stream([3, 1, 4, 1, 5]))
        assert empty.as_dict() == before

    def test_merge_is_commutative(self):
        left_a, left_b = self.stream([1, 2, 9]), self.stream([2, 7])
        right_a, right_b = self.stream([2, 7]), self.stream([1, 2, 9])
        left_a.merge(left_b)
        right_a.merge(right_b)
        assert left_a.as_dict() == right_a.as_dict()

    def test_merge_never_mutates_other(self):
        a, b = self.stream([1, 2]), self.stream([5])
        b_before = b.as_dict()
        a.merge(b)
        assert b.as_dict() == b_before

    def test_merged_halves_equal_single_stream(self):
        examineds = [1, 5, 2, 8, 2, 2, 13, 1]
        whole = self.stream(examineds)
        first, second = self.stream(examineds[:4]), self.stream(examineds[4:])
        first.merge(second)
        assert first.as_dict() == whole.as_dict()
        assert first.percentile(0.5) == whole.percentile(0.5)

    def test_kindstats_json_roundtrip_restores_int_keys(self):
        """JSON turns histogram keys into strings; from_dict must restore
        ints, or percentile()'s sorted() walks buckets lexically
        ("10" < "2") and reports garbage."""
        import json

        stats = self.stream([2, 2, 10, 10, 10])
        restored = KindStats.from_dict(json.loads(json.dumps(stats.as_dict())))
        assert restored.histogram == {2: 2, 10: 3}
        assert all(isinstance(k, int) for k in restored.histogram)
        assert restored.percentile(0.4) == stats.percentile(0.4) == 2
        assert restored.as_dict() == stats.as_dict()

    def test_demuxstats_merge_and_roundtrip(self):
        import json

        a, b = DemuxStats(), DemuxStats()
        a.record(rec(4, kind=PacketKind.DATA))
        b.record(rec(2, kind=PacketKind.ACK))
        b.record(rec(6, hit=True, kind=PacketKind.DATA))
        a.merge(b)
        assert a.lookups == 3
        assert a.kind(PacketKind.ACK).lookups == 1
        assert a.cache_hits == 1
        restored = DemuxStats.from_dict(json.loads(json.dumps(a.as_dict())))
        assert restored.as_dict() == a.as_dict()
        assert restored.combined().examined_total == 12

    def test_cross_process_worker_aggregation(self):
        """The exact dance a parallel sweep does: per-worker stats ->
        as_dict -> JSON -> from_dict -> merge into one total."""
        import json

        workers = [
            self.stream([1, 2, 3]),
            self.stream([4, 5]),
            self.stream([6]),
        ]
        total = KindStats()
        for worker in workers:
            total.merge(
                KindStats.from_dict(json.loads(json.dumps(worker.as_dict())))
            )
        assert total.lookups == 6
        assert total.examined_total == 21
        assert total.max_examined == 6
        assert total.histogram == {n: 1 for n in range(1, 7)}


class TestScalarAccounting:
    """``KindStats.add`` is the one accounting body; ``record`` of a
    ``LookupRecord`` must stay an exact delegate of it."""

    QUANTILES = (0.0, 0.1, 0.5, 0.9, 0.99, 1.0)

    @pytest.mark.parametrize("seed", range(6))
    def test_add_and_record_agree_on_random_streams(self, seed):
        import random

        rng = random.Random(seed)
        records = [
            rec(
                rng.choice([0, 1, rng.randrange(200)]),
                hit=rng.random() < 0.3,
                found=rng.random() < 0.8,
                kind=rng.choice(list(PacketKind)),
            )
            for _ in range(rng.randrange(1, 400))
        ]
        by_add, by_record = KindStats(), KindStats()
        for r in records:
            by_add.add(r.examined, r.cache_hit, r.found)
            by_record.record(r)
        assert by_add.as_dict() == by_record.as_dict()
        assert by_add.histogram == by_record.histogram
        assert [by_add.percentile(q) for q in self.QUANTILES] == [
            by_record.percentile(q) for q in self.QUANTILES
        ]
        # DemuxStats.record still takes a LookupRecord, kind-routed.
        per_kind, recorded = DemuxStats(), DemuxStats()
        for r in records:
            per_kind.kind(r.kind).add(r.examined, r.cache_hit, r.found)
            recorded.record(r)
        assert per_kind.as_dict() == recorded.as_dict()
        assert recorded.lookups == len(records)
