"""Unit tests for the commercial-analytic skeleton: caching, reporting."""

import pytest

from repro.audit import AuditReport, AuditRequest, build_engines
from repro.analytics import ResultCache, StatusPeopleFakers, percentages
from repro.analytics.base import AnalysisOutcome
from repro.core import ConfigurationError, DAY, PAPER_EPOCH, SimClock
from repro.twitter import add_simple_target, build_world


def outcome(**overrides):
    defaults = dict(
        followers_count=1000, sample_size=100,
        fake_pct=10.0, genuine_pct=60.0, inactive_pct=30.0, details={})
    defaults.update(overrides)
    return AnalysisOutcome(**defaults)


class TestResultCache:
    def test_miss_then_hit(self):
        cache = ResultCache()
        assert cache.get("x", 0.0) is None
        cache.put("x", outcome(), 5.0)
        hit = cache.get("x", 100.0)
        assert hit is not None
        assert hit[1] == 5.0

    def test_keys_case_insensitive(self):
        cache = ResultCache()
        cache.put("Alice", outcome(), 0.0)
        assert cache.get("ALICE", 1.0) is not None
        assert "alice" in cache

    def test_ttl_expiry(self):
        cache = ResultCache(ttl=10.0)
        cache.put("x", outcome(), 0.0)
        assert cache.get("x", 9.0) is not None
        assert cache.get("x", 11.0) is None
        assert len(cache) == 0  # expired entries are evicted

    def test_invalid_ttl(self):
        with pytest.raises(ConfigurationError):
            ResultCache(ttl=0.0)


class TestResultCacheLRU:
    def test_bound_evicts_oldest_entry_first(self):
        cache = ResultCache(max_entries=2)
        cache.put("a", outcome(), 0.0)
        cache.put("b", outcome(), 1.0)
        cache.put("c", outcome(), 2.0)
        assert "a" not in cache
        assert "b" in cache and "c" in cache
        assert cache.evictions == 1

    def test_hit_refreshes_recency(self):
        cache = ResultCache(max_entries=2)
        cache.put("a", outcome(), 0.0)
        cache.put("b", outcome(), 1.0)
        cache.get("a", 2.0)  # a becomes most recently used
        cache.put("c", outcome(), 3.0)
        assert "a" in cache
        assert "b" not in cache

    def test_overwrite_does_not_evict(self):
        cache = ResultCache(max_entries=2)
        cache.put("a", outcome(), 0.0)
        cache.put("b", outcome(), 1.0)
        cache.put("a", outcome(), 2.0)  # same key, refreshed
        assert cache.size() == 2
        assert cache.evictions == 0

    def test_size_tracks_live_entries(self):
        cache = ResultCache(max_entries=3)
        assert cache.size() == 0
        for i, key in enumerate("abc"):
            cache.put(key, outcome(), float(i))
        assert cache.size() == len(cache) == 3
        cache.put("d", outcome(), 4.0)
        assert cache.size() == 3

    def test_unbounded_cache_never_evicts(self):
        cache = ResultCache()
        for i in range(100):
            cache.put(f"user{i}", outcome(), float(i))
        assert cache.size() == 100
        assert cache.evictions == 0

    def test_invalid_max_entries(self):
        with pytest.raises(ConfigurationError):
            ResultCache(max_entries=0)


class TestPercentages:
    def test_sums_to_exactly_100(self):
        pct = percentages({"a": 1, "b": 1, "c": 1}, 3)
        assert sum(pct.values()) == pytest.approx(100.0, abs=0.01)

    def test_simple_case(self):
        pct = percentages({"fake": 25, "good": 75}, 100)
        assert pct == {"fake": 25.0, "good": 75.0}

    def test_zero_total_rejected(self):
        with pytest.raises(ConfigurationError):
            percentages({"a": 0}, 0)


class TestAuditCaching:
    @pytest.fixture
    def tool(self, small_world):
        return StatusPeopleFakers(
            small_world, SimClock(PAPER_EPOCH), seed=1)

    def test_first_audit_fresh_then_cached(self, tool):
        first = tool.audit(AuditRequest(target="smalltown"))
        assert not first.cached
        assert first.response_seconds > 10
        second = tool.audit(AuditRequest(target="smalltown"))
        assert second.cached
        assert second.response_seconds < 5
        assert second.assessed_at < tool.client.clock.now()

    def test_cached_result_identical_percentages(self, tool):
        first = tool.audit(AuditRequest(target="smalltown"))
        second = tool.audit(AuditRequest(target="smalltown"))
        assert second.fake_pct == first.fake_pct
        assert second.inactive_pct == first.inactive_pct

    def test_force_refresh_bypasses_cache(self, tool):
        tool.audit(AuditRequest(target="smalltown"))
        refreshed = tool.audit(AuditRequest(target="smalltown", force_refresh=True))
        assert not refreshed.cached
        assert refreshed.response_seconds > 10

    def test_prewarm_makes_first_request_cached(self, small_world):
        tool = StatusPeopleFakers(small_world, SimClock(PAPER_EPOCH), seed=1)
        tool.prewarm(["smalltown"])
        report = tool.audit(AuditRequest(target="smalltown"))
        assert report.cached
        assert report.response_seconds < 5

    def test_prewarm_idempotent(self, small_world):
        tool = StatusPeopleFakers(small_world, SimClock(PAPER_EPOCH), seed=1)
        tool.prewarm(["smalltown"])
        before = tool.client.clock.now()
        tool.prewarm(["smalltown"])  # no second analysis
        assert tool.client.clock.now() == before

    def test_ttl_expiry_triggers_reanalysis(self, small_world):
        clock = SimClock(PAPER_EPOCH)
        tool = StatusPeopleFakers(
            small_world, clock, seed=1, cache_ttl=2 * DAY)
        tool.audit(AuditRequest(target="smalltown"))
        clock.advance(3 * DAY)
        report = tool.audit(AuditRequest(target="smalltown"))
        assert not report.cached


class TestEmptySample:
    """An empty sample has one composition on every engine: 0/0/0."""

    def test_zero_follower_target_reads_the_same_on_all_engines(
            self, detector):
        world = build_world(seed=3, ref_time=PAPER_EPOCH)
        add_simple_target(world, "nobody", 0, 0.0, 0.0, 1.0)
        engines = build_engines(world, SimClock(PAPER_EPOCH), detector,
                                seed=3)
        assert len(engines) == 4
        for name, engine in engines.items():
            report = engine.audit(AuditRequest(target="nobody"))
            expected = (0.0, 0.0, 0.0 if engine.reports_inactive else None)
            assert report.sample_size == 0, name
            assert report.completeness == 1.0, name
            assert (report.fake_pct, report.genuine_pct,
                    report.inactive_pct) == expected, name
            assert engine.composition({}) == expected, name
            if name == "fc":
                for key in ("fake_ci95", "inactive_ci95", "genuine_ci95"):
                    assert report.details[key] is None, key
            if name == "twitteraudit":
                assert report.details["mean_quality_score"] is None

    def test_report_accepts_empty_composition_only_for_empty_sample(self):
        fields = dict(tool="t", target="x", followers_count=0,
                      fake_pct=0.0, genuine_pct=0.0, inactive_pct=0.0,
                      response_seconds=1.0, cached=False, assessed_at=0.0)
        assert AuditReport(sample_size=0, **fields).completeness == 1.0
        with pytest.raises(ConfigurationError):
            AuditReport(sample_size=5, **fields)

    def test_report_rejects_a_composition_for_an_empty_sample(self):
        fields = dict(tool="t", target="x", followers_count=10,
                      fake_pct=100.0, genuine_pct=0.0, inactive_pct=0.0,
                      response_seconds=1.0, cached=False, assessed_at=0.0)
        assert AuditReport(sample_size=5, **fields).fake_pct == 100.0
        with pytest.raises(ConfigurationError):
            AuditReport(sample_size=0, **fields)
