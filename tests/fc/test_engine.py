"""Unit tests for the FC engine."""

import pytest

from repro.audit import AuditRequest
from repro.core import ConfigurationError, DAY, PAPER_EPOCH, SimClock
from repro.faults.plan import BurstSchedule, FaultPlan, InjectorSpec
from repro.fc import FC_SAMPLE_SIZE, FakeClassifierEngine
from repro.twitter import add_simple_target, build_world


@pytest.fixture
def engine(small_world, detector):
    clock = SimClock(PAPER_EPOCH)
    return FakeClassifierEngine(
        small_world, clock, detector, sample_size=2000, seed=5)


class TestAudit:
    def test_percentages_track_ground_truth(self, engine, small_world):
        report = engine.audit(AuditRequest(target="smalltown"))
        # smalltown's spec: 40% inactive / 10% fake / 50% genuine.
        assert report.inactive_pct == pytest.approx(40.0, abs=4.0)
        assert report.fake_pct == pytest.approx(10.0, abs=4.0)
        assert report.genuine_pct == pytest.approx(50.0, abs=5.0)

    def test_report_metadata(self, engine):
        report = engine.audit(AuditRequest(target="smalltown"))
        assert report.tool == "fc"
        assert report.sample_size == 2000
        assert not report.cached
        assert report.details["population"] == 12_000
        assert report.details["sampling"].startswith("uniform")

    def test_confidence_intervals_bracket_estimates(self, engine):
        report = engine.audit(AuditRequest(target="smalltown"))
        for key, point in (("fake_ci95", report.fake_pct),
                           ("inactive_ci95", report.inactive_pct),
                           ("genuine_ci95", report.genuine_pct)):
            low, high = report.details[key]
            assert low <= point <= high
            # n = 2000 buys roughly a +/-2.2% margin at worst.
            assert high - low <= 5.0

    def test_default_sample_size_is_9604(self, small_world, detector):
        engine = FakeClassifierEngine(
            small_world, SimClock(PAPER_EPOCH), detector)
        assert engine.sample_size == FC_SAMPLE_SIZE

    def test_small_account_gets_census(self, detector):
        world = build_world(seed=3)
        add_simple_target(world, "tiny", 500, 0.2, 0.1, 0.7)
        engine = FakeClassifierEngine(
            world, SimClock(PAPER_EPOCH), detector, seed=2)
        report = engine.audit(AuditRequest(target="tiny"))
        assert report.sample_size == 500
        assert "census" in report.details["confidence"]

    def test_response_time_exceeds_180s_at_scale(self, small_world, detector):
        """The paper: FC's response time 'is always greater than 180
        seconds' — it pages the whole list and looks up 9604 profiles."""
        engine = FakeClassifierEngine(
            small_world, SimClock(PAPER_EPOCH), detector)
        report = engine.audit(AuditRequest(target="smalltown"))
        assert report.response_seconds > 180.0

    def test_no_caching_between_audits(self, engine):
        first = engine.audit(AuditRequest(target="smalltown"))
        second = engine.audit(AuditRequest(target="smalltown"))
        assert not second.cached
        assert second.response_seconds > 10  # full re-analysis, not 2-3 s

    def test_audits_use_fresh_samples(self, engine):
        first = engine.audit(AuditRequest(target="smalltown"))
        second = engine.audit(AuditRequest(target="smalltown"))
        # Same world, same truth, but independent uniform samples:
        # estimates agree within the margin, yet need not be identical.
        assert first.inactive_pct == pytest.approx(
            second.inactive_pct, abs=5.0)

    def test_unknown_target_rejected(self, engine):
        from repro.core import UnknownAccountError
        with pytest.raises(UnknownAccountError):
            engine.audit(AuditRequest(target="ghost"))

    def test_followerless_target_gets_empty_composition(self, detector):
        world = build_world(seed=4)
        add_simple_target(world, "lonely", 0, 0.0, 0.0, 1.0)
        engine = FakeClassifierEngine(
            world, SimClock(PAPER_EPOCH), detector)
        report = engine.audit(AuditRequest(target="lonely"))
        assert report.sample_size == 0
        assert report.completeness == 1.0
        assert (report.fake_pct, report.genuine_pct,
                report.inactive_pct) == (0.0, 0.0, 0.0)
        assert "census of all 0 followers" in report.details["confidence"]

    def test_invalid_sample_size(self, small_world, detector):
        with pytest.raises(ConfigurationError):
            FakeClassifierEngine(
                small_world, SimClock(), detector, sample_size=0)


def shaky_world():
    world = build_world(seed=11, ref_time=PAPER_EPOCH)
    add_simple_target(world, "shaky", 3000, 0.3, 0.2, 0.5)
    return world


def outage(resource):
    """Every ``resource`` request 503s during the first simulated hour
    (and, in practice, never afterwards)."""
    return FaultPlan(injectors=(InjectorSpec(
        kind="transient_503", probability=2.0 ** -40, resources=(resource,),
        burst=BurstSchedule(period=1e9, duration=3600.0,
                            multiplier=2.0 ** 40, phase=PAPER_EPOCH)),),
        seed=3)


class TestDegraded:
    """FC's degraded audits: an empty report, FC's processing time on
    top of the failed acquisition, and one sampling index used up."""

    @pytest.mark.parametrize("resource, followers, reason, acquisition", [
        # users/show is charged to users/lookup: its retries run out.
        ("users/lookup", 0, "TransientServerError", 22.46537137031555),
        # Every followers/ids page fails: the crawl comes back empty.
        ("followers/ids", 3000, "empty follower crawl", 24.365371465682983),
    ])
    def test_outage_degrades_then_next_audit_samples_as_before(
            self, detector, resource, followers, reason, acquisition):
        clock = SimClock(PAPER_EPOCH)
        engine = FakeClassifierEngine(shaky_world(), clock, detector,
                                      sample_size=500, seed=5,
                                      faults=outage(resource))
        report = engine.audit(AuditRequest(target="shaky"))
        assert report.sample_size == 0
        assert report.completeness == 0.0
        assert report.followers_count == followers
        assert report.details == {"degraded": reason}
        assert (report.fake_pct, report.genuine_pct,
                report.inactive_pct) == (0.0, 0.0, 0.0)
        assert report.errors_seen == 4
        assert report.response_seconds == pytest.approx(
            acquisition + FakeClassifierEngine.PROCESSING_SECONDS)

        # The degraded audit used sampling index 1, so the next audit
        # draws index 2's sample, exactly as before it degraded.
        clock.advance(DAY)
        following = engine.audit(AuditRequest(target="shaky"))
        fresh = FakeClassifierEngine(
            shaky_world(), SimClock(PAPER_EPOCH + DAY), detector,
            sample_size=500, seed=5).audit(
                AuditRequest(target="shaky", audit_index=2))
        assert following.completeness == 1.0
        assert following.sample_size == 500
        assert (following.fake_pct, following.inactive_pct,
                following.genuine_pct) == (18.6, 29.6, 51.8)
        assert (following.fake_pct, following.inactive_pct,
                following.genuine_pct) == (
                    fresh.fake_pct, fresh.inactive_pct, fresh.genuine_pct)
