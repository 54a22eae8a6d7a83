"""Integration: every engine audits a small base sorted by label.

A 1,200-follower target whose arrival order is its labels' order:
first 480 inactive (the long-gone early audience), then 120 fakes,
then 600 genuine (the fresh crowd), a recency gradient in miniature.
The base is small enough that every engine's frame covers it, so each
engine sees the whole gradient.
"""

import pytest

from repro.analytics import (
    SocialbakersFakeFollowerCheck,
    StatusPeopleFakers,
    Twitteraudit,
)
from repro.audit import AuditRequest
from repro.core import PAPER_EPOCH, YEAR, SimClock
from repro.fc import FakeClassifierEngine
from repro.twitter import (
    FollowerSegmentSpec,
    TargetSpec,
    build_world,
    persona_mix_from_labels,
)


@pytest.fixture(scope="module")
def ordered_world():
    """One target, 1200 followers, labels in arrival order."""
    world = build_world(seed=21)
    world.add_target(TargetSpec(
        screen_name="orderedstar", followers=1200,
        created_at=PAPER_EPOCH - 4 * YEAR, follow_window_days=3 * 365,
        statuses_count=900,
        segments=[
            FollowerSegmentSpec(0.4, persona_mix_from_labels(1.0, 0.0, 0.0)),
            FollowerSegmentSpec(0.1, persona_mix_from_labels(0.0, 1.0, 0.0)),
            FollowerSegmentSpec(0.5, persona_mix_from_labels(0.0, 0.0, 1.0)),
        ]))
    return world


class TestEnginesOnAnOrderedBase:
    def test_fc_engine_recovers_composition(self, ordered_world, detector):
        engine = FakeClassifierEngine(
            ordered_world, SimClock(PAPER_EPOCH), detector, seed=1)
        report = engine.audit(AuditRequest(target="orderedstar"))
        assert report.sample_size == 1200  # census: base < 9604
        assert report.inactive_pct == pytest.approx(40.0, abs=6.0)
        assert report.fake_pct == pytest.approx(10.0, abs=5.0)

    def test_twitteraudit_runs(self, ordered_world):
        tool = Twitteraudit(ordered_world, SimClock(PAPER_EPOCH), seed=1)
        report = tool.audit(AuditRequest(target="orderedstar"))
        assert report.sample_size == 1200
        assert 0.0 <= report.fake_pct <= 100.0

    def test_statuspeople_runs(self, ordered_world):
        tool = StatusPeopleFakers(ordered_world, SimClock(PAPER_EPOCH), seed=1)
        report = tool.audit(AuditRequest(target="orderedstar"))
        assert report.sample_size == 700  # its documented cap applies
        assert report.inactive_pct is not None

    def test_socialbakers_runs_with_timelines(self, ordered_world):
        tool = SocialbakersFakeFollowerCheck(
            ordered_world, SimClock(PAPER_EPOCH), seed=1)
        report = tool.audit(AuditRequest(target="orderedstar"))
        assert report.sample_size == 1200
        assert tool.client.call_log.count("statuses/user_timeline") == 1200

    def test_small_bases_have_no_head_bias(self, ordered_world):
        """With 1200 followers the 35K head frame covers the whole
        base, so StatusPeople's sample is effectively unbiased: its
        fake+inactive share covers the true non-genuine 50% (SP checks
        its spam criteria first, so many dormant eggs land in 'fake'
        rather than 'inactive')."""
        tool = StatusPeopleFakers(ordered_world, SimClock(PAPER_EPOCH), seed=1)
        report = tool.audit(AuditRequest(target="orderedstar"))
        assert report.inactive_pct + report.fake_pct >= 45.0

    def test_growth_monitor_on_a_static_base(self, ordered_world):
        from repro.growth import GrowthMonitor
        monitor = GrowthMonitor(ordered_world, SimClock(PAPER_EPOCH))
        report = monitor.watch("orderedstar", days=5)
        assert not report.suspicious  # no trickle: zero growth
