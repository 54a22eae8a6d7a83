"""Unit tests for the churn-sensitivity experiment (A6)."""

import pytest

from repro.core import ConfigurationError
from repro.experiments import run_churn_sensitivity


class TestChurnSensitivity:
    @pytest.fixture(scope="class")
    def outcome(self):
        return run_churn_sensitivity(
            churn_levels=(0.0, 0.15), days=5, growth_per_day=80.0,
            warmup_days=3, seed=7)

    def test_zero_churn_reproduces_the_paper(self, outcome):
        rows, __ = outcome
        clean = next(row for row in rows if row.daily_churn == 0.0)
        assert clean.violations == 0
        assert clean.violation_rate == 0.0
        assert clean.new_followers > 0

    def test_churn_breaks_the_suffix_property(self, outcome):
        rows, __ = outcome
        churny = next(row for row in rows if row.daily_churn > 0.0)
        assert churny.violations > 0

    def test_render(self, outcome):
        __, rendered = outcome
        assert "A6" in rendered
        assert "0%" in rendered

    def test_days_validated(self):
        """Days, churn levels, growth and warm-up are checked up front.

        A negative level used to run and render a "-50%" row with no
        violations, because a level <= 0 adds no churn.
        """
        with pytest.raises(ConfigurationError):
            run_churn_sensitivity(days=1)
        for invalid in ({"churn_levels": (-0.5, 0.0)},
                        {"churn_levels": (0.0, 1.0)},
                        {"churn_levels": (0.0, float("nan"))},
                        {"growth_per_day": 0.0}, {"growth_per_day": -50.0},
                        {"warmup_days": -1}):
            settings = dict(churn_levels=(0.0,), days=3, growth_per_day=50,
                            warmup_days=1)
            settings.update(invalid)
            with pytest.raises(ConfigurationError):
                run_churn_sensitivity(**settings)

    def test_unfollows_leave_the_count(self):
        """Churn is real: the churning target ends with fewer followers
        than it gained, and the same seed replays the same rows."""
        from repro.core import DAY, PAPER_EPOCH
        from repro.experiments.live_ordering import ORGANIC_MIX, daily_churn
        from repro.twitter import FollowerSegmentSpec, TargetSpec, build_world

        world = build_world(seed=7)
        population = world.add_target(TargetSpec(
            screen_name="leaky", followers=400,
            segments=[FollowerSegmentSpec(1.0, ORGANIC_MIX)],
            created_at=PAPER_EPOCH - 300 * DAY))
        before = population.size_at(PAPER_EPOCH)
        for day in range(1, 11):
            daily_churn(world, population, 0.1, day, PAPER_EPOCH + day * DAY)
        after = population.size_at(PAPER_EPOCH + 10 * DAY)
        assert after < before * 0.6
        assert population.arrived_at(PAPER_EPOCH + 10 * DAY) == before
        assert run_churn_sensitivity(churn_levels=(0.1,), days=3, seed=3) \
            == run_churn_sensitivity(churn_levels=(0.1,), days=3, seed=3)

    def test_daily_churn_fraction_validated(self):
        """A day's churn is a fraction of the listed followers in
        ``[0, 1)``; anything else is rejected before a follower leaves."""
        from repro.core import DAY, PAPER_EPOCH
        from repro.experiments.live_ordering import ORGANIC_MIX, daily_churn
        from repro.twitter import FollowerSegmentSpec, TargetSpec, build_world

        world = build_world(seed=7)
        population = world.add_target(TargetSpec(
            screen_name="leaky", followers=50,
            segments=[FollowerSegmentSpec(1.0, ORGANIC_MIX)],
            created_at=PAPER_EPOCH - 300 * DAY))
        before = population.size_at(PAPER_EPOCH + DAY)
        for invalid in (-0.1, 1.0, 1.5, float("nan")):
            with pytest.raises(ConfigurationError):
                daily_churn(world, population, invalid, 1, PAPER_EPOCH + DAY)
        assert population.size_at(PAPER_EPOCH + DAY) == before
        assert daily_churn(world, population, 0.0, 1, PAPER_EPOCH + DAY) == 0
