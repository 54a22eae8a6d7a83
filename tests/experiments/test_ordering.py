"""Unit tests for the Section IV-B ordering experiment."""

import pytest

from repro.core import PAPER_EPOCH, SimClock
from repro.core.errors import ConfigurationError
from repro.experiments import (
    check_head_growth,
    daily_snapshots,
    run_ordering_experiment,
)


class TestDailySnapshots:
    def test_one_snapshot_per_day_growing(self, small_world):
        clock = SimClock(PAPER_EPOCH)
        snapshots = daily_snapshots(small_world, "smalltown", 3, clock)
        assert len(snapshots) == 3
        sizes = [len(s) for s in snapshots]
        assert sizes[0] == 12_000
        assert sizes == sorted(sizes)
        assert sizes[-1] > sizes[0]

    def test_needs_two_days(self, small_world):
        with pytest.raises(ConfigurationError):
            daily_snapshots(small_world, "smalltown", 1, SimClock(PAPER_EPOCH))


class TestCheckHeadGrowth:
    def test_clean_head_growth_accepted(self):
        yesterday = (5, 4, 3, 2, 1)
        today = (7, 6) + yesterday
        new, violations = check_head_growth([yesterday, today])
        assert new == 2
        assert violations == 0

    def test_mid_list_insertion_detected(self):
        yesterday = (5, 4, 3, 2, 1)
        today = (5, 4, 99, 3, 2, 1)  # a newcomer NOT at the head
        __, violations = check_head_growth([yesterday, today])
        assert violations == 1

    def test_shrinking_list_detected(self):
        __, violations = check_head_growth([(3, 2, 1), (2, 1)])
        assert violations == 1

    def test_duplicate_new_entry_detected(self):
        yesterday = (3, 2, 1)
        today = (2, 3, 2, 1)  # "new" id already present
        __, violations = check_head_growth([yesterday, today])
        assert violations == 1

    def test_no_growth_is_fine(self):
        new, violations = check_head_growth([(2, 1), (2, 1)])
        assert (new, violations) == (0, 0)


class TestChurnBreaksTheSuffixProperty:
    def test_live_unfollows_are_flagged_as_violations(self):
        """Section II-D's caveat, exercised on a world with unfollows:
        the paper's 'new entries always at the end' check implicitly
        assumes no unfollows.  On a churning target, the checker must
        flag day pairs where followers vanished."""
        from repro.core import DAY
        from repro.twitter import add_simple_target, build_world, target_id

        world = build_world(seed=2)
        add_simple_target(world, "churny", 500, 0.3, 0.2, 0.5,
                          daily_new_followers=100.0)
        population = world.population("churny")
        target = target_id(population.ordinal)

        snapshots = []
        for day in range(5):
            now = PAPER_EPOCH + day * DAY
            if day:
                # A fifth of the audience unfollows, from mid-list.
                listed = population.size_at(now)
                for position in population.schedule.positions(
                        list(range(0, listed, 5)), now):
                    world.unfollow(population.follower_id_at(position),
                                   target, now)
            ids = world.follower_ids(
                target, 0, world.follower_count(target, now), now)
            snapshots.append(tuple(ids[::-1].tolist()))  # newest-first
        __, violations = check_head_growth(snapshots)
        assert violations > 0
        assert violations == 4


class TestRunExperiment:
    def test_confirms_the_papers_thesis(self, small_world):
        results, rendered = run_ordering_experiment(
            small_world, ["smalltown"], days=4)
        assert len(results) == 1
        result = results[0]
        assert result.ordering_confirmed
        assert result.new_followers_total == \
            result.final_followers - result.initial_followers
        assert "@smalltown" in rendered
        assert "yes" in rendered
