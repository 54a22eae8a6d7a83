"""Unit tests for the event-driven live simulation."""

import pytest

from repro.core import ConfigurationError, DAY, HOUR, PAPER_EPOCH, SimClock, YEAR
from repro.twitter import (
    Account,
    ChurnProcess,
    LiveSimulation,
    OrganicGrowthProcess,
    TweetingProcess,
    SocialGraph,
)


def make_target(graph, uid=900, name="livestar"):
    account = Account(
        user_id=uid, screen_name=name,
        created_at=PAPER_EPOCH - 2 * YEAR,
        statuses_count=100, last_tweet_at=PAPER_EPOCH - HOUR)
    graph.add_account(account)
    return account


def follow_now(simulation, target, accounts):
    """Register ``accounts`` and have them all follow ``target`` now."""
    now = simulation.now()
    for account in accounts:
        simulation.graph.add_account(account)
        simulation.graph.follow(account.user_id, target, now)


@pytest.fixture
def simulation():
    graph = SocialGraph(seed=1)
    make_target(graph)
    return LiveSimulation(graph, SimClock(PAPER_EPOCH), seed=9)


class TestScheduling:
    def test_events_fire_in_time_order(self, simulation):
        fired = []
        simulation.schedule_in(20.0, lambda sim: fired.append("b"))
        simulation.schedule_in(10.0, lambda sim: fired.append("a"))
        simulation.schedule_in(30.0, lambda sim: fired.append("c"))
        simulation.run_for(25.0)
        assert fired == ["a", "b"]
        simulation.run_for(10.0)
        assert fired == ["a", "b", "c"]

    def test_fifo_among_equal_timestamps(self, simulation):
        fired = []
        at = simulation.now() + 5.0
        simulation.schedule(at, lambda sim: fired.append(1))
        simulation.schedule(at, lambda sim: fired.append(2))
        simulation.run_for(10.0)
        assert fired == [1, 2]

    def test_clock_lands_exactly_on_until(self, simulation):
        simulation.run_for(123.0)
        assert simulation.now() == PAPER_EPOCH + 123.0

    def test_cannot_schedule_into_the_past(self, simulation):
        with pytest.raises(ConfigurationError):
            simulation.schedule(PAPER_EPOCH - 1.0, lambda sim: None)
        with pytest.raises(ConfigurationError):
            simulation.schedule_in(-1.0, lambda sim: None)

    def test_cannot_run_backwards(self, simulation):
        simulation.run_for(10.0)
        with pytest.raises(ConfigurationError):
            simulation.run_until(PAPER_EPOCH)

    def test_event_can_schedule_followup(self, simulation):
        fired = []

        def first(sim):
            fired.append("first")
            sim.schedule_in(5.0, lambda s: fired.append("second"))

        simulation.schedule_in(1.0, first)
        simulation.run_for(10.0)
        assert fired == ["first", "second"]

    def test_executed_events_counter(self, simulation):
        simulation.schedule_in(1.0, lambda sim: None)
        simulation.schedule_in(2.0, lambda sim: None)
        assert simulation.run_for(5.0) == 2
        assert simulation.executed_events == 2
        assert simulation.pending_events() == 0


class TestOrganicGrowth:
    def test_rate_approximately_honoured(self, simulation):
        simulation.add_process(OrganicGrowthProcess(900, per_day=40.0))
        simulation.run_for(10 * DAY)
        count = simulation.graph.follower_count(900, simulation.now())
        assert 280 <= count <= 520  # Poisson(400) within ~5 sigma

    def test_arrivals_enter_in_chronological_order(self, simulation):
        simulation.add_process(OrganicGrowthProcess(900, per_day=30.0))
        simulation.run_for(5 * DAY)
        graph = simulation.graph
        now = simulation.now()
        ids = list(graph.follower_ids(
            900, 0, graph.follower_count(900, now), now))
        assert ids == sorted(ids)  # minted ids are time-ordered

    def test_new_accounts_resolve_and_have_labels(self, simulation):
        simulation.add_process(OrganicGrowthProcess(900, per_day=30.0))
        simulation.run_for(3 * DAY)
        graph = simulation.graph
        now = simulation.now()
        ids = graph.follower_ids(900, 0, 10, now)
        for uid in ids:
            account = graph.account_by_id(uid, now)
            assert account.true_label is not None
            assert account.created_at <= now

    def test_persona_mix_validated(self):
        with pytest.raises(ConfigurationError):
            OrganicGrowthProcess(900, per_day=10.0, personas={"nope": 1.0})
        with pytest.raises(ConfigurationError):
            OrganicGrowthProcess(900, per_day=0.0)

    def test_deterministic_given_seed(self):
        def run():
            graph = SocialGraph(seed=1)
            make_target(graph)
            sim = LiveSimulation(graph, SimClock(PAPER_EPOCH), seed=33)
            sim.add_process(OrganicGrowthProcess(900, per_day=25.0))
            sim.run_for(4 * DAY)
            return list(graph.follower_ids(900, 0, 10_000, sim.now()))
        assert run() == run()


class TestChurn:
    def test_churn_shrinks_audience(self, simulation):
        graph = simulation.graph
        block = [
            Account(user_id=1000 + i, screen_name=f"f{i}",
                    created_at=PAPER_EPOCH - YEAR, statuses_count=0)
            for i in range(400)
        ]
        follow_now(simulation, 900, block)
        before = graph.follower_count(900, simulation.now())
        simulation.add_process(ChurnProcess(900, daily_fraction=0.1))
        simulation.run_for(10 * DAY)
        after = graph.follower_count(900, simulation.now())
        assert after < before * 0.6

    def test_fraction_validated(self):
        with pytest.raises(ConfigurationError):
            ChurnProcess(900, daily_fraction=0.0)
        with pytest.raises(ConfigurationError):
            ChurnProcess(900, daily_fraction=1.0)


class TestTweeting:
    def test_counters_advance(self, simulation):
        before = simulation.graph.account_by_id(900, simulation.now())
        simulation.add_process(TweetingProcess(900, per_day=12.0))
        simulation.run_for(5 * DAY)
        after = simulation.graph.account_by_id(900, simulation.now())
        assert after.statuses_count > before.statuses_count + 20
        assert after.last_tweet_at > before.last_tweet_at

    def test_rate_validated(self):
        with pytest.raises(ConfigurationError):
            TweetingProcess(900, per_day=0.0)


class TestFollowBlock:
    def test_block_lands_at_head_of_listing(self, simulation):
        graph = simulation.graph
        early = Account(user_id=2000, screen_name="early",
                        created_at=PAPER_EPOCH - YEAR, statuses_count=0)
        graph.add_account(early)
        graph.follow(2000, 900, PAPER_EPOCH - 100.0)
        simulation.run_for(HOUR)
        block = [
            Account(user_id=3000 + i, screen_name=f"b{i}",
                    created_at=PAPER_EPOCH - YEAR, statuses_count=0)
            for i in range(5)
        ]
        follow_now(simulation, 900, block)
        now = simulation.now()
        ids = list(graph.follower_ids(900, 0, 10, now))
        assert ids[0] == 2000           # chronological listing
        assert set(ids[1:]) == {3000 + i for i in range(5)}
