"""Unit tests for the high-level crawler and the acquisition model."""

import pytest

from repro.api import Crawler, TwitterApiClient, estimate_acquisition_time
from repro.core import ConfigurationError, DAY, PAPER_EPOCH, SimClock
from repro.twitter.columnar.schema import UserRowBlock


@pytest.fixture
def crawler(small_world):
    return Crawler(TwitterApiClient(small_world, SimClock(PAPER_EPOCH)))


class TestFetching:
    def test_fetch_all_follower_ids(self, crawler, small_world):
        ids = crawler.fetch_all_follower_ids("smalltown")
        assert len(ids) == 12_000
        population = small_world.population("smalltown")
        assert ids[0] == population.follower_id_at(11_999)
        assert ids[-1] == population.follower_id_at(0)

    def test_fetch_newest_head(self, crawler, small_world):
        ids = crawler.fetch_newest_follower_ids("smalltown", max_ids=700)
        assert len(ids) == 700
        population = small_world.population("smalltown")
        expected = {population.follower_id_at(p)
                    for p in range(11_300, 12_000)}
        assert set(ids) == expected

    def test_head_larger_than_base_returns_all(self, crawler):
        ids = crawler.fetch_newest_follower_ids("smalltown", max_ids=50_000)
        assert len(ids) == 12_000

    def test_invalid_max_ids(self, crawler):
        with pytest.raises(ConfigurationError):
            crawler.fetch_newest_follower_ids("smalltown", max_ids=0)

    def test_lookup_users_batches(self, crawler, small_world):
        population = small_world.population("smalltown")
        ids = [population.follower_id_at(p) for p in range(250)]
        users = crawler.lookup_users(ids)
        assert len(users) == 250
        assert crawler.client.call_log.count("users/lookup") == 3

    def test_lookup_users_empty(self, crawler):
        assert crawler.lookup_users([]) == []

    def test_lookup_users_block_merges_row_batches(self, crawler,
                                                   small_world):
        crawler.client.pin_observation(PAPER_EPOCH)
        population = small_world.population("smalltown")
        ids = [population.follower_id_at(p) for p in range(250)]
        block = crawler.lookup_users_block(ids)
        assert isinstance(block, UserRowBlock)
        assert list(block) == crawler.lookup_users(ids)
        assert crawler.client.call_log.count("users/lookup") == 6

    def test_lookup_users_block_flattens_on_object_batch(self, crawler,
                                                         small_world):
        """A batch the world cannot serve as rows (a target id) turns
        the whole result into the object list ``lookup_users`` gives."""
        crawler.client.pin_observation(PAPER_EPOCH)
        population = small_world.population("smalltown")
        target = small_world.account_by_name("smalltown", PAPER_EPOCH)
        ids = [population.follower_id_at(p) for p in range(150)]
        users = crawler.lookup_users_block(ids + [target.user_id])
        assert isinstance(users, list)
        assert users == crawler.lookup_users(ids + [target.user_id])
        assert len(users) == 151

    def test_fetch_timelines(self, crawler, small_world):
        population = small_world.population("smalltown")
        ids = [population.follower_id_at(p) for p in range(5)]
        timelines = crawler.fetch_timelines(ids, per_user=20)
        assert set(timelines) == set(ids)
        assert crawler.client.call_log.count("statuses/user_timeline") == 5


class TestAcquisitionEstimate:
    def test_obama_takes_weeks(self):
        estimate = estimate_acquisition_time(41_000_000)
        assert estimate.follower_pages == 8200
        assert estimate.lookup_requests == 410_000
        # The paper reports "around 27 days"; the model lands within a
        # few days of that (id paging ~5.7d + lookups ~23.7d).
        assert 25 <= estimate.days <= 32

    def test_ids_only_crawl_days(self):
        estimate = estimate_acquisition_time(41_000_000, lookup_all=False)
        assert 5.0 <= estimate.days <= 6.5

    def test_timelines_dominate_when_included(self):
        with_timelines = estimate_acquisition_time(
            100_000, timelines_all=True)
        without = estimate_acquisition_time(100_000)
        assert with_timelines.seconds > 5 * without.seconds
        assert with_timelines.timeline_requests == 100_000

    def test_small_crawl_latency_bound(self):
        estimate = estimate_acquisition_time(5000, latency=2.0)
        # 1 page + 50 lookups, all within burst: 51 requests * 2 s.
        assert estimate.seconds == pytest.approx(102.0, abs=5.0)

    def test_zero_followers(self):
        estimate = estimate_acquisition_time(0)
        assert estimate.seconds == 0.0
        assert estimate.follower_pages == 0

    def test_negative_rejected(self):
        with pytest.raises(ConfigurationError):
            estimate_acquisition_time(-1)

    def test_credentials_speed_up(self):
        single = estimate_acquisition_time(41_000_000)
        fleet = estimate_acquisition_time(41_000_000, credentials=10)
        assert fleet.seconds < single.seconds / 2

    def test_matches_simulated_crawl(self, small_world):
        """The closed form agrees with an actual simulated crawl."""
        clock = SimClock(PAPER_EPOCH)
        crawler = Crawler(TwitterApiClient(small_world, clock))
        start = clock.now()
        ids = crawler.fetch_all_follower_ids("smalltown")
        crawler.lookup_users(ids)
        measured = clock.now() - start
        predicted = estimate_acquisition_time(12_000).seconds
        assert measured == pytest.approx(predicted, rel=0.05)
