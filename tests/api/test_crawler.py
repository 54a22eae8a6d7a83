"""Unit tests for the high-level crawler and the acquisition model."""

import pytest

from repro.api import Crawler, TwitterApiClient, estimate_acquisition_time
from repro.core import ConfigurationError, DAY, PAPER_EPOCH, SimClock
from repro.sched import AcquisitionCache
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
        users = crawler.lookup_users_block(ids)
        assert len(users) == 250
        assert crawler.client.call_log.count("users/lookup") == 3

    def test_lookup_users_empty(self, crawler):
        block = crawler.lookup_users_block([])
        assert isinstance(block, UserRowBlock)
        assert len(block) == 0
        assert crawler.client.call_log.count("users/lookup") == 0

    def test_lookup_users_block_merges_row_batches(self, crawler,
                                                   small_world):
        crawler.client.pin_observation(PAPER_EPOCH)
        population = small_world.population("smalltown")
        ids = [population.follower_id_at(p) for p in range(250)]
        block = crawler.lookup_users_block(ids)
        assert isinstance(block, UserRowBlock)
        assert list(block) == small_world.user_objects(ids, PAPER_EPOCH)
        assert crawler.client.call_log.count("users/lookup") == 3

    def test_mixed_batch_answers_rows_in_input_order(self, crawler,
                                                     small_world):
        """A target id among followers still answers one row block."""
        crawler.client.pin_observation(PAPER_EPOCH)
        population = small_world.population("smalltown")
        target = small_world.account_by_name("smalltown", PAPER_EPOCH)
        ids = [population.follower_id_at(p) for p in range(150)]
        ids.insert(120, target.user_id)
        block = crawler.lookup_users_block(ids)
        assert isinstance(block, UserRowBlock)
        assert block.rows["user_id"].tolist() == ids
        assert list(block) == small_world.user_objects(ids, PAPER_EPOCH)

    def test_fetch_timelines(self, crawler, small_world):
        population = small_world.population("smalltown")
        ids = [population.follower_id_at(p) for p in range(5)]
        timelines = crawler.fetch_timelines(ids, per_user=20)
        assert set(timelines) == set(ids)
        assert crawler.client.call_log.count("statuses/user_timeline") == 5


class TestCachedLookups:
    """The shared acquisition cache records ids, not profiles."""

    @staticmethod
    def cached_crawler(world, cache, pin=PAPER_EPOCH):
        client = TwitterApiClient(world, SimClock(PAPER_EPOCH),
                                  acquisition_cache=cache)
        client.pin_observation(pin)
        return Crawler(client)

    def test_cached_lookup_equals_uncached_rows_and_charges_misses(
            self, small_world):
        population = small_world.population("smalltown")
        first = [population.follower_id_at(p) for p in range(0, 300, 2)]
        second = [population.follower_id_at(p) for p in range(250, 0, -1)]
        cache = AcquisitionCache()
        self.cached_crawler(small_world, cache).lookup_users_block(first)
        crawler = self.cached_crawler(small_world, cache)
        block = crawler.lookup_users_block(second)
        uncached = Crawler(
            TwitterApiClient(small_world, SimClock(PAPER_EPOCH)))
        uncached.client.pin_observation(PAPER_EPOCH)
        assert block.rows.tobytes() == \
            uncached.lookup_users_block(second).rows.tobytes()
        misses = [uid for uid in second if uid not in set(first)]
        assert len(misses) == 125
        calls = crawler.client.call_log.calls("users/lookup")
        assert [call.items for call in calls] == [100, 25]
        assert cache.stats()["hits"] == 125
        assert cache.stats()["misses"] == len(first) + len(misses)

    def test_cached_users_show_reads_the_world_again(self, small_world):
        cache = AcquisitionCache()
        crawler = self.cached_crawler(small_world, cache)
        shown = crawler.client.users_show(screen_name="smalltown")
        again = self.cached_crawler(small_world, cache).client
        assert again.users_show(screen_name="SMALLTOWN") == shown
        assert again.users_show(user_id=shown.user_id) == shown
        assert again.call_log.count("users/lookup") == 0

    def test_unpinned_client_neither_reads_nor_records_the_cache(
            self, small_world):
        """Hits are read again at the pinned instant, so an unpinned
        client (an engine used before its scheduler's first run) fetches
        and charges every profile and leaves the cache untouched."""
        population = small_world.population("smalltown")
        ids = [population.follower_id_at(p) for p in range(120)]
        cache = AcquisitionCache()
        self.cached_crawler(small_world, cache).lookup_users_block(ids)
        unpinned = self.cached_crawler(small_world, cache, pin=None)
        assert unpinned.client.profile_cache is None
        block = unpinned.lookup_users_block(
            ids + [population.follower_id_at(500)])
        assert len(block) == 121
        assert unpinned.client.call_log.count("users/lookup") == 2
        unpinned.client.users_show(screen_name="smalltown")
        assert unpinned.client.call_log.count("users/lookup") == 3
        assert cache.stats() == {"hits": 0, "misses": 120, "entries": 120}

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
        crawler.lookup_users_block(ids)
        measured = clock.now() - start
        predicted = estimate_acquisition_time(12_000).seconds
        assert measured == pytest.approx(predicted, rel=0.05)
