"""Unit tests for the simulated REST client."""

import hashlib

import pytest

from repro.api import TwitterApiClient
from repro.core import ConfigurationError, PAPER_EPOCH, SimClock
from repro.core.errors import InvalidCursorError
from repro.faults import FaultPlan, InjectorSpec
from repro.twitter.population import FollowerPopulation


@pytest.fixture
def client(small_world):
    return TwitterApiClient(small_world, SimClock(PAPER_EPOCH))


class TestConstruction:
    def test_invalid_parallelism(self, small_world):
        with pytest.raises(ConfigurationError):
            TwitterApiClient(small_world, SimClock(), parallelism=0)

    def test_negative_latency(self, small_world):
        with pytest.raises(ConfigurationError):
            TwitterApiClient(small_world, SimClock(), request_latency=-1)


class TestUsersShow:
    def test_by_screen_name(self, client):
        user = client.users_show(screen_name="smalltown")
        assert user.screen_name == "smalltown"
        assert user.followers_count == 12_000

    def test_by_user_id(self, client, small_world):
        uid = small_world.account_by_name(
            "smalltown", PAPER_EPOCH).user_id
        assert client.users_show(user_id=uid).screen_name == "smalltown"

    def test_exactly_one_identifier(self, client):
        with pytest.raises(ConfigurationError):
            client.users_show()
        with pytest.raises(ConfigurationError):
            client.users_show(screen_name="x", user_id=1)

    def test_charged_against_lookup_budget(self, client):
        client.users_show(screen_name="smalltown")
        assert client.call_log.count("users/lookup") == 1


class TestFollowersIds:
    def test_first_page_is_newest(self, client, small_world):
        page = client.followers_ids(screen_name="smalltown")
        population = small_world.population("smalltown")
        newest = population.follower_id_at(11_999)
        assert page.ids[0] == newest
        assert len(page.ids) == 5000

    def test_pagination_covers_everything_once(self, client, small_world):
        collected = []
        cursor = -1
        while True:
            page = client.followers_ids(screen_name="smalltown", cursor=cursor)
            collected.extend(page.ids)
            if page.next_cursor == 0:
                break
            cursor = page.next_cursor
        assert len(collected) == 12_000
        assert len(set(collected)) == 12_000
        population = small_world.population("smalltown")
        assert collected[-1] == population.follower_id_at(0)

    def test_newest_first_within_and_across_pages(self, client, small_world):
        population = small_world.population("smalltown")
        first = client.followers_ids(screen_name="smalltown")
        second = client.followers_ids(
            screen_name="smalltown", cursor=first.next_cursor)
        positions = [
            population.schedule.arrival_time(
                _decode_position(uid)) for uid in
            list(first.ids[:3]) + list(second.ids[:3])
        ]
        assert positions == sorted(positions, reverse=True)

    def test_custom_count(self, client):
        page = client.followers_ids(screen_name="smalltown", count=10)
        assert len(page.ids) == 10
        assert page.next_cursor == 10

    def test_count_out_of_range(self, client):
        with pytest.raises(ConfigurationError):
            client.followers_ids(screen_name="smalltown", count=5001)
        with pytest.raises(ConfigurationError):
            client.followers_ids(screen_name="smalltown", count=0)

    def test_bad_cursor(self, client):
        with pytest.raises(InvalidCursorError):
            client.followers_ids(screen_name="smalltown", cursor=-2)

    def test_previous_cursor_convention(self, client):
        first = client.followers_ids(screen_name="smalltown")
        assert first.previous_cursor == 0
        second = client.followers_ids(
            screen_name="smalltown", cursor=first.next_cursor)
        assert second.previous_cursor == -5000


class TestFriendsIds:
    # sha256 of every page's (ids, next_cursor, previous_cursor) below,
    # as the listing read before the friend count was handed through.
    PAGES_DIGEST = ("999c36b14c941d5d63a296a9f83cad57"
                    "cec405495b36eca749b79b5aae9d1582")

    def test_one_account_generated_per_page(self, client, small_world,
                                             monkeypatch):
        population = small_world.population("smalltown")
        generated = []
        account_at = FollowerPopulation.account_at

        def counting_account_at(self, *args):
            generated.append(args)
            return account_at(self, *args)

        monkeypatch.setattr(FollowerPopulation, "account_at",
                            counting_account_at)
        digest = hashlib.sha256()
        pages = 0
        for position in (0, 7, 4321, 11_999):
            uid = population.follower_id_at(position)
            cursor = -1
            while cursor:
                page = client.friends_ids(user_id=uid, cursor=cursor,
                                          count=50)
                pages += 1
                digest.update(repr((page.ids, page.next_cursor,
                                    page.previous_cursor)).encode())
                cursor = page.next_cursor
        assert pages == 23
        assert len(generated) == pages
        assert digest.hexdigest() == self.PAGES_DIGEST


class TestIdsPageTypes:
    """Page ids are Python ``int``s, never NumPy scalars."""

    @staticmethod
    def assert_plain_ints(page):
        assert isinstance(page.ids, tuple)
        assert all(type(uid) is int for uid in page.ids)

    def test_calm_page(self, client):
        page = client.followers_ids(screen_name="smalltown", count=200)
        assert len(page.ids) == 200
        self.assert_plain_ints(page)

    def test_truncated_fault_page(self, small_world):
        plan = FaultPlan(seed=3, injectors=(
            InjectorSpec("truncated_ids_page", 1.0, truncate_fraction=0.5),))
        faulty = TwitterApiClient(small_world, SimClock(PAPER_EPOCH),
                                  faults=plan)
        page = faulty.followers_ids(screen_name="smalltown", count=200)
        assert len(page.ids) == 100
        assert page.next_cursor == 200
        self.assert_plain_ints(page)

    def test_leaf_account_empty_listing(self, client):
        leaf = client.followers_ids(screen_name="smalltown", count=1).ids[0]
        page = client.followers_ids(user_id=leaf)
        assert page.ids == ()
        self.assert_plain_ints(page)


class TestUsersLookup:
    def test_batch_of_100(self, client, small_world):
        population = small_world.population("smalltown")
        ids = [population.follower_id_at(p) for p in range(100)]
        users = client.users_lookup_block(ids)
        assert len(users) == 100

    def test_unknown_ids_silently_dropped(self, client, small_world):
        population = small_world.population("smalltown")
        ids = [population.follower_id_at(0), 999_999_999]
        users = client.users_lookup_block(ids)
        assert len(users) == 1

    def test_batch_size_enforced(self, client):
        with pytest.raises(ConfigurationError):
            client.users_lookup_block(list(range(101)))
        with pytest.raises(ConfigurationError):
            client.users_lookup_block([])


class TestTimeline:
    def test_returns_newest_first(self, client, small_world):
        population = small_world.population("smalltown")
        uid = next(
            population.follower_id_at(p) for p in range(100)
            if population.account_at(p, PAPER_EPOCH).statuses_count > 10)
        tweets = client.user_timeline(uid, count=10)
        times = [t.created_at for t in tweets]
        assert times == sorted(times, reverse=True)

    def test_count_cap(self, client):
        with pytest.raises(ConfigurationError):
            client.user_timeline(1, count=201)


class TestTiming:
    def test_latency_charged_per_request(self, small_world):
        clock = SimClock(PAPER_EPOCH)
        client = TwitterApiClient(small_world, clock, request_latency=2.0)
        client.users_show(screen_name="smalltown")
        assert clock.now() == PAPER_EPOCH + 2.0

    def test_parallelism_divides_latency(self, small_world):
        clock = SimClock(PAPER_EPOCH)
        client = TwitterApiClient(
            small_world, clock, request_latency=2.0, parallelism=4)
        client.users_show(screen_name="smalltown")
        assert clock.now() == PAPER_EPOCH + 0.5

    def test_rate_limit_wait_advances_clock(self, small_world):
        clock = SimClock(PAPER_EPOCH)
        client = TwitterApiClient(small_world, clock, request_latency=0.0)
        for _ in range(16):  # budget is 15 per window
            client.followers_ids(screen_name="smalltown", count=1)
        assert clock.now() > PAPER_EPOCH + 50.0

    def test_reset_budgets_clears_starvation(self, small_world):
        clock = SimClock(PAPER_EPOCH)
        client = TwitterApiClient(small_world, clock, request_latency=0.0)
        for _ in range(15):
            client.followers_ids(screen_name="smalltown", count=1)
        client.reset_budgets()
        before = clock.now()
        client.followers_ids(screen_name="smalltown", count=1)
        assert clock.now() == before  # no wait after reset


def _decode_position(uid):
    from repro.twitter import decode_follower
    return decode_follower(uid)[1]
