"""Unit tests for the shared acquisition cache."""

from repro.api.endpoints import IdsPage
from repro.sched import AcquisitionCache


class TestProfiles:
    def test_miss_then_hit_by_id(self):
        cache = AcquisitionCache()
        assert cache.fetched_id(user_id=7) is None
        cache.note_fetched([7])
        assert cache.fetched_id(user_id=7) == 7
        assert (cache.hits, cache.misses) == (1, 1)

    def test_lookup_by_name_is_case_insensitive(self):
        cache = AcquisitionCache()
        cache.note_shown(7, "Alice")
        assert cache.fetched_id(screen_name="ALICE") == 7
        assert cache.fetched_id(screen_name="nobody") is None

    def test_split_counts_one_outcome_per_id_in_input_order(self):
        cache = AcquisitionCache()
        cache.note_fetched([3, 1])
        assert cache.split_fetched([1, 2, 3, 2, 1]) == ([1, 3, 1], [2, 2])
        assert (cache.hits, cache.misses) == (3, 2)

    def test_stores_no_profile(self):
        """Only ids are kept: a hit is read again from the world."""
        cache = AcquisitionCache()
        cache.note_fetched([7, 8])
        cache.note_shown(9, "Alice")
        assert cache.size() == 3


class TestPages:
    def test_exact_key_lookup(self):
        cache = AcquisitionCache()
        page = IdsPage(ids=(1, 2, 3), next_cursor=0, previous_cursor=0)
        cache.put_page("followers/ids", 7, 0, 5000, page)
        assert cache.get_page("followers/ids", 7, 0, 5000) is page
        # Any key component differing is a distinct acquisition.
        assert cache.get_page("followers/ids", 7, 5000, 5000) is None
        assert cache.get_page("friends/ids", 7, 0, 5000) is None


class TestTimelines:
    def test_timeline_stored_as_immutable_tuple(self):
        cache = AcquisitionCache()
        cache.put_timeline(7, 200, ["t1", "t2"])
        stored = cache.get_timeline(7, 200)
        assert stored == ("t1", "t2")
        assert isinstance(stored, tuple)
        assert cache.get_timeline(7, 100) is None


class TestLifecycle:
    def test_size_counts_all_stores(self):
        cache = AcquisitionCache()
        cache.note_shown(7, "Alice")
        cache.put_page("followers/ids", 7, 0, 5000,
                       IdsPage(ids=(1,), next_cursor=0, previous_cursor=0))
        cache.put_timeline(7, 200, [])
        assert cache.size() == 3

    def test_clear_drops_entries_but_keeps_stats(self):
        cache = AcquisitionCache()
        cache.note_fetched([7])
        cache.fetched_id(user_id=7)
        cache.clear()
        assert cache.size() == 0
        assert cache.fetched_id(user_id=7) is None
        assert cache.stats() == {"hits": 1, "misses": 1, "entries": 0}
