"""Unit tests for wire objects and the call log."""

from repro.api import ApiCall, CallLog, IdsPage, UserObject
from repro.core import DAY, PAPER_EPOCH, YEAR
from repro.twitter import Account, Label


def make_account():
    return Account(
        user_id=7,
        screen_name="alice",
        created_at=PAPER_EPOCH - YEAR,
        description="hello",
        location="Pisa",
        followers_count=10,
        friends_count=300,
        statuses_count=4,
        last_tweet_at=PAPER_EPOCH - 5 * DAY,
        true_label=Label.GENUINE,
    )


class TestUserObject:
    def test_projection_carries_observables(self):
        user = UserObject.from_account(make_account())
        assert user.user_id == 7
        assert user.followers_count == 10
        assert user.last_status_at == PAPER_EPOCH - 5 * DAY

    def test_projection_strips_ground_truth(self):
        user = UserObject.from_account(make_account())
        assert not hasattr(user, "true_label")
        assert not hasattr(user, "behavior")

    def test_derived_observables(self):
        user = UserObject.from_account(make_account())
        assert user.friends_followers_ratio() == 30.0
        assert user.has_bio()
        assert user.has_location()
        assert user.has_ever_tweeted()
        assert user.age_at(PAPER_EPOCH) == YEAR
        assert user.last_status_age(PAPER_EPOCH) == 5 * DAY

    def test_never_tweeted_age_is_none(self):
        account = Account(
            user_id=8, screen_name="silent",
            created_at=PAPER_EPOCH - YEAR, statuses_count=0)
        user = UserObject.from_account(account)
        assert user.last_status_age(PAPER_EPOCH) is None


class TestIdsPage:
    def test_len(self):
        page = IdsPage(ids=(1, 2, 3), next_cursor=0, previous_cursor=0)
        assert len(page) == 3


class TestCallLog:
    def test_counts_by_resource(self):
        log = CallLog()
        log.record(ApiCall("users/lookup", 0.0, 1.0, 0.0, 100))
        log.record(ApiCall("users/lookup", 1.0, 2.0, 0.5, 50))
        log.record(ApiCall("followers/ids", 2.0, 3.0, 0.0, 0))
        assert log.count() == 3
        assert log.count("users/lookup") == 2
        assert log.total_items("users/lookup") == 150

    def test_latency(self):
        call = ApiCall("x", 10.0, 12.5, 1.0, 0)
        assert call.latency == 2.5

    def test_clear(self):
        log = CallLog()
        log.record(ApiCall("x", 0.0, 1.0, 0.0, 0))
        log.clear()
        assert log.count() == 0

    def test_summary_aggregates_per_resource(self):
        log = CallLog()
        log.record(ApiCall("users/lookup", 0.0, 1.0, 0.0, 100))
        log.record(ApiCall("users/lookup", 1.0, 3.0, 0.5, 50))
        log.record(ApiCall("followers/ids", 3.0, 4.0, 0.25, 0))
        summary = log.summary()
        assert list(summary) == ["followers/ids", "users/lookup"]  # sorted
        assert summary["users/lookup"] == {
            "calls": 2, "items": 150, "waited": 0.5, "total_latency": 3.0,
            "failures": 0}
        assert summary["followers/ids"]["calls"] == 1
        assert summary["followers/ids"]["waited"] == 0.25

    def test_summary_empty_log(self):
        assert CallLog().summary() == {}

    def test_call_ok_flag(self):
        assert ApiCall("x", 0.0, 1.0, 0.0, 5).ok
        assert not ApiCall("x", 0.0, 1.0, 0.0, 0, error="timeout").ok

    def test_failures_counted_per_resource(self):
        log = CallLog()
        log.record(ApiCall("users/lookup", 0.0, 1.0, 0.0, 100))
        log.record(ApiCall("users/lookup", 1.0, 2.0, 0.0, 0,
                           error="transient_503"))
        log.record(ApiCall("followers/ids", 2.0, 3.0, 0.0, 0,
                           error="timeout"))
        assert log.failures() == 2
        assert log.failures("users/lookup") == 1
        assert log.failures("followers/ids") == 1
        assert log.count("users/lookup") == 2  # attempts, incl. failed

    def test_summary_mixed_success_failure(self):
        """Failed attempts must not pollute per-resource latency stats."""
        log = CallLog()
        log.record(ApiCall("users/lookup", 0.0, 2.0, 0.0, 100))
        # A slow, waited-on failure: none of its numbers may leak into
        # the success aggregates.
        log.record(ApiCall("users/lookup", 2.0, 42.0, 7.0, 0,
                           error="transient_503"))
        log.record(ApiCall("users/lookup", 42.0, 44.0, 0.0, 100))
        summary = log.summary()
        stats = summary["users/lookup"]
        assert stats["calls"] == 2
        assert stats["failures"] == 1
        assert stats["items"] == 200
        assert stats["waited"] == 0.0
        assert stats["total_latency"] == 4.0
        # Mean latency of *successful* calls stays 2 s despite the 40 s
        # failed attempt in between.
        assert stats["total_latency"] / stats["calls"] == 2.0

    def test_summary_failures_only_resource(self):
        log = CallLog()
        log.record(ApiCall("statuses/user_timeline", 0.0, 1.0, 0.0, 0,
                           error="rate_limit_spike"))
        stats = log.summary()["statuses/user_timeline"]
        assert stats == {"calls": 0, "items": 0, "waited": 0.0,
                         "total_latency": 0.0, "failures": 1}


class TestCallLogIncrementalAggregation:
    """The O(1) aggregates must equal a from-scratch rescan, always."""

    def _mixed_log(self):
        log = CallLog()
        log.record(ApiCall("users/lookup", 0.0, 2.0, 0.5, 100))
        log.record(ApiCall("users/lookup", 2.0, 42.0, 7.0, 3,
                           error="transient_503"))
        log.record(ApiCall("followers/ids", 42.0, 44.0, 0.25, 5000))
        log.record(ApiCall("followers/ids", 44.0, 45.0, 0.0, 0,
                           error="rate_limit_spike"))
        log.record(ApiCall("users/lookup", 45.0, 47.0, 0.0, 100))
        return log

    def test_aggregates_match_a_naive_rescan(self):
        log = self._mixed_log()
        calls = log.calls()
        assert log.count() == len(calls)
        assert log.failures() == sum(1 for c in calls if not c.ok)
        assert log.total_items() == sum(c.items for c in calls)
        for resource in {"users/lookup", "followers/ids"}:
            subset = log.calls(resource)
            assert log.count(resource) == len(subset)
            assert log.failures(resource) == \
                sum(1 for c in subset if not c.ok)
            assert log.total_items(resource) == \
                sum(c.items for c in subset)

    def test_summary_matches_a_naive_recompute(self):
        log = self._mixed_log()
        expected = {}
        for call in log.calls():
            stats = expected.setdefault(call.resource, {
                "calls": 0, "items": 0, "waited": 0.0,
                "total_latency": 0.0, "failures": 0})
            if not call.ok:
                stats["failures"] += 1
                continue
            stats["calls"] += 1
            stats["items"] += call.items
            stats["waited"] += call.waited
            stats["total_latency"] += call.latency
        assert log.summary() == {r: expected[r] for r in sorted(expected)}

    def test_summary_returns_copies(self):
        log = self._mixed_log()
        log.summary()["users/lookup"]["calls"] = 999
        assert log.summary()["users/lookup"]["calls"] == 2

    def test_clear_resets_every_aggregate(self):
        log = self._mixed_log()
        log.clear()
        assert log.count() == 0
        assert log.failures() == 0
        assert log.total_items() == 0
        assert log.summary() == {}
        assert log.count("users/lookup") == 0
        assert log.total_items("followers/ids") == 0
