"""Unit tests for the account model."""

import pytest

from repro.core import ConfigurationError, DAY, PAPER_EPOCH, YEAR
from repro.twitter import Account, BehaviorProfile, LABELS, Label


def make_account(**overrides):
    defaults = dict(
        user_id=1,
        screen_name="alice",
        created_at=PAPER_EPOCH - 2 * YEAR,
        statuses_count=10,
        last_tweet_at=PAPER_EPOCH - DAY,
    )
    defaults.update(overrides)
    return Account(**defaults)


class TestValidation:
    def test_minimal_account(self):
        account = make_account()
        assert account.screen_name == "alice"

    def test_negative_user_id(self):
        with pytest.raises(ConfigurationError):
            make_account(user_id=-1)

    def test_empty_screen_name(self):
        with pytest.raises(ConfigurationError):
            make_account(screen_name="")

    def test_negative_counts(self):
        with pytest.raises(ConfigurationError):
            make_account(followers_count=-1)

    def test_zero_tweets_forbids_last_tweet(self):
        with pytest.raises(ConfigurationError):
            make_account(statuses_count=0, last_tweet_at=PAPER_EPOCH)

    def test_tweets_require_last_tweet(self):
        with pytest.raises(ConfigurationError):
            make_account(statuses_count=5, last_tweet_at=None)

    def test_last_tweet_before_creation(self):
        with pytest.raises(ConfigurationError):
            make_account(last_tweet_at=PAPER_EPOCH - 3 * YEAR)


class TestDerivedObservables:
    def test_age(self):
        account = make_account(created_at=PAPER_EPOCH - YEAR)
        assert account.age_at(PAPER_EPOCH) == pytest.approx(YEAR)
        assert account.age_at(PAPER_EPOCH - 2 * YEAR) == 0.0

    def test_ff_ratio(self):
        account = make_account(followers_count=10, friends_count=500)
        assert account.friends_followers_ratio() == 50.0

    def test_ff_ratio_zero_followers(self):
        account = make_account(followers_count=0, friends_count=300)
        assert account.friends_followers_ratio() == 300.0

    def test_profile_flags(self):
        account = make_account(description=" ", location="Pisa", url="")
        assert not account.has_bio()
        assert account.has_location()
        assert not account.has_url()

    def test_last_tweet_age(self):
        account = make_account(last_tweet_at=PAPER_EPOCH - 5 * DAY)
        assert account.last_tweet_age(PAPER_EPOCH) == pytest.approx(5 * DAY)

    def test_last_tweet_age_never_tweeted(self):
        account = make_account(statuses_count=0, last_tweet_at=None)
        assert account.last_tweet_age(PAPER_EPOCH) is None

    def test_has_ever_tweeted(self):
        assert make_account().has_ever_tweeted()
        assert not make_account(
            statuses_count=0, last_tweet_at=None).has_ever_tweeted()


class TestBehaviorProfile:
    def test_defaults_valid(self):
        BehaviorProfile()

    @pytest.mark.parametrize("field", [
        "retweet_ratio", "link_ratio", "spam_ratio",
        "mention_ratio", "hashtag_ratio", "api_source_ratio"])
    def test_ratio_bounds(self, field):
        with pytest.raises(ConfigurationError):
            BehaviorProfile(**{field: 1.5})

    def test_negative_rate(self):
        with pytest.raises(ConfigurationError):
            BehaviorProfile(tweets_per_day=-0.1)

    def test_negative_pool(self):
        with pytest.raises(ConfigurationError):
            BehaviorProfile(duplicate_pool=-1)


class TestLabels:
    def test_three_labels_in_table_order(self):
        assert LABELS == (Label.INACTIVE, Label.FAKE, Label.GENUINE)
