"""Unit tests for the tweet text rendered from generated timelines.

Timelines are generated as class-flag columns and rendered to text
lazily; these tests check the rendered text, re-detected by the
``Tweet`` predicates, against the behaviour profile that drove the
flags.
"""

from collections import Counter

from repro.core import DAY, PAPER_EPOCH, YEAR
from repro.twitter import Account, BehaviorProfile, TimelineGenerator
from repro.twitter.tweet import HUMAN_SOURCES


def generate(profile, n=300, seed=1):
    account = Account(
        user_id=1, screen_name="renderer", created_at=PAPER_EPOCH - 3 * YEAR,
        statuses_count=n, last_tweet_at=PAPER_EPOCH - DAY, behavior=profile)
    tweets = TimelineGenerator(seed).recent_tweets(account, n)
    assert len(tweets) == n
    return list(tweets)


class TestContentRates:
    def test_pure_spam_profile(self):
        tweets = generate(BehaviorProfile(spam_ratio=1.0, retweet_ratio=0.0))
        assert all(t.contains_spam_phrase() for t in tweets)

    def test_clean_profile_produces_no_spam(self):
        tweets = generate(BehaviorProfile(spam_ratio=0.0))
        assert not any(t.contains_spam_phrase() for t in tweets)

    def test_link_ratio_approximate(self):
        tweets = generate(BehaviorProfile(link_ratio=0.8, retweet_ratio=0.0))
        share = sum(1 for t in tweets if t.has_link()) / len(tweets)
        assert 0.7 <= share <= 0.9

    def test_retweet_ratio_approximate(self):
        tweets = generate(BehaviorProfile(retweet_ratio=0.5))
        share = sum(1 for t in tweets if t.is_retweet()) / len(tweets)
        assert 0.4 <= share <= 0.6

    def test_all_retweets(self):
        tweets = generate(BehaviorProfile(retweet_ratio=1.0))
        assert all(t.is_retweet() for t in tweets)


class TestDuplicatePool:
    def test_pool_produces_exact_repeats(self):
        tweets = generate(
            BehaviorProfile(duplicate_pool=3, retweet_ratio=0.0), n=100)
        bodies = Counter(t.body() for t in tweets)
        assert len(bodies) <= 3
        assert max(bodies.values()) > 3

    def test_no_pool_rarely_repeats(self):
        tweets = generate(BehaviorProfile(duplicate_pool=0), n=100)
        bodies = Counter(t.body() for t in tweets)
        assert max(bodies.values()) <= 3

    def test_retweeted_duplicates_share_body(self):
        tweets = generate(
            BehaviorProfile(duplicate_pool=1, retweet_ratio=0.5), n=50)
        assert len({t.body() for t in tweets}) == 1
        assert len({t.text for t in tweets}) > 1


class TestSources:
    def test_automation_ratio_one(self):
        tweets = generate(BehaviorProfile(api_source_ratio=1.0), n=50, seed=2)
        assert all(t.source not in HUMAN_SOURCES for t in tweets)

    def test_automation_ratio_zero(self):
        tweets = generate(BehaviorProfile(api_source_ratio=0.0), n=50, seed=3)
        assert all(t.source in HUMAN_SOURCES for t in tweets)


class TestDeterminism:
    def test_same_seed_same_stream(self):
        profile = BehaviorProfile(link_ratio=0.5, spam_ratio=0.3)
        first = [t.text for t in generate(profile, n=20, seed=9)]
        second = [t.text for t in generate(profile, n=20, seed=9)]
        assert first == second
