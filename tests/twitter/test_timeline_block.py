"""Columnar timelines: flag columns, lazy rendering and their contracts.

* round trip — rendered text, re-detected by the ``Tweet`` predicates,
  gives back the stored flags, and the text-sweep oracle reproduces the
  column fractions bit for bit;
* rates — detected rates match the behaviour profile within binomial
  bounds;
* determinism — one ``(seed, user_id)`` always yields one block.
"""

from __future__ import annotations

import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.api.columns import timeline_stat_columns
from repro.core import DAY, PAPER_EPOCH, YEAR
from repro.core.errors import ConfigurationError
from repro.twitter import (Account, BehaviorProfile, TIMELINE_CAP,
                           TimelineBlock, TimelineGenerator, Tweet)
from repro.twitter.timeline import (AUTOMATION, HASHTAG, LINK, MENTION,
                                    RETWEET, SPAM, detect_flags)

from .timeline_oracle import timeline_fractions

ratios = st.floats(min_value=0.0, max_value=1.0)
profiles = st.builds(
    BehaviorProfile,
    tweets_per_day=st.floats(min_value=0.0, max_value=50.0),
    retweet_ratio=ratios, link_ratio=ratios, spam_ratio=ratios,
    mention_ratio=ratios, hashtag_ratio=ratios,
    duplicate_pool=st.integers(min_value=0, max_value=8),
    api_source_ratio=ratios)


def make_account(profile, user_id=42, statuses=TIMELINE_CAP):
    return Account(
        user_id=user_id, screen_name="columns",
        created_at=PAPER_EPOCH - 3 * YEAR, statuses_count=statuses,
        last_tweet_at=PAPER_EPOCH - DAY, behavior=profile)


def stat_rows(np_columns):
    """The stat columns as one tuple per timeline, oracle order."""
    return list(zip(np_columns.retweet.tolist(), np_columns.link.tolist(),
                    np_columns.spam.tolist(), np_columns.mention.tolist(),
                    np_columns.hashtag.tolist(),
                    np_columns.automation.tolist(),
                    np_columns.duplicate.tolist()))


class TestRoundTrip:
    @settings(max_examples=40, deadline=None)
    @given(profile=profiles, seed=st.integers(0, 2**32),
           depth=st.integers(0, 200))
    def test_rendered_text_reproduces_flags_and_fractions(self, profile, seed,
                                                          depth):
        block = TimelineGenerator(seed).recent_tweets(
            make_account(profile), depth)
        tweets = list(block)
        assert [detect_flags(t) for t in tweets] == block.flags.tolist()
        keys = block.body_key.tolist()
        for i, first in enumerate(tweets):
            for j in range(i + 1, min(len(tweets), i + 12)):
                assert (first.body() == tweets[j].body()) == (
                    keys[i] == keys[j])
        assert len(set(keys)) == len({t.body() for t in tweets})
        columns = timeline_stat_columns([block])
        assert stat_rows(columns) == [timeline_fractions(tweets)]

    def test_hand_built_tweets_enter_the_same_path(self):
        tweets = [Tweet(tweet_id=i, user_id=9, created_at=1e9 - i,
                        text=text, source=source)
                  for i, (text, source) in enumerate([
                      ("RT @bob: make money now http://x.co", "web"),
                      ("hello #news @ann", "EasyBotDeck"),
                      ("same body", "web"), ("same body", "web"),
                      ("same body", "web"), ("RT @cy: same body", "web"),
                  ])]
        block = TimelineBlock.from_tweets(tweets)
        assert list(block) == tweets
        assert block.flags.tolist()[:2] == [
            RETWEET | MENTION | SPAM | LINK, HASHTAG | MENTION | AUTOMATION]
        assert block.duplicated == 4
        columns = timeline_stat_columns([tweets, None, block, []])
        oracle = timeline_fractions(tweets)
        assert stat_rows(columns) == [oracle, (0.0,) * 7, oracle, (0.0,) * 7]
        assert columns.nonempty.tolist() == [True, False, True, False]


class TestRates:
    @pytest.mark.parametrize("profile", [
        BehaviorProfile(retweet_ratio=0.2, link_ratio=0.25, spam_ratio=0.0,
                        mention_ratio=0.3, hashtag_ratio=0.2,
                        api_source_ratio=0.05),
        BehaviorProfile(retweet_ratio=0.6, link_ratio=0.9, spam_ratio=0.5,
                        mention_ratio=0.1, hashtag_ratio=0.45,
                        api_source_ratio=0.95),
        BehaviorProfile(retweet_ratio=0.0, link_ratio=0.5, spam_ratio=1.0,
                        mention_ratio=0.0, hashtag_ratio=1.0,
                        api_source_ratio=0.5),
    ])
    def test_detected_rates_within_binomial_bounds(self, profile):
        tweets = list(TimelineGenerator(3).recent_tweets(
            make_account(profile), TIMELINE_CAP))
        n = len(tweets)
        expected = {
            "retweet": profile.retweet_ratio,
            "link": profile.link_ratio,
            "spam": profile.spam_ratio,
            "mention": 1 - (1 - profile.mention_ratio)
            * (1 - profile.retweet_ratio),
            "hashtag": profile.hashtag_ratio,
            "automation": profile.api_source_ratio,
        }
        detected = {
            "retweet": sum(t.is_retweet() for t in tweets),
            "link": sum(t.has_link() for t in tweets),
            "spam": sum(t.contains_spam_phrase() for t in tweets),
            "mention": sum(bool(t.mentions()) for t in tweets),
            "hashtag": sum(bool(t.hashtags()) for t in tweets),
            "automation": sum(detect_flags(t) & AUTOMATION != 0
                              for t in tweets),
        }
        for name, rate in expected.items():
            # Five standard deviations of Binomial(n, rate).
            bound = 5 * math.sqrt(n * rate * (1 - rate))
            assert abs(detected[name] - n * rate) <= bound, name

    def test_pool_templates_repeat_exactly(self):
        profile = BehaviorProfile(duplicate_pool=4, retweet_ratio=0.5)
        block = TimelineGenerator(5).recent_tweets(make_account(profile), 400)
        uses = Counter(block.body_key.tolist())
        assert len(uses) <= 4
        assert block.duplicated == sum(c for c in uses.values() if c > 3)


class TestDeterminism:
    @settings(max_examples=20, deadline=None)
    @given(profile=profiles, seed=st.integers(0, 2**32),
           user_id=st.integers(0, 2**62))
    def test_same_key_same_block(self, profile, seed, user_id):
        account = make_account(profile, user_id=user_id)
        first = TimelineGenerator(seed).recent_tweets(account, 120)
        second = TimelineGenerator(seed).recent_tweets(account, 120)
        assert first == second
        assert first.flags.tolist() == second.flags.tolist()
        assert first.body_key.tolist() == second.body_key.tolist()
        assert list(first) == list(second)

    def test_shorter_fetch_is_a_prefix(self):
        account = make_account(BehaviorProfile(duplicate_pool=3))
        long = TimelineGenerator(4).recent_tweets(account, 200)
        assert TimelineGenerator(4).recent_tweets(account, 30) == long[:30]

    def test_users_draw_independent_streams(self):
        profile = BehaviorProfile(link_ratio=0.5, hashtag_ratio=0.5)
        first = TimelineGenerator(4).recent_tweets(make_account(profile, 1), 50)
        second = TimelineGenerator(4).recent_tweets(make_account(profile, 2), 50)
        assert first.flags.tolist() != second.flags.tolist()
        assert not set(first.body_key.tolist()) & set(second.body_key.tolist())


class TestSequence:
    def setup_method(self):
        self.block = TimelineGenerator(6).recent_tweets(
            make_account(BehaviorProfile()), 20)

    def test_indexing_matches_iteration(self):
        tweets = list(self.block)
        assert self.block[0] == tweets[0]
        assert self.block[-1] == tweets[-1]
        assert self.block[3:7] == tweets[3:7]
        assert isinstance(self.block[3:7], TimelineBlock)
        with pytest.raises(IndexError):
            self.block[20]
        with pytest.raises(TypeError):
            self.block["0"]

    def test_columns_are_immutable(self):
        with pytest.raises(ValueError):
            self.block.flags[0] = 0

    def test_rendering_is_lazy_and_kept(self):
        fresh = TimelineGenerator(6).recent_tweets(
            make_account(BehaviorProfile()), 20)
        assert fresh._tweets is None
        assert fresh[2] == list(self.block)[2]
        assert fresh._tweets is None
        assert fresh.tweets() is fresh.tweets()

    def test_equality_with_plain_sequences(self):
        tweets = list(self.block)
        assert self.block == tweets
        assert tuple(tweets) == self.block
        assert hash(self.block) == hash(tuple(tweets))
        assert TimelineBlock.from_tweets(self.block) is self.block

    def test_empty_block(self):
        empty = TimelineBlock.empty(5)
        assert not empty and empty == [] and empty.duplicated == 0

    def test_mismatched_columns_rejected(self):
        with pytest.raises(ConfigurationError):
            TimelineBlock(1, np.zeros(2), np.zeros(1, np.int64),
                          np.zeros(2, np.uint8), np.zeros(2, np.int64))

    def test_oversized_duplicate_pool_rejected(self):
        account = make_account(BehaviorProfile(duplicate_pool=1 << 20))
        with pytest.raises(ConfigurationError):
            TimelineGenerator(1).recent_tweets(account, 5)
