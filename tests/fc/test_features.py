"""Unit tests for the feature catalogue and its column extractor."""

import dataclasses
import math
import pickle

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.api import UserObject
from repro.core import ConfigurationError, DAY, PAPER_EPOCH, YEAR
from repro.fc import (
    CLASS_A,
    CLASS_B,
    FEATURES,
    FEATURES_BY_NAME,
    FULL_FEATURE_SET,
    Feature,
    FeatureSet,
    PROFILE_FEATURE_SET,
)
from repro.twitter import Tweet
from repro.twitter.columnar.schema import STRING_WIDTHS, UserRowBlock
from repro.twitter.tweet import HUMAN_SOURCES

from . import feature_oracle

NOW = PAPER_EPOCH


def make_user(**overrides):
    defaults = dict(
        user_id=1, screen_name="u", name="User",
        created_at=PAPER_EPOCH - 2 * YEAR,
        description="bio", location="Rome", url="",
        default_profile_image=False, verified=False,
        followers_count=100, friends_count=200, statuses_count=730,
        last_status_at=PAPER_EPOCH - DAY,
    )
    defaults.update(overrides)
    return UserObject(**defaults)


def make_tweets(texts):
    return [Tweet(tweet_id=i, user_id=1, created_at=NOW - i, text=t)
            for i, t in enumerate(texts)]


def value(name, user, timeline=None):
    """One feature of one account, through ``FeatureSet.extract_matrix``."""
    matrix = FeatureSet.from_names([name]).extract_matrix(
        [user], None if timeline is None else [timeline], NOW)
    return matrix[0, 0]


class TestCatalogue:
    def test_unique_names(self):
        names = [f.name for f in FEATURES]
        assert len(set(names)) == len(names)

    def test_cost_classes_valid(self):
        assert {f.cost_class for f in FEATURES} == {CLASS_A, CLASS_B}

    def test_profile_set_is_class_a_only(self):
        assert not PROFILE_FEATURE_SET.needs_timeline()

    def test_full_set_needs_timeline(self):
        assert FULL_FEATURE_SET.needs_timeline()

    def test_feature_sets_pickle(self):
        # Trained detectors hold their feature set; both must pickle.
        tweets = make_tweets(["RT @a: http://x.io", "plain"])
        copy = pickle.loads(pickle.dumps(FULL_FEATURE_SET))
        assert np.array_equal(
            copy.extract_matrix([make_user()], [tweets], NOW),
            FULL_FEATURE_SET.extract_matrix([make_user()], [tweets], NOW))


class TestProfileFeatures:
    def test_log_counts(self):
        assert value("log_followers", make_user(followers_count=99)) == \
            pytest.approx(math.log(100))

    def test_ff_ratio_feature(self):
        user = make_user(followers_count=10, friends_count=500)
        assert value("log_ff_ratio", user) == pytest.approx(math.log(51))

    def test_age_days(self):
        assert value("age_days", make_user()) == pytest.approx(730.5)

    def test_tweets_per_day(self):
        assert value("tweets_per_day", make_user()) == \
            pytest.approx(1.0, abs=0.01)

    def test_boolean_flags(self):
        user = make_user(description="", default_profile_image=True)
        assert value("has_bio", user) == 0.0
        assert value("default_image", user) == 1.0

    def test_never_tweeted_sentinel(self):
        user = make_user(statuses_count=0, last_status_at=None)
        assert value("last_status_age_days", user) == 10_000.0


class TestTimelineFeatures:
    def test_link_fraction(self):
        tweets = make_tweets(
            ["see http://t.co/a", "plain", "go https://x.io", "plain"])
        assert value("link_fraction", make_user(), tweets) == 0.5

    def test_retweet_fraction(self):
        tweets = make_tweets(["RT @a: x", "hello"])
        assert value("retweet_fraction", make_user(), tweets) == 0.5

    def test_spam_fraction(self):
        tweets = make_tweets(["make money fast", "hello there"])
        assert value("spam_fraction", make_user(), tweets) == 0.5

    def test_duplicate_fraction_threshold(self):
        tweets = make_tweets(["same tweet"] * 4 + ["unique one"])
        assert value("duplicate_fraction", make_user(), tweets) == 0.8
        few = make_tweets(["same tweet"] * 3 + ["unique one"])
        assert value("duplicate_fraction", make_user(), few) == 0.0

    def test_empty_timeline_gives_zero(self):
        assert value("link_fraction", make_user(), []) == 0.0

    def test_class_b_requires_timeline(self):
        with pytest.raises(ConfigurationError, match="cost class B"):
            value("link_fraction", make_user())


class TestFeatureSet:
    def test_from_names(self):
        feature_set = FeatureSet.from_names(["log_followers", "has_bio"])
        assert feature_set.names == ["log_followers", "has_bio"]

    def test_unknown_name_rejected(self):
        with pytest.raises(ConfigurationError):
            FeatureSet.from_names(["nope"])

    def test_empty_rejected(self):
        with pytest.raises(ConfigurationError):
            FeatureSet([])

    def test_duplicate_rejected(self):
        feature = FEATURES_BY_NAME["has_bio"]
        with pytest.raises(ConfigurationError):
            FeatureSet([feature, feature])

    def test_feature_without_column_function_rejected(self):
        orphan = Feature("orphan", CLASS_A, None, "no column function")
        with pytest.raises(ConfigurationError, match="column function"):
            FeatureSet([FEATURES_BY_NAME["has_bio"], orphan])

    def test_extract_vector_shape_and_order(self):
        feature_set = FeatureSet.from_names(["has_bio", "has_location"])
        matrix = feature_set.extract_matrix([make_user(location="")],
                                            None, NOW)
        assert list(matrix[0]) == [1.0, 0.0]

    def test_extract_matrix(self):
        feature_set = PROFILE_FEATURE_SET
        users = [make_user(), make_user(followers_count=5)]
        matrix = feature_set.extract_matrix(users, None, NOW)
        assert matrix.shape == (2, len(feature_set.features))

    def test_extract_matrix_empty(self):
        matrix = PROFILE_FEATURE_SET.extract_matrix([], None, NOW)
        assert matrix.shape == (0, len(PROFILE_FEATURE_SET.features))

    def test_matrix_length_mismatch(self):
        with pytest.raises(ConfigurationError):
            FULL_FEATURE_SET.extract_matrix([make_user()], [], NOW)


# -- extract_matrix against the per-account oracle ---------------------------

#: Blank-or-filled profile text: whitespace-only must read as empty.
profile_text = st.sampled_from(["", " ", "\t\n", "  x ", "Rome", "ünï"])

#: Handles: empty, ASCII with digit tails, and non-ASCII (Unicode digits
#: such as Arabic-Indic and fullwidth ones included).
handles = st.one_of(
    st.text(alphabet="abcXYZ_0123456789", max_size=15),
    st.text(alphabet="aé_٣٤１２9ß", max_size=15))

counts = st.one_of(st.just(0), st.integers(0, 10_000_000))

tweet_texts = st.sampled_from([
    "plain words", "see http://t.co/a", "RT @someone: hello",
    "make money fast", "hi @friend", "#tag day", "RT @a: #x http://y.io",
    "same tweet", "same tweet", "work from home @b"])


@st.composite
def users(draw):
    created = NOW - draw(st.floats(-10 * DAY, 8 * YEAR))
    last = draw(st.one_of(
        st.none(), st.floats(NOW - 3 * YEAR, NOW + DAY)))
    user = UserObject(
        user_id=draw(st.integers(1, 2**40)),
        screen_name=draw(handles), name=draw(profile_text),
        created_at=created, description=draw(profile_text),
        location=draw(profile_text), url=draw(profile_text),
        default_profile_image=draw(st.booleans()), verified=False,
        followers_count=draw(counts), friends_count=draw(counts),
        statuses_count=draw(counts), last_status_at=last)
    # Now and then one text value a fixed-width row column cannot
    # round-trip: a trailing NUL, or one character too many.
    damage = draw(st.integers(0, 11))
    if damage < 2:
        field = draw(st.sampled_from(sorted(STRING_WIDTHS)))
        value = (getattr(user, field) + "\x00" if damage == 0
                 else "w" * (STRING_WIDTHS[field] + 1))
        user = dataclasses.replace(user, **{field: value})
    return user


def lossy(user):
    """Whether a row column would alter one of ``user``'s text values."""
    return any(len(getattr(user, field)) > width
               or getattr(user, field).endswith("\x00")
               for field, width in STRING_WIDTHS.items())


@st.composite
def timelines(draw):
    entries = draw(st.lists(
        st.tuples(tweet_texts,
                  st.sampled_from(HUMAN_SOURCES + ("twitterfeed", "bot"))),
        max_size=12))
    return [Tweet(tweet_id=i, user_id=1, created_at=NOW - i, text=text,
                  source=source)
            for i, (text, source) in enumerate(entries)]


samples = st.lists(st.tuples(users(), timelines()), min_size=1, max_size=8)


class TestExtractionOracle:
    """``extract_matrix`` equals the per-account oracle, bit for bit."""

    @settings(max_examples=60, deadline=None)
    @given(samples)
    def test_both_feature_sets_match_the_oracle(self, sample):
        people = [user for user, __ in sample]
        tweets = [timeline for __, timeline in sample]
        for feature_set in (PROFILE_FEATURE_SET, FULL_FEATURE_SET):
            assert np.array_equal(
                feature_set.extract_matrix(people, tweets, NOW),
                feature_oracle.extract_matrix(
                    feature_set, people, tweets, NOW))
        # Row blocks: every lossy user is refused, alone and in the
        # sample; the clean users (maybe none) pack and match the oracle.
        for user in filter(lossy, people):
            with pytest.raises(ConfigurationError):
                UserRowBlock.from_users([user])
        clean = [index for index, user in enumerate(people)
                 if not lossy(user)]
        if len(clean) < len(people):
            with pytest.raises(ConfigurationError):
                UserRowBlock.from_users(people)
        kept = [people[index] for index in clean]
        kept_tweets = [tweets[index] for index in clean]
        block = UserRowBlock.from_users(kept)
        for feature_set in (PROFILE_FEATURE_SET, FULL_FEATURE_SET):
            assert np.array_equal(
                feature_set.extract_matrix(block, kept_tweets, NOW),
                feature_oracle.extract_matrix(
                    feature_set, kept, kept_tweets, NOW))

    def test_edge_accounts_match_the_oracle(self):
        edge = [make_user(followers_count=0, friends_count=7),
                make_user(statuses_count=0, last_status_at=None),
                make_user(description=" ", location="\t", url="  ",
                          name="\n"),
                make_user(screen_name="ناصر٣٤"),
                make_user(screen_name="")]
        tweets = [[], make_tweets(["a"]), [], make_tweets(["b", "b"]), []]
        for feature_set in (PROFILE_FEATURE_SET, FULL_FEATURE_SET):
            assert np.array_equal(
                feature_set.extract_matrix(edge, tweets, NOW),
                feature_oracle.extract_matrix(feature_set, edge, tweets, NOW))
