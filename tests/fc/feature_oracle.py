"""Reference oracle for FC feature extraction: one account at a time.

Production builds the whole design matrix column by column
(``FeatureSet.extract_matrix``: one attribute sweep of the profiles,
class-B fractions from the timelines' flag and body-key columns).  This
oracle computes each feature the way the catalogue defines it: per
account, from the ``UserObject`` accessors and the rendered tweets'
predicates.  Tests require the two matrices to match bit for bit.
"""

from __future__ import annotations

import math
from collections import Counter
from typing import Optional, Sequence

import numpy as np

from repro.core.errors import ConfigurationError
from repro.core.timeutil import DAY
from repro.fc.features import CLASS_B, FeatureSet
from repro.twitter.names import digit_fraction
from repro.twitter.tweet import HUMAN_SOURCES


def _log1p_count(value: float) -> float:
    return math.log1p(max(0.0, value))


def _fraction(timeline, predicate) -> float:
    if not timeline:
        return 0.0
    return sum(1 for tweet in timeline if predicate(tweet)) / len(timeline)


def _duplicate_fraction(user, timeline, now) -> float:
    """Fraction of tweets whose body appears more than three times."""
    if not timeline:
        return 0.0
    counts = Counter(tweet.body() for tweet in timeline)
    duplicated = sum(1 for tweet in timeline if counts[tweet.body()] > 3)
    return duplicated / len(timeline)


def _last_status_age_days(user, timeline, now) -> float:
    age = user.last_status_age(now)
    # "Never tweeted" is encoded as an age far beyond any horizon.
    return 10_000.0 if age is None else age / DAY


#: Every catalogue feature as ``(user, timeline, now) -> float``.
EXTRACTORS = {
    "log_followers": lambda u, t, now: _log1p_count(u.followers_count),
    "log_friends": lambda u, t, now: _log1p_count(u.friends_count),
    "log_statuses": lambda u, t, now: _log1p_count(u.statuses_count),
    "log_ff_ratio":
        lambda u, t, now: _log1p_count(u.friends_followers_ratio()),
    "age_days": lambda u, t, now: u.age_at(now) / DAY,
    "tweets_per_day":
        lambda u, t, now: u.statuses_count / max(u.age_at(now) / DAY, 1.0),
    "has_bio": lambda u, t, now: 1.0 if u.has_bio() else 0.0,
    "has_location": lambda u, t, now: 1.0 if u.has_location() else 0.0,
    "has_url": lambda u, t, now: 1.0 if u.url.strip() else 0.0,
    "default_image":
        lambda u, t, now: 1.0 if u.default_profile_image else 0.0,
    "has_name": lambda u, t, now: 1.0 if u.name.strip() else 0.0,
    "last_status_age_days": _last_status_age_days,
    "name_digit_fraction": lambda u, t, now: digit_fraction(u.screen_name),
    "name_length": lambda u, t, now: float(len(u.screen_name)),
    "followers_per_day":
        lambda u, t, now: u.followers_count / max(u.age_at(now) / DAY, 1.0),
    "retweet_fraction":
        lambda u, t, now: _fraction(t, lambda tw: tw.is_retweet()),
    "link_fraction":
        lambda u, t, now: _fraction(t, lambda tw: tw.has_link()),
    "spam_fraction":
        lambda u, t, now: _fraction(t, lambda tw: tw.contains_spam_phrase()),
    "mention_fraction":
        lambda u, t, now: _fraction(t, lambda tw: bool(tw.mentions())),
    "hashtag_fraction":
        lambda u, t, now: _fraction(t, lambda tw: bool(tw.hashtags())),
    "automation_fraction": lambda u, t, now: _fraction(
        t, lambda tw: tw.source not in HUMAN_SOURCES),
    "duplicate_fraction": _duplicate_fraction,
}


def extract_row(feature_set: FeatureSet, user, timeline: Optional[Sequence],
                now: float) -> np.ndarray:
    """One account's feature vector, feature by feature."""
    values = []
    for feature in feature_set.features:
        if feature.cost_class == CLASS_B and timeline is None:
            raise ConfigurationError(
                f"feature {feature.name!r} needs a timeline (cost class B)")
        values.append(float(EXTRACTORS[feature.name](user, timeline, now)))
    return np.array(values, dtype=np.float64)


def extract_matrix(feature_set: FeatureSet, users: Sequence,
                   timelines: Optional[Sequence], now: float) -> np.ndarray:
    """The design matrix, one :func:`extract_row` per account."""
    if timelines is None:
        timelines = [None] * len(users)
    if not users:
        return np.empty((0, len(feature_set.features)), dtype=np.float64)
    return np.vstack([extract_row(feature_set, user, timeline, now)
                      for user, timeline in zip(users, timelines)])
