"""Feature catalogue for fake-follower detection.

The FC engine's methodology ([12], summarised in the paper's Section
III) starts from features proposed in the academic spam-detection
literature — Stringhini et al. [8] and Yang et al. [9] — plus the
profile attributes the single-rule approaches ([13]-[15]) key on, and
annotates each with its *crawling cost*:

* **class A** — computable from a ``users/lookup`` profile alone
  (100 accounts per request);
* **class B** — requires a ``statuses/user_timeline`` fetch
  (one account per request, 12 requests/minute).

The cost classes drive the "optimized classifiers" of [12]: a class-A
classifier audits 9604 sampled followers with ~97 API calls, while a
class-B one would need ~9700 — hours instead of minutes.
"""

from __future__ import annotations

import hashlib
import math
from collections import Counter
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..api.endpoints import UserObject
from ..core.errors import ConfigurationError
from ..core.timeutil import DAY
from ..twitter.tweet import HUMAN_SOURCES, Tweet

#: Crawling-cost classes.
CLASS_A = "A"
CLASS_B = "B"

Extractor = Callable[[UserObject, Optional[Sequence[Tweet]], float], float]


@dataclass(frozen=True)
class Feature:
    """A named, cost-annotated numeric feature."""

    name: str
    cost_class: str
    extractor: Extractor
    description: str

    def __call__(self, user: UserObject, timeline: Optional[Sequence[Tweet]],
                 now: float) -> float:
        if self.cost_class == CLASS_B and timeline is None:
            raise ConfigurationError(
                f"feature {self.name!r} needs a timeline (cost class B)")
        return float(self.extractor(user, timeline, now))


def _log1p_count(value: float) -> float:
    return math.log1p(max(0.0, value))


# -- class A: profile-only features -----------------------------------------

def _followers(user, timeline, now):
    return _log1p_count(user.followers_count)


def _friends(user, timeline, now):
    return _log1p_count(user.friends_count)


def _statuses(user, timeline, now):
    return _log1p_count(user.statuses_count)


def _ff_ratio(user, timeline, now):
    return _log1p_count(user.friends_followers_ratio())


def _age_days(user, timeline, now):
    return user.age_at(now) / DAY


def _tweets_per_day(user, timeline, now):
    age_days = max(user.age_at(now) / DAY, 1.0)
    return user.statuses_count / age_days


def _has_bio(user, timeline, now):
    return 1.0 if user.has_bio() else 0.0


def _has_location(user, timeline, now):
    return 1.0 if user.has_location() else 0.0


def _has_url(user, timeline, now):
    return 1.0 if user.url.strip() else 0.0


def _default_image(user, timeline, now):
    return 1.0 if user.default_profile_image else 0.0


def _has_name(user, timeline, now):
    return 1.0 if user.name.strip() else 0.0


def _last_status_age_days(user, timeline, now):
    age = user.last_status_age(now)
    if age is None:
        # "Never tweeted" is encoded as an age far beyond any horizon.
        return 10_000.0
    return age / DAY


def _name_digit_fraction(user, timeline, now):
    from ..twitter.names import digit_fraction
    return digit_fraction(user.screen_name)


def _name_length(user, timeline, now):
    return float(len(user.screen_name))


def _followers_per_day(user, timeline, now):
    age_days = max(user.age_at(now) / DAY, 1.0)
    return user.followers_count / age_days


# -- class B: timeline features ----------------------------------------------

def _fraction(timeline: Sequence[Tweet], predicate) -> float:
    if not timeline:
        return 0.0
    return sum(1 for tweet in timeline if predicate(tweet)) / len(timeline)


def _retweet_fraction(user, timeline, now):
    return _fraction(timeline, lambda t: t.is_retweet())


def _link_fraction(user, timeline, now):
    return _fraction(timeline, lambda t: t.has_link())


def _spam_fraction(user, timeline, now):
    return _fraction(timeline, lambda t: t.contains_spam_phrase())


def _mention_fraction(user, timeline, now):
    return _fraction(timeline, lambda t: bool(t.mentions()))


def _hashtag_fraction(user, timeline, now):
    return _fraction(timeline, lambda t: bool(t.hashtags()))


def _automation_fraction(user, timeline, now):
    return _fraction(timeline, lambda t: t.source not in HUMAN_SOURCES)


def _duplicate_fraction(user, timeline, now):
    """Fraction of tweets whose body appears more than three times.

    Mirrors Socialbakers' "same tweets repeated more than three times"
    criterion, applied over the retrieved timeline page.
    """
    if not timeline:
        return 0.0
    counts = Counter(tweet.body() for tweet in timeline)
    duplicated = sum(1 for tweet in timeline if counts[tweet.body()] > 3)
    return duplicated / len(timeline)


FEATURES: Tuple[Feature, ...] = (
    Feature("log_followers", CLASS_A, _followers,
            "log(1 + followers_count)"),
    Feature("log_friends", CLASS_A, _friends,
            "log(1 + friends_count)"),
    Feature("log_statuses", CLASS_A, _statuses,
            "log(1 + statuses_count)"),
    Feature("log_ff_ratio", CLASS_A, _ff_ratio,
            "log(1 + friends/followers) — the StatusPeople founder's "
            "'most meaningful' signal"),
    Feature("age_days", CLASS_A, _age_days,
            "account age in days"),
    Feature("tweets_per_day", CLASS_A, _tweets_per_day,
            "lifetime tweeting rate"),
    Feature("has_bio", CLASS_A, _has_bio,
            "profile description filled in"),
    Feature("has_location", CLASS_A, _has_location,
            "profile location filled in"),
    Feature("has_url", CLASS_A, _has_url,
            "profile URL filled in"),
    Feature("default_image", CLASS_A, _default_image,
            "still uses the default profile image"),
    Feature("has_name", CLASS_A, _has_name,
            "display name filled in (Camisani-Calzolari)"),
    Feature("last_status_age_days", CLASS_A, _last_status_age_days,
            "days since the embedded last status (10000 = never tweeted)"),
    Feature("name_digit_fraction", CLASS_A, _name_digit_fraction,
            "fraction of digits in the handle (registration-farm tails)"),
    Feature("name_length", CLASS_A, _name_length,
            "length of the handle"),
    Feature("followers_per_day", CLASS_A, _followers_per_day,
            "audience accumulation rate (Yang et al.)"),
    Feature("retweet_fraction", CLASS_B, _retweet_fraction,
            "fraction of retweets in the recent timeline"),
    Feature("link_fraction", CLASS_B, _link_fraction,
            "fraction of tweets with URLs (Stringhini et al.)"),
    Feature("spam_fraction", CLASS_B, _spam_fraction,
            "fraction of tweets with spam phrases"),
    Feature("mention_fraction", CLASS_B, _mention_fraction,
            "fraction of tweets with mentions"),
    Feature("hashtag_fraction", CLASS_B, _hashtag_fraction,
            "fraction of tweets with hashtags"),
    Feature("automation_fraction", CLASS_B, _automation_fraction,
            "fraction of tweets from non-official clients (Chu et al.)"),
    Feature("duplicate_fraction", CLASS_B, _duplicate_fraction,
            "fraction of tweets whose body repeats > 3 times"),
)

FEATURES_BY_NAME: Dict[str, Feature] = {f.name: f for f in FEATURES}

#: The two canonical feature sets used by the optimized classifiers.
CLASS_A_FEATURES: Tuple[Feature, ...] = tuple(
    f for f in FEATURES if f.cost_class == CLASS_A)
ALL_FEATURES: Tuple[Feature, ...] = FEATURES


class FeatureSet:
    """An ordered selection of features with vector extraction."""

    def __init__(self, features: Sequence[Feature]) -> None:
        if not features:
            raise ConfigurationError("a feature set must be non-empty")
        names = [f.name for f in features]
        if len(set(names)) != len(names):
            raise ConfigurationError(f"duplicate features: {names!r}")
        self._features = tuple(features)

    @classmethod
    def from_names(cls, names: Sequence[str]) -> "FeatureSet":
        missing = [name for name in names if name not in FEATURES_BY_NAME]
        if missing:
            raise ConfigurationError(f"unknown features: {missing!r}")
        return cls([FEATURES_BY_NAME[name] for name in names])

    @property
    def features(self) -> Tuple[Feature, ...]:
        """The selected features, in extraction order."""
        return self._features

    @property
    def names(self) -> List[str]:
        """The selected feature names, in extraction order."""
        return [f.name for f in self._features]

    def needs_timeline(self) -> bool:
        """Whether any feature is cost class B."""
        return any(f.cost_class == CLASS_B for f in self._features)

    def fingerprint(self) -> str:
        """Stable id of this ordered selection (feature-cache keying).

        Two feature sets share a fingerprint iff they extract the same
        features in the same order — exactly when their vectors are
        interchangeable, which is what lets
        :class:`repro.fc.columnar.FeatureCache` key rows by it.
        """
        joined = "|".join(self.names).encode("utf-8")
        return hashlib.sha256(joined).hexdigest()[:16]

    def extract(self, user: UserObject, timeline: Optional[Sequence[Tweet]],
                now: float) -> np.ndarray:
        """Extract one feature vector (float64, length = #features)."""
        return np.array(
            [feature(user, timeline, now) for feature in self._features],
            dtype=np.float64,
        )

    def extract_matrix(self, users: Sequence[UserObject],
                       timelines: Optional[Sequence[Optional[Sequence[Tweet]]]],
                       now: float) -> np.ndarray:
        """Extract a design matrix, one row per user."""
        if timelines is None:
            timelines = [None] * len(users)
        if len(timelines) != len(users):
            raise ConfigurationError("users and timelines length mismatch")
        if not users:
            return np.empty((0, len(self._features)), dtype=np.float64)
        return np.vstack([
            self.extract(user, timeline, now)
            for user, timeline in zip(users, timelines)
        ])


#: Ready-made feature sets.
PROFILE_FEATURE_SET = FeatureSet(CLASS_A_FEATURES)
FULL_FEATURE_SET = FeatureSet(ALL_FEATURES)
