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

Every feature is computed for a whole sample at once: its column
function reads the sample's :class:`~repro.api.columns.SampleBlock` --
the profile column view the rule-based engines classify from too, with
its shared derived columns (friends/followers ratio, non-blank text,
account and last-status age) and, for class B, the timelines' flag and
body-key columns -- and returns one float64 value per user.
:meth:`FeatureSet.extract_block` (behind :meth:`~FeatureSet.extract_matrix`)
is the only extractor, in training, evaluation and audits alike.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from functools import partial
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..api.columns import SampleBlock
from ..api.endpoints import UserObject
from ..core.errors import ConfigurationError
from ..core.timeutil import DAY
from ..twitter.names import digit_fraction
from ..twitter.tweet import Tweet

#: Crawling-cost classes.
CLASS_A = "A"
CLASS_B = "B"

#: Computes one feature for a whole sample: float64, one value per user
#: of the :class:`~repro.api.columns.SampleBlock`, at instant ``now``.
#: Catalogue entries are module-level functions or partials of them
#: (never closures), so features and the detectors holding them stay
#: picklable.
ColumnFunction = Callable[[SampleBlock, float], np.ndarray]


@dataclass(frozen=True)
class Feature:
    """A named, cost-annotated numeric feature and its column function."""

    name: str
    cost_class: str
    column: ColumnFunction
    description: str


# -- class A: profile-only features -----------------------------------------
#
# Log counts stay per-element ``math.log1p`` calls over Python floats:
# this NumPy build's SIMD ``np.log1p`` differs by 1 ULP on some inputs,
# which would move trained thresholds and so every committed golden.

def _log1p(values: np.ndarray) -> np.ndarray:
    # ``v if v > 0.0 else 0.0`` is ``max(0.0, v)`` without the builtin
    # call -- identical result, measurably faster over 10k rows.
    return np.array([math.log1p(value if value > 0.0 else 0.0)
                     for value in values.tolist()], dtype=np.float64)


def _log_count(column: str, view: SampleBlock, now: float) -> np.ndarray:
    return _log1p(getattr(view, column))


def _log_ff_ratio(view: SampleBlock, now: float) -> np.ndarray:
    # friends/followers, or friends_count itself when nobody follows.
    return _log1p(view.ff_ratio)


def _age_days(view: SampleBlock, now: float) -> np.ndarray:
    return view.age_at(now) / DAY


def _per_day(column: str, view: SampleBlock, now: float) -> np.ndarray:
    return getattr(view, column) / np.maximum(_age_days(view, now), 1.0)


def _filled(column: str, view: SampleBlock, now: float) -> np.ndarray:
    return view.nonblank(column).astype(np.float64)


def _default_image(view: SampleBlock, now: float) -> np.ndarray:
    return view.default_image.astype(np.float64)


def _name_length(view: SampleBlock, now: float) -> np.ndarray:
    return np.array([len(name) for name in view.screen_names.tolist()],
                    dtype=np.float64)


def _last_status_age_days(view: SampleBlock, now: float) -> np.ndarray:
    # "Never tweeted" is encoded as an age far beyond any horizon.
    return np.where(view.never_tweeted, 10_000.0,
                    view.last_status_age(now) / DAY)


def _name_digit_fraction(view: SampleBlock, now: float) -> np.ndarray:
    # For ASCII strings ``str.isdigit`` is true exactly for '0'-'9', so
    # the whole column reduces to one byte-level sweep: join the names,
    # mark digit bytes, and difference a running count at the name
    # boundaries.  ``int64 / int64`` division is correctly rounded just
    # like Python's ``count / len``, so the fractions equal
    # ``digit_fraction`` bit for bit.  Unicode digit classes differ
    # from ASCII, so any non-ASCII name sends the column through
    # ``digit_fraction`` one handle at a time.
    names = view.screen_names.tolist()
    joined = "".join(names)
    if not joined.isascii():
        return np.array([digit_fraction(name) for name in names],
                        dtype=np.float64)
    lengths = np.array([len(name) for name in names], dtype=np.int64)
    data = np.frombuffer(joined.encode("ascii"), dtype=np.uint8)
    running = np.zeros(len(data) + 1, dtype=np.int64)
    np.cumsum((data >= 48) & (data <= 57), out=running[1:])
    bounds = np.zeros(len(names) + 1, dtype=np.int64)
    np.cumsum(lengths, out=bounds[1:])
    counts = running[bounds[1:]] - running[bounds[:-1]]
    # max(len, 1) only shields the empty-name division: its count is 0.
    return counts / np.maximum(lengths, 1)


# -- class B: timeline features ----------------------------------------------

def _timeline_fraction(fraction: str, view: SampleBlock,
                       now: float) -> np.ndarray:
    """One timeline fraction column; every user needs a timeline."""
    if view.timelines is None or any(
            timeline is None for timeline in view.timelines):
        raise ConfigurationError(
            "class-B features need timelines (cost class B)")
    return getattr(view.timeline_stats(), fraction)


FEATURES: Tuple[Feature, ...] = (
    Feature("log_followers", CLASS_A, partial(_log_count, "followers"),
            "log(1 + followers_count)"),
    Feature("log_friends", CLASS_A, partial(_log_count, "friends"),
            "log(1 + friends_count)"),
    Feature("log_statuses", CLASS_A, partial(_log_count, "statuses"),
            "log(1 + statuses_count)"),
    Feature("log_ff_ratio", CLASS_A, _log_ff_ratio,
            "log(1 + friends/followers) — the StatusPeople founder's "
            "'most meaningful' signal"),
    Feature("age_days", CLASS_A, _age_days,
            "account age in days"),
    Feature("tweets_per_day", CLASS_A, partial(_per_day, "statuses"),
            "lifetime tweeting rate"),
    Feature("has_bio", CLASS_A, partial(_filled, "descriptions"),
            "profile description filled in"),
    Feature("has_location", CLASS_A, partial(_filled, "locations"),
            "profile location filled in"),
    Feature("has_url", CLASS_A, partial(_filled, "urls"),
            "profile URL filled in"),
    Feature("default_image", CLASS_A, _default_image,
            "still uses the default profile image"),
    Feature("has_name", CLASS_A, partial(_filled, "names"),
            "display name filled in (Camisani-Calzolari)"),
    Feature("last_status_age_days", CLASS_A, _last_status_age_days,
            "days since the embedded last status (10000 = never tweeted)"),
    Feature("name_digit_fraction", CLASS_A, _name_digit_fraction,
            "fraction of digits in the handle (registration-farm tails)"),
    Feature("name_length", CLASS_A, _name_length,
            "length of the handle"),
    Feature("followers_per_day", CLASS_A, partial(_per_day, "followers"),
            "audience accumulation rate (Yang et al.)"),
    Feature("retweet_fraction", CLASS_B,
            partial(_timeline_fraction, "retweet"),
            "fraction of retweets in the recent timeline"),
    Feature("link_fraction", CLASS_B,
            partial(_timeline_fraction, "link"),
            "fraction of tweets with URLs (Stringhini et al.)"),
    Feature("spam_fraction", CLASS_B,
            partial(_timeline_fraction, "spam"),
            "fraction of tweets with spam phrases"),
    Feature("mention_fraction", CLASS_B,
            partial(_timeline_fraction, "mention"),
            "fraction of tweets with mentions"),
    Feature("hashtag_fraction", CLASS_B,
            partial(_timeline_fraction, "hashtag"),
            "fraction of tweets with hashtags"),
    Feature("automation_fraction", CLASS_B,
            partial(_timeline_fraction, "automation"),
            "fraction of tweets from non-official clients (Chu et al.)"),
    Feature("duplicate_fraction", CLASS_B,
            partial(_timeline_fraction, "duplicate"),
            "fraction of tweets whose body repeats > 3 times"),
)

FEATURES_BY_NAME: Dict[str, Feature] = {f.name: f for f in FEATURES}

#: The two canonical feature sets used by the optimized classifiers.
CLASS_A_FEATURES: Tuple[Feature, ...] = tuple(
    f for f in FEATURES if f.cost_class == CLASS_A)
ALL_FEATURES: Tuple[Feature, ...] = FEATURES


class FeatureSet:
    """An ordered selection of features with design-matrix extraction."""

    def __init__(self, features: Sequence[Feature]) -> None:
        if not features:
            raise ConfigurationError("a feature set must be non-empty")
        names = [f.name for f in features]
        if len(set(names)) != len(names):
            raise ConfigurationError(f"duplicate features: {names!r}")
        uncomputable = [f.name for f in features if not callable(f.column)]
        if uncomputable:
            raise ConfigurationError(
                f"features without a column function: {uncomputable!r}")
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

    def extract_matrix(self, users: Sequence[UserObject],
                       timelines: Optional[Sequence[Optional[Sequence[Tweet]]]],
                       now: float) -> np.ndarray:
        """The design matrix of ``users`` (and their ``timelines``)."""
        return self.extract_block(SampleBlock(users, timelines), now)

    def extract_block(self, view: SampleBlock, now: float) -> np.ndarray:
        """The design matrix: one float64 row per user, column by column.

        Every class-A column reads the view's profile columns (field
        views of its rows); class-B columns read
        the timelines' flag and body-key columns
        (:func:`repro.api.columns.timeline_stat_columns`).
        """
        matrix = np.empty((len(view), len(self._features)), dtype=np.float64)
        if len(view):
            for index, feature in enumerate(self._features):
                matrix[:, index] = feature.column(view, now)
        return matrix


#: Ready-made feature sets.
PROFILE_FEATURE_SET = FeatureSet(CLASS_A_FEATURES)
FULL_FEATURE_SET = FeatureSet(ALL_FEATURES)
