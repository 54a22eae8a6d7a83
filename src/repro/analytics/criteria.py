"""The batch-classification contract of the audit engines.

Every engine applies *criteria* to a sample of follower profiles (and
optionally their timelines).  This module defines the shared shape of
that step:

* :class:`Criteria` — the per-account rule spec ``classify(user,
  timeline, now)`` / ``explain`` (readable, and the reference the
  tests compare against) plus the columnar ``classify_block(block,
  now)`` over a :class:`SampleBlock` of NumPy columns, which
  ``classify_all`` — the one whole-sample entry — runs;
* :class:`VerdictArray` — per-account int64 verdict codes with
  label-ordered ``counts()`` and engine-specific ``extras``
  (histograms etc.);
* :class:`SampleBlock` — the profile columns of one sample, built once
  per classification from either a structured-row
  :class:`~repro.twitter.columnar.schema.UserRowBlock` or a plain list
  of user objects, with the derived columns every rule set shares
  (friends/followers ratio, account age, last-status age, bio/location
  presence) computed lazily;
* :class:`EngineInfo` — the uniform engine metadata block
  (``CommercialAnalytic.info()``) that replaced the ad-hoc
  ``"criteria": "..."`` strings in report details.

Every mask pipeline reproduces the per-account rules' float operations
exactly, so ``classify_block`` returns the verdicts a ``classify`` loop
would; the tests hold it to that with a per-account oracle.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Tuple

import numpy as np

from ..core.errors import ConfigurationError
from ..fc.features import _PROFILE_FIELDS


@dataclass(frozen=True)
class EngineInfo:
    """Uniform engine metadata: one structured block per engine.

    ``batch_capable`` is a static fact kept for the report format:
    whether the engine classifies through criteria on the columnar
    path (every bundled engine does; a custom engine without criteria
    does not).
    """

    name: str
    frame_policy: str
    criteria_id: str
    reports_inactive: bool
    batch_capable: bool

    def as_dict(self) -> Dict[str, object]:
        """A plain JSON-serialisable mapping for report details."""
        return {
            "name": self.name,
            "frame_policy": self.frame_policy,
            "criteria_id": self.criteria_id,
            "reports_inactive": self.reports_inactive,
            "batch_capable": self.batch_capable,
        }


@dataclass
class VerdictArray:
    """Per-account verdicts: int64 ``codes`` indexing into ``labels``.

    ``extras`` carries whatever engine-specific aggregates the criteria
    computed alongside the verdicts (Twitteraudit's histograms and
    quality sum).
    """

    labels: Tuple[str, ...]
    codes: np.ndarray
    extras: Dict[str, object] = field(default_factory=dict)

    def __post_init__(self) -> None:
        self.codes = np.asarray(self.codes, dtype=np.int64)

    def __len__(self) -> int:
        return len(self.codes)

    def counts(self) -> Dict[str, int]:
        """Verdict tallies as ``{label: count}`` in label order."""
        tally = np.bincount(self.codes, minlength=len(self.labels))
        return {label: int(tally[index])
                for index, label in enumerate(self.labels)}


class Criteria:
    """Base contract of an engine's classification criteria.

    Subclasses implement the per-account rule spec :meth:`classify`
    (and :meth:`explain`) and its columnar twin :meth:`classify_block`.
    ``labels`` fixes the verdict vocabulary *and* the key order of
    :meth:`VerdictArray.counts` — engines rely on that order when
    feeding :func:`~repro.analytics.base.percentages`.
    """

    name: str = "criteria"
    needs_timeline: bool = False
    labels: Tuple[str, ...] = ()
    #: Stable rule identifiers, in evaluation order.  Part of the
    #: observable wire format: goldens, metric series and dashboards
    #: key on these strings — renaming one is a breaking change (see
    #: docs/observability.md, "RuleId stability").
    rule_ids: Tuple[str, ...] = ()

    def classify(self, user, timeline, now: float) -> str:
        """Classify one account; returns a label from ``labels``."""
        raise NotImplementedError

    def explain(self, user, timeline, now: float) -> Tuple[str, Tuple[str, ...]]:
        """Classify one account and name the rules that fired.

        Must agree with :meth:`classify` on the label for every input.
        The default reports no rules (criteria without a rule registry
        still classify; they just have nothing to attribute).
        """
        return self.classify(user, timeline, now), ()

    def classify_all(self, users, timelines, now: float,
                     sink=None) -> VerdictArray:
        """Classify a whole sample: build its block, run the masks.

        ``sink`` optionally collects per-rule fire masks; attaching one
        never changes the verdicts.
        """
        return self.classify_block(build_sample_block(users, timelines),
                                   now, sink=sink)

    def classify_block(self, block: "SampleBlock", now: float,
                       sink=None) -> VerdictArray:
        """Columnar classification of a :class:`SampleBlock`."""
        raise NotImplementedError


class SampleBlock:
    """The profile columns of one sample, plus lazy derived columns.

    Construction performs exactly one attribute sweep (or, for a
    structured-row :class:`UserRowBlock`, zero — the block hands
    over ready-made columns); every derived column a rule set needs is
    computed once on first use and shared between rules.  All float
    math mirrors the user-object observables bit for bit:
    ``last_status_at`` keeps NaN for never-tweeted (so age columns
    propagate NaN and must be paired with :attr:`never_tweeted`), and
    the friends/followers ratio reproduces the observable's zero-follower
    fallback exactly.
    """

    def __init__(self, users, timelines=None) -> None:
        self._users = users
        self._timelines = timelines
        rows = getattr(users, "rows", None)
        if rows is not None and getattr(rows, "dtype", None) is not None \
                and rows.dtype.names is not None:
            # Row-block fast path: the UserRowBlock's
            # structured rows already hold every eager column in its
            # exact dtype (int64 counters, float64 instants with NaN
            # encoding never-tweeted, bool flag) — take field views
            # and skip the Python-object round trip entirely.
            self.followers = rows["followers_count"]
            self.friends = rows["friends_count"]
            self.statuses = rows["statuses_count"]
            self.created_at = rows["created_at"]
            self.last_status_at = rows["last_tweet_at"]
            self.default_image = rows["default_profile_image"]
            self._descriptions = rows["description"]
            self._locations = rows["location"]
            self._ff_ratio = None
            self._has_bio = None
            self._has_location = None
            self._never_tweeted = None
            self._timeline_stats = None
            return
        profile_columns = getattr(users, "profile_columns", None)
        if profile_columns is not None:
            columns = profile_columns()
        else:
            rows = [_PROFILE_FIELDS(user) for user in users]
            if rows:
                columns = tuple(list(column) for column in zip(*rows))
            else:
                columns = tuple([] for _ in range(11))
        (followers, friends, statuses, created_at, last_status_at,
         descriptions, locations, _urls, _names, default_images,
         _screen_names) = columns
        self.followers = np.asarray(followers, dtype=np.int64)
        self.friends = np.asarray(friends, dtype=np.int64)
        self.statuses = np.asarray(statuses, dtype=np.int64)
        self.created_at = np.asarray(created_at, dtype=np.float64)
        self.last_status_at = np.array(
            [np.nan if value is None else value for value in last_status_at],
            dtype=np.float64)
        self.default_image = np.asarray(default_images, dtype=bool)
        self._descriptions = descriptions
        self._locations = locations
        self._ff_ratio = None
        self._has_bio = None
        self._has_location = None
        self._never_tweeted = None
        self._timeline_stats = None

    def __len__(self) -> int:
        return len(self.followers)

    @property
    def ff_ratio(self):
        """``friends_followers_ratio()`` as a float64 column.

        Bit-identical to the user-object observable: int64/int64 division is
        correctly rounded like Python ``int / int``, and zero-follower
        rows take the ``float(friends_count)`` fallback.
        """
        if self._ff_ratio is None:
            unfollowed = self.followers == 0
            denominator = np.where(unfollowed, 1, self.followers)
            self._ff_ratio = np.where(
                unfollowed, self.friends.astype(np.float64),
                self.friends / denominator)
        return self._ff_ratio

    def _nonblank(self, texts):
        """``bool(text.strip())`` as a boolean column.

        On the structured-rows fast path ``texts`` is a ``U``-dtype
        field view, stripped vectorized; ``str.strip`` applied per
        element and ``np.char.strip`` remove the same whitespace, so
        the two branches agree exactly.
        """
        if isinstance(texts, np.ndarray):
            return np.char.strip(texts) != ""
        return np.asarray([bool(text.strip()) for text in texts], dtype=bool)

    @property
    def has_bio(self):
        """``has_bio()`` as a boolean column."""
        if self._has_bio is None:
            self._has_bio = self._nonblank(self._descriptions)
        return self._has_bio

    @property
    def has_location(self):
        """``has_location()`` as a boolean column."""
        if self._has_location is None:
            self._has_location = self._nonblank(self._locations)
        return self._has_location

    @property
    def never_tweeted(self):
        """Rows with no last status (the NaN encoding of ``None``)."""
        if self._never_tweeted is None:
            self._never_tweeted = np.isnan(self.last_status_at)
        return self._never_tweeted

    def age_at(self, now: float):
        """``age_at(now)`` column (always finite)."""
        return np.maximum(0.0, now - self.created_at)

    def last_status_age(self, now: float):
        """``last_status_age(now)`` column; NaN where never tweeted.

        NaN compares ``False`` against any threshold, so pure
        "older than" masks are safe — but pair explicit never-tweeted
        semantics with :attr:`never_tweeted`.
        """
        return np.maximum(0.0, now - self.last_status_at)

    def timeline_stats(self):
        """The timeline fraction columns, from flag and body-key columns."""
        if self._timeline_stats is None:
            if self._timelines is None:
                raise ConfigurationError(
                    "sample block was built without timelines")
            from ..api.columns import timeline_stat_columns
            self._timeline_stats = timeline_stat_columns(self._timelines)
        return self._timeline_stats


def build_sample_block(users, timelines=None) -> SampleBlock:
    """Build the :class:`SampleBlock` of one sample."""
    return SampleBlock(users, timelines)
