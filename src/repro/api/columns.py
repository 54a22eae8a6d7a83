"""Column views of one sample: its profiles and its timelines.

Every classifier in the repository -- the three commercial rule sets
and the FC engine's trained detector -- reads a sample of
``users/lookup`` profiles (and, for content rules and class-B
features, their timelines) column by column rather than one account at
a time.  This module holds both views:

* :class:`SampleBlock` -- the profile columns of one sample, taken
  from a structured-row
  :class:`~repro.twitter.columnar.schema.UserRowBlock` as field views
  (a plain list of user objects is packed into one first), plus the
  derived columns the rule sets and the FC features share;
* :func:`timeline_stat_columns` -- the seven per-timeline fractions
  (spam phrases, repeated tweets, retweet and link ratios, ...);
* :class:`Criteria` and :class:`VerdictArray` -- the contract every
  engine's classification criteria implement over a
  :class:`SampleBlock`, and the verdicts they return (re-exported by
  :mod:`repro.analytics.criteria`; they live here so the FC package
  can implement them without importing the analytics package).

Timelines arrive as :class:`~repro.twitter.timeline.TimelineBlock`
columns, so all seven fractions of a whole sample come from its flag
and body-key columns in a few vectorized passes — no tweet text is
rendered or parsed.  Hand-built tweet lists enter the same path through
:meth:`TimelineBlock.from_tweets`, which detects their flags with the
:class:`~repro.twitter.tweet.Tweet` predicates.

Each fraction is ``count / len(timeline)`` with both operands exact in
float64, so the columns are bit-identical to counting the
:class:`~repro.twitter.tweet.Tweet` predicates over the rendered tweets
one at a time (as the per-account rules in :mod:`repro.fc.rulesets` do).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Dict, List, Tuple

import numpy as np

from ..core.errors import ConfigurationError
from ..twitter.columnar.schema import UserRowBlock
from ..twitter.timeline import (AUTOMATION, HASHTAG, LINK, MENTION, RETWEET,
                                SPAM, TimelineBlock)

#: Flag bit of each fraction column, in column order (the duplicate
#: column comes from body keys instead).
_FRACTION_BITS = (RETWEET, LINK, SPAM, MENTION, HASHTAG, AUTOMATION)

#: The row field of each raw profile column of the view.
_FIELD_OF = {
    "followers": "followers_count",
    "friends": "friends_count",
    "statuses": "statuses_count",
    "created_at": "created_at",
    "last_status_at": "last_tweet_at",
    "descriptions": "description",
    "locations": "location",
    "urls": "url",
    "names": "name",
    "default_image": "default_profile_image",
    "screen_names": "screen_name",
}


@dataclass
class TimelineStatColumns:
    """Seven per-timeline fraction columns plus a non-empty mask."""

    retweet: object
    link: object
    spam: object
    mention: object
    hashtag: object
    automation: object
    duplicate: object
    #: ``bool(timeline)`` per row — rules like "more than 90% retweets"
    #: only fire on accounts that tweeted at all.
    nonempty: object

    def __len__(self) -> int:
        return len(self.nonempty)


def timeline_stat_columns(timelines) -> TimelineStatColumns:
    """Fraction columns over ``timelines`` (blocks or tweet sequences).

    ``None`` entries read as empty timelines (all fractions 0.0), the
    same degradation the scalar rules apply via ``timeline or []``.
    """
    if timelines is None:
        raise ConfigurationError("timeline_stat_columns needs timelines")
    blocks = [TimelineBlock.from_tweets(timeline or ())
              for timeline in timelines]
    lengths = np.array([len(block) for block in blocks], dtype=np.int64)
    nonempty = lengths > 0
    rows = np.repeat(np.arange(len(blocks)), lengths)
    flags = (np.concatenate([block.flags for block in blocks]) if blocks
             else np.zeros(0, dtype=np.uint8))

    def fraction(counts):
        return np.divide(counts, lengths, out=np.zeros(len(blocks)),
                         where=nonempty)

    columns = [fraction(np.bincount(rows[(flags & bit) != 0],
                                    minlength=len(blocks)))
               for bit in _FRACTION_BITS]
    duplicated = np.array([block.duplicated for block in blocks],
                          dtype=np.int64)
    return TimelineStatColumns(*columns, fraction(duplicated),
                               nonempty=nonempty)


class SampleBlock:
    """The profile columns of one sample, plus lazy derived columns.

    ``users`` is a :class:`UserRowBlock`, or a sequence of user objects
    packed into one at construction (:meth:`UserRowBlock.from_users`,
    which refuses text its fixed-width columns would not round-trip);
    ``timelines``, when given, holds one timeline per user.  The raw
    columns are field views of the rows, one entry per user in sample
    order: ``followers``, ``friends``, ``statuses`` (int64),
    ``created_at``, ``last_status_at`` (float64, NaN for
    never-tweeted), ``default_image`` (bool) and the ``U`` text columns
    ``descriptions``, ``locations``, ``urls``, ``names`` and
    ``screen_names``.

    Every derived column is computed once on first use and shared
    between rules and features.  All float math mirrors the user-object
    observables bit for bit: age columns propagate NaN for
    never-tweeted (pair them with :attr:`never_tweeted`), and the
    friends/followers ratio reproduces the observable's zero-follower
    fallback exactly.
    """

    def __init__(self, users, timelines=None) -> None:
        if not isinstance(users, UserRowBlock):
            users = UserRowBlock.from_users(users)
        if timelines is not None and len(timelines) != len(users):
            raise ConfigurationError(
                f"users and timelines length mismatch: {len(users)} "
                f"users, {len(timelines)} timelines")
        self._rows = users.rows
        self.timelines = timelines
        self._nonblank: Dict[str, np.ndarray] = {}

    def __len__(self) -> int:
        return len(self._rows)

    def __getattr__(self, name: str):
        # Reached only for names the instance does not hold yet: a raw
        # profile column is built on its first read, then kept.
        if name not in _FIELD_OF:
            raise AttributeError(
                f"{type(self).__name__!r} object has no attribute {name!r}")
        column = self._column(name)
        setattr(self, name, column)
        return column

    def _column(self, name: str) -> np.ndarray:
        return self._rows[_FIELD_OF[name]]

    @cached_property
    def user_ids(self) -> List[int]:
        """The sample's user ids, in row order, as Python ints."""
        return self._rows["user_id"].tolist()

    def take(self, indices) -> "SampleBlock":
        """The view of the rows at ``indices``, in that order.

        Nothing is copied up front: the selection reads its columns and
        non-blank masks through this view (see :class:`_Selection`).
        """
        return _Selection(self, np.asarray(indices, dtype=np.intp))

    @cached_property
    def ff_ratio(self) -> np.ndarray:
        """``friends_followers_ratio()`` as a float64 column.

        Bit-identical to the user-object observable: int64/int64 division is
        correctly rounded like Python ``int / int``, and zero-follower
        rows take the ``float(friends_count)`` fallback.
        """
        unfollowed = self.followers == 0
        denominator = np.where(unfollowed, 1, self.followers)
        return np.where(unfollowed, self.friends.astype(np.float64),
                        self.friends / denominator)

    def nonblank(self, column: str) -> np.ndarray:
        """``bool(text.strip())`` over the text column ``column``.

        The ``U`` column is stripped vectorized; ``np.char.strip``
        removes the same whitespace as ``str.strip``, so the mask is
        exactly the per-object one.
        """
        if column not in self._nonblank:
            self._nonblank[column] = self._nonblank_column(column)
        return self._nonblank[column]

    def _nonblank_column(self, column: str) -> np.ndarray:
        return np.char.strip(getattr(self, column)) != ""

    @property
    def has_bio(self) -> np.ndarray:
        """``has_bio()`` as a boolean column."""
        return self.nonblank("descriptions")

    @property
    def has_location(self) -> np.ndarray:
        """``has_location()`` as a boolean column."""
        return self.nonblank("locations")

    @cached_property
    def never_tweeted(self) -> np.ndarray:
        """Rows with no last status (the NaN encoding of ``None``)."""
        return np.isnan(self.last_status_at)

    def age_at(self, now: float) -> np.ndarray:
        """``age_at(now)`` column (always finite)."""
        return np.maximum(0.0, now - self.created_at)

    def last_status_age(self, now: float) -> np.ndarray:
        """``last_status_age(now)`` column; NaN where never tweeted.

        NaN compares ``False`` against any threshold, so pure
        "older than" masks are safe — but pair explicit never-tweeted
        semantics with :attr:`never_tweeted`.
        """
        return np.maximum(0.0, now - self.last_status_at)

    def timeline_stats(self) -> TimelineStatColumns:
        """The timeline fraction columns, from flag and body-key columns."""
        if self.timelines is None:
            raise ConfigurationError(
                "sample block was built without timelines")
        return self._timeline_stats

    @cached_property
    def _timeline_stats(self) -> TimelineStatColumns:
        return timeline_stat_columns(self.timelines)


class _Selection(SampleBlock):
    """Rows ``indices`` of a parent view, read through the parent.

    Each raw column is the parent's column indexed on its first read,
    and each non-blank mask indexes the parent's mask, so selecting
    rows of a row block never copies its fixed-width text fields.
    """

    def __init__(self, parent: SampleBlock, indices: np.ndarray) -> None:
        self._parent = parent
        self._indices = indices
        self.timelines = (None if parent.timelines is None
                          else [parent.timelines[index]
                                for index in indices.tolist()])
        self._nonblank: Dict[str, np.ndarray] = {}

    def __len__(self) -> int:
        return len(self._indices)

    def _column(self, name: str) -> np.ndarray:
        return getattr(self._parent, name)[self._indices]

    def _nonblank_column(self, column: str) -> np.ndarray:
        return self._parent.nonblank(column)[self._indices]

    @cached_property
    def user_ids(self) -> List[int]:
        """The selected rows' user ids, in selection order."""
        parent_ids = self._parent.user_ids
        return [parent_ids[index] for index in self._indices.tolist()]


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

    Subclasses implement the columnar :meth:`classify_block`; the rule
    engines add the per-account rule spec :meth:`classify` (and
    :meth:`explain`) that documents it.  ``labels`` fixes the verdict
    vocabulary *and* the key order of :meth:`VerdictArray.counts`,
    which the engines' percentage arithmetic reads.
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
        return self.classify_block(SampleBlock(users, timelines), now,
                                   sink=sink)

    def classify_block(self, block: SampleBlock, now: float,
                       sink=None) -> VerdictArray:
        """Columnar classification of a :class:`SampleBlock`."""
        raise NotImplementedError
