"""The unified batch-classification contract of the audit engines.

Every engine applies *criteria* to a sample of follower profiles (and
optionally their timelines).  This module defines the shared shape of
that step:

* :class:`Criteria` — scalar ``classify(user, timeline, now)`` (one
  verdict label per account, the historical behaviour) plus an optional
  columnar ``classify_block(block, now)`` over a :class:`SampleBlock`
  of NumPy columns;
* :class:`VerdictArray` — per-account verdict codes with label-ordered
  ``counts()`` and engine-specific ``extras`` (histograms etc.);
* :class:`SampleBlock` — the profile columns of one sample, built once
  per classification from either a columnar-substrate
  :class:`~repro.twitter.columnar.schema.UserRowBlock` or a plain list
  of user objects, with the derived columns every rule set shares
  (friends/followers ratio, account age, last-status age, bio/location
  presence) computed lazily;
* :class:`EngineInfo` — the uniform engine metadata block
  (``CommercialAnalytic.info()``) that replaced the ad-hoc
  ``"criteria": "..."`` strings in report details.

The columnar path carries the same bit-identity contract as
:mod:`repro.fc.columnar`: every mask pipeline reproduces the scalar
rules' float operations exactly, so ``classify_block`` and a
``classify`` loop return identical verdicts — only the wall clock
differs.  NumPy resolution is delegated to the FC module's single
seam, so monkeypatching either module's ``_import_numpy`` simulates a
NumPy-less host for every engine at once.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..core.errors import ConfigurationError
from ..fc import columnar as _fc_columnar


def _import_numpy():
    """Resolve NumPy via the FC columnar seam (monkeypatchable here too)."""
    return _fc_columnar._import_numpy()


def numpy_available() -> bool:
    """Whether the columnar criteria paths can run at all."""
    return _import_numpy() is not None


@dataclass(frozen=True)
class EngineInfo:
    """Uniform engine metadata: one structured block per engine.

    ``batch_capable`` is a static capability fact — whether the
    engine's criteria implement a columnar path at all, *not* whether
    the current run uses it — so report details stay byte-identical
    across ``batch=`` knob settings.
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
    """Per-account verdicts: codes indexing into ``labels``.

    ``codes`` is an int64 NumPy array on the columnar path or a plain
    list of ints on the scalar path; ``extras`` carries whatever
    engine-specific aggregates the criteria computed alongside the
    verdicts (Twitteraudit's histograms and quality sum).
    """

    labels: Tuple[str, ...]
    codes: Sequence[int]
    extras: Dict[str, object] = field(default_factory=dict)

    def __len__(self) -> int:
        return len(self.codes)

    def counts(self) -> Dict[str, int]:
        """Verdict tallies as ``{label: count}`` in label order."""
        np = _import_numpy()
        codes = self.codes
        if np is not None and isinstance(codes, np.ndarray):
            tally = np.bincount(codes, minlength=len(self.labels))
            return {label: int(tally[index])
                    for index, label in enumerate(self.labels)}
        tally = [0] * len(self.labels)
        for code in codes:
            tally[code] += 1
        return {label: tally[index]
                for index, label in enumerate(self.labels)}


def scalar_classify(criteria, users, timelines, now: float,
                    sink=None) -> VerdictArray:
    """The generic scalar loop: one ``classify`` call per account.

    With a :class:`~repro.obs.provenance.ProvenanceSink` attached the
    loop runs :meth:`Criteria.explain` instead, collecting each rule's
    per-user fire bits; ``explain`` mirrors ``classify`` exactly, so
    the verdict codes are identical either way (the differential
    parity suite proves it).
    """
    index = {label: code for code, label in enumerate(criteria.labels)}
    if timelines is None:
        pairs = [(user, None) for user in users]
    else:
        pairs = list(zip(users, timelines))
    if sink is None:
        codes = [index[criteria.classify(user, timeline, now)]
                 for user, timeline in pairs]
    else:
        fires = {rule: [] for rule in criteria.rule_ids}
        codes = []
        for user, timeline in pairs:
            label, fired = criteria.explain(user, timeline, now)
            codes.append(index[label])
            fired_set = set(fired)
            for rule in criteria.rule_ids:
                fires[rule].append(rule in fired_set)
        for rule in criteria.rule_ids:
            sink.add(rule, fires[rule])
    return VerdictArray(labels=tuple(criteria.labels), codes=codes)


class Criteria:
    """Base contract of an engine's classification criteria.

    Subclasses implement scalar :meth:`classify`; those with a
    columnar mask pipeline additionally override :meth:`classify_block`
    and set ``batch_capable = True``.  ``labels`` fixes the verdict
    vocabulary *and* the key order of :meth:`VerdictArray.counts` —
    engines rely on that order when feeding
    :func:`~repro.analytics.base.percentages`.
    """

    name: str = "criteria"
    needs_timeline: bool = False
    labels: Tuple[str, ...] = ()
    #: Whether :meth:`classify_block` is implemented (static fact).
    batch_capable: bool = False
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
        """Scalar classification of a whole sample (existing behaviour).

        ``sink`` optionally collects per-rule fire masks; attaching one
        never changes the verdicts.
        """
        return scalar_classify(self, users, timelines, now, sink=sink)

    def classify_block(self, block: "SampleBlock", now: float,
                       sink=None) -> Optional[VerdictArray]:
        """Columnar classification, or ``None`` for "not supported"."""
        return None


class SampleBlock:
    """The profile columns of one sample, plus lazy derived columns.

    Construction performs exactly one attribute sweep (or, for a
    columnar-substrate :class:`UserRowBlock`, zero — the block hands
    over ready-made columns); every derived column a rule set needs is
    computed once on first use and shared between rules.  All float
    math mirrors the scalar user-object observables bit for bit:
    ``last_status_at`` keeps NaN for never-tweeted (so age columns
    propagate NaN and must be paired with :attr:`never_tweeted`), and
    the friends/followers ratio reproduces the scalar zero-follower
    fallback exactly.
    """

    def __init__(self, np, users, timelines=None) -> None:
        self.np = np
        self._users = users
        self._timelines = timelines
        rows = getattr(users, "rows", None)
        if rows is not None and getattr(rows, "dtype", None) is not None \
                and rows.dtype.names is not None:
            # Columnar-substrate fast path: the UserRowBlock's
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
            rows = [_fc_columnar._PROFILE_FIELDS(user) for user in users]
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

        Bit-identical to the scalar observable: int64/int64 division is
        correctly rounded like Python ``int / int``, and zero-follower
        rows take the ``float(friends_count)`` fallback.
        """
        if self._ff_ratio is None:
            np = self.np
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
        np = self.np
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
            self._never_tweeted = self.np.isnan(self.last_status_at)
        return self._never_tweeted

    def age_at(self, now: float):
        """``age_at(now)`` column (always finite)."""
        return self.np.maximum(0.0, now - self.created_at)

    def last_status_age(self, now: float):
        """``last_status_age(now)`` column; NaN where never tweeted.

        NaN compares ``False`` against any threshold, so pure
        "older than" masks are safe — but pair explicit never-tweeted
        semantics with :attr:`never_tweeted`.
        """
        return self.np.maximum(0.0, now - self.last_status_at)

    def timeline_stats(self):
        """The timeline fraction columns, from flag and body-key columns."""
        if self._timeline_stats is None:
            if self._timelines is None:
                raise ConfigurationError(
                    "sample block was built without timelines")
            from ..api.columns import timeline_stat_columns
            self._timeline_stats = timeline_stat_columns(
                self.np, self._timelines)
        return self._timeline_stats


def build_sample_block(users, timelines=None) -> Optional[SampleBlock]:
    """Build a :class:`SampleBlock`, or ``None`` when NumPy is absent."""
    np = _import_numpy()
    if np is None:
        return None
    return SampleBlock(np, users, timelines)
