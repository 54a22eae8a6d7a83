"""Columnar fast path: vectorized features + batch forest inference.

The FC engine classifies a 9604-follower sample per audit (Section
III), and the scalar path pays pure-Python overhead per follower: 15
:class:`~repro.fc.features.Feature` dispatches building one row at a
time, then a per-row recursive descent through 25 trees.  This module
replaces both with columnar work over the whole sample:

* :func:`extract_feature_matrix` materialises the design matrix in one
  pass — class-A profile features as vectorized operations over
  column arrays, class-B timeline features from the timelines' flag
  and body-key columns (:func:`repro.api.columns.timeline_stat_columns`);
* :class:`FlatTree` / :class:`FlatForest` evaluate a fitted tree or
  forest over the whole matrix with masked array descent (at most
  ``max_depth`` vectorized steps) instead of per-row recursion;
* :class:`FeatureCache` remembers per-account feature rows keyed by
  ``(account_id, as_of epoch, feature-set fingerprint)``, so repeated
  audits of overlapping follower sets under one pinned observation
  never recompute features — shared across engines through the
  scheduler's :class:`~repro.sched.cache.AcquisitionCache`.

**Numerical identity is the contract.**  Every column reproduces its
scalar extractor's float operations in the same order (``math.log1p``
stays a per-element Python call: this NumPy build's SIMD ``np.log1p``
differs by 1 ULP on some inputs), tree descent compares the same
float64 values against the same thresholds, and the forest means the
same per-tree probabilities with the same ``vstack(...).mean(axis=0)``
— so classifications and report digests are byte-identical to the
scalar path (enforced by the parity property tests in
``tests/fc/test_columnar.py``).

NumPy is imported lazily through :func:`_import_numpy`; when it is
unavailable, :func:`batch_classifier` returns ``None`` and the engine
falls back to the scalar path automatically.
"""

from __future__ import annotations

import math
import operator
from collections import OrderedDict
from typing import List, Optional, Tuple

from ..api.columns import timeline_stat_columns
from ..core.errors import ConfigurationError, TrainingError
from ..core.timeutil import DAY
from ..obs.metrics import CacheInfo
from ..obs.runtime import get_observability
from ..twitter.names import digit_fraction
from .features import FeatureSet
from .forest import RandomForest
from .training import TrainedDetector
from .tree import DecisionTree


def _import_numpy():
    """Resolve NumPy, or ``None`` when the import fails.

    The single seam the fallback path hangs on: tests monkeypatch this
    to simulate a NumPy-less host, and :func:`batch_classifier` turns
    ``None`` into a silent scalar fallback.
    """
    try:
        import numpy
    except ImportError:  # pragma: no cover - the substrate bundles numpy
        return None
    return numpy


def numpy_available() -> bool:
    """Whether the columnar fast path can run at all."""
    return _import_numpy() is not None


# ---------------------------------------------------------------------------
# Columnar feature extraction
# ---------------------------------------------------------------------------

#: One attribute sweep per user gathers every raw profile column.
_PROFILE_FIELDS = operator.attrgetter(
    "followers_count", "friends_count", "statuses_count", "created_at",
    "last_status_at", "description", "location", "url", "name",
    "default_profile_image", "screen_name")

#: Column of each class-B feature in
#: :class:`~repro.api.columns.TimelineStatColumns`.
_TIMELINE_FRACTION_INDEX = {
    "retweet_fraction": 0,
    "link_fraction": 1,
    "spam_fraction": 2,
    "mention_fraction": 3,
    "hashtag_fraction": 4,
    "automation_fraction": 5,
    "duplicate_fraction": 6,
}


class _ExtractContext:
    """Raw profile columns plus lazily-derived shared arrays."""

    def __init__(self, np, users, timelines, now: float) -> None:
        self.np = np
        self.users = users
        self.timelines = timelines
        self.now = now
        profile_columns = getattr(users, "profile_columns", None)
        if profile_columns is not None:
            # Columnar-substrate batches (e.g. UserRowBlock) hand over
            # ready-made attribute columns; values equal what the
            # per-object sweep below would have read, so downstream
            # feature math is unchanged.
            columns = profile_columns()
        else:
            rows = [_PROFILE_FIELDS(user) for user in users]
            columns = tuple(list(column) for column in zip(*rows))
        (self.followers, self.friends, self.statuses, self.created_at,
         self.last_status_at, self.descriptions, self.locations, self.urls,
         self.names, self.default_images, self.screen_names) = columns
        self._age_days = None
        self._fractions = None

    @property
    def age_days(self):
        """``max(0, now - created_at) / DAY`` — shared by three columns."""
        if self._age_days is None:
            np = self.np
            created = np.array(self.created_at, dtype=np.float64)
            self._age_days = np.maximum(0.0, self.now - created) / DAY
        return self._age_days

    @property
    def fractions(self):
        """Class-B fraction columns from the timelines' flag and key
        columns (computed once, lazily)."""
        if self._fractions is None:
            if self.timelines is None or any(
                    timeline is None for timeline in self.timelines):
                raise ConfigurationError(
                    "class-B features need timelines (cost class B)")
            self._fractions = timeline_stat_columns(self.np, self.timelines)
        return self._fractions

    def fraction_column(self, index: int):
        return self.fractions.column(index)


# Log-count columns stay per-element ``math.log1p`` calls: the scalar
# extractors use ``math.log1p`` and this NumPy build's ``np.log1p``
# differs by 1 ULP on some inputs, which would break bit-parity.

def _col_log_followers(ctx):
    # ``v if v > 0.0 else 0.0`` is ``max(0.0, v)`` without the builtin
    # call — identical result, measurably faster over 10k rows.
    return ctx.np.array([math.log1p(value if value > 0.0 else 0.0)
                         for value in ctx.followers], dtype=ctx.np.float64)


def _col_log_friends(ctx):
    return ctx.np.array([math.log1p(value if value > 0.0 else 0.0)
                         for value in ctx.friends], dtype=ctx.np.float64)


def _col_log_statuses(ctx):
    return ctx.np.array([math.log1p(value if value > 0.0 else 0.0)
                         for value in ctx.statuses], dtype=ctx.np.float64)


def _col_log_ff_ratio(ctx):
    # Mirrors UserObject.friends_followers_ratio() then _log1p_count.
    return ctx.np.array(
        [math.log1p(ratio if ratio > 0.0 else 0.0)
         for ratio in (float(friends) if followers == 0
                       else friends / followers
                       for friends, followers in zip(ctx.friends,
                                                     ctx.followers))],
        dtype=ctx.np.float64)


def _col_age_days(ctx):
    return ctx.age_days


def _col_tweets_per_day(ctx):
    np = ctx.np
    statuses = np.array(ctx.statuses, dtype=np.float64)
    return statuses / np.maximum(ctx.age_days, 1.0)


def _col_followers_per_day(ctx):
    np = ctx.np
    followers = np.array(ctx.followers, dtype=np.float64)
    return followers / np.maximum(ctx.age_days, 1.0)


def _col_has_bio(ctx):
    return ctx.np.array([1.0 if text.strip() else 0.0
                         for text in ctx.descriptions], dtype=ctx.np.float64)


def _col_has_location(ctx):
    return ctx.np.array([1.0 if text.strip() else 0.0
                         for text in ctx.locations], dtype=ctx.np.float64)


def _col_has_url(ctx):
    return ctx.np.array([1.0 if text.strip() else 0.0
                         for text in ctx.urls], dtype=ctx.np.float64)


def _col_has_name(ctx):
    return ctx.np.array([1.0 if text.strip() else 0.0
                         for text in ctx.names], dtype=ctx.np.float64)


def _col_default_image(ctx):
    return ctx.np.array([1.0 if flag else 0.0
                         for flag in ctx.default_images],
                        dtype=ctx.np.float64)


def _col_last_status_age_days(ctx):
    np = ctx.np
    last = np.array([np.nan if value is None else value
                     for value in ctx.last_status_at], dtype=np.float64)
    age = np.maximum(0.0, ctx.now - last) / DAY
    return np.where(np.isnan(last), 10_000.0, age)


def _col_name_digit_fraction(ctx):
    # For ASCII strings ``str.isdigit`` is true exactly for '0'-'9', so
    # the whole column reduces to one byte-level sweep: join the names,
    # mark digit bytes, and difference a running count at the name
    # boundaries.  ``int64 / int64`` division is correctly rounded just
    # like Python's ``count / len``, so the fractions stay bit-identical
    # to the scalar ``digit_fraction``.  Unicode digit classes differ
    # from ASCII, so any non-ASCII name sends the column down the
    # scalar path untouched.
    np = ctx.np
    names = ctx.screen_names
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
    # max(len, 1) only shields the empty-name division: its count is 0,
    # reproducing the scalar's explicit 0.0.
    return counts / np.maximum(lengths, 1)


def _col_name_length(ctx):
    return ctx.np.array([float(len(name)) for name in ctx.screen_names],
                        dtype=ctx.np.float64)


_COLUMN_BUILDERS = {
    "log_followers": _col_log_followers,
    "log_friends": _col_log_friends,
    "log_statuses": _col_log_statuses,
    "log_ff_ratio": _col_log_ff_ratio,
    "age_days": _col_age_days,
    "tweets_per_day": _col_tweets_per_day,
    "followers_per_day": _col_followers_per_day,
    "has_bio": _col_has_bio,
    "has_location": _col_has_location,
    "has_url": _col_has_url,
    "has_name": _col_has_name,
    "default_image": _col_default_image,
    "last_status_age_days": _col_last_status_age_days,
    "name_digit_fraction": _col_name_digit_fraction,
    "name_length": _col_name_length,
}


def _build_column(ctx, feature):
    """One feature's column: vectorized builder, timeline fraction, or
    — for features this module has never heard of — the scalar
    extractor applied row by row (slow but always semantically right).
    """
    builder = _COLUMN_BUILDERS.get(feature.name)
    if builder is not None:
        return builder(ctx)
    index = _TIMELINE_FRACTION_INDEX.get(feature.name)
    if index is not None:
        return ctx.fraction_column(index)
    timelines = (ctx.timelines if ctx.timelines is not None
                 else [None] * len(ctx.users))
    return ctx.np.array(
        [feature(user, timeline, ctx.now)
         for user, timeline in zip(ctx.users, timelines)],
        dtype=ctx.np.float64)


def extract_feature_matrix(np, feature_set: FeatureSet, users,
                           timelines, now: float):
    """Columnar twin of :meth:`FeatureSet.extract_matrix`, bit-identical.

    Builds the whole design matrix column by column over one attribute
    sweep of the profiles (class-B features from the timelines' flag
    and body-key columns) instead of dispatching every feature per row.
    """
    if timelines is not None and len(timelines) != len(users):
        raise ConfigurationError("users and timelines length mismatch")
    features = feature_set.features
    if not users:
        return np.empty((0, len(features)), dtype=np.float64)
    ctx = _ExtractContext(np, users, timelines, now)
    matrix = np.empty((len(users), len(features)), dtype=np.float64)
    for column, feature in enumerate(features):
        matrix[:, column] = _build_column(ctx, feature)
    return matrix


# ---------------------------------------------------------------------------
# Batch tree / forest inference
# ---------------------------------------------------------------------------

class FlatTree:
    """A fitted :class:`DecisionTree` as arrays, descended level-wise.

    Every row starts at the root and every step advances *all* rows by
    one level at once (``X[rows, feature] <= threshold`` picks
    left/right), so a depth-8 tree classifies any number of rows in
    exactly 8 vectorized steps.  Rows that reach a leaf early simply
    self-loop: leaves are rewritten at construction to compare feature
    0 against ``+inf`` and route both branches back to themselves,
    which removes all per-level masking from the hot loop.  The
    comparisons at internal nodes are the same float64 values against
    the same thresholds as the scalar ``_descend``, so every row lands
    on the same leaf.
    """

    def __init__(self, np, tree: DecisionTree) -> None:
        flat = tree.flatten()
        self._np = np
        self.n_features = tree.n_features
        self.feature = np.array(flat["feature"], dtype=np.int64)
        self.threshold = np.array(flat["threshold"], dtype=np.float64)
        self.probability = np.array(flat["probability"], dtype=np.float64)
        self.prediction = np.array(flat["prediction"], dtype=np.int64)
        self.left = np.array(flat["left"], dtype=np.int64)
        self.right = np.array(flat["right"], dtype=np.int64)
        is_leaf = self.feature < 0
        nodes = np.arange(len(self.feature), dtype=np.int64)
        self._step_feature = np.where(is_leaf, 0, self.feature)
        self._step_threshold = np.where(is_leaf, np.inf, self.threshold)
        self._step_left = np.where(is_leaf, nodes, self.left)
        self._step_right = np.where(is_leaf, nodes, self.right)
        self._depth = self._max_depth(flat["feature"], flat["left"],
                                      flat["right"])

    @staticmethod
    def _max_depth(feature, left, right) -> int:
        """Longest root-to-leaf path — the step count ``leaves`` needs."""
        depth = 0
        stack = [(0, 0)]
        while stack:
            node, level = stack.pop()
            if feature[node] < 0:
                depth = max(depth, level)
            else:
                stack.append((left[node], level + 1))
                stack.append((right[node], level + 1))
        return depth

    def leaves(self, X):
        """The leaf index each row of ``X`` lands on."""
        np = self._np
        nodes = np.zeros(X.shape[0], dtype=np.int64)
        rows = np.arange(X.shape[0])
        for _ in range(self._depth):
            go_left = (X[rows, self._step_feature[nodes]]
                       <= self._step_threshold[nodes])
            nodes = np.where(go_left, self._step_left[nodes],
                             self._step_right[nodes])
        return nodes

    def predict_proba(self, X):
        """Leaf-frequency fake probability per row."""
        return self.probability[self.leaves(X)]

    def predict(self, X):
        """0/1 fake verdict per row."""
        return self.prediction[self.leaves(X)]


class FlatForest:
    """Every member tree flattened; the same bagged mean as the scalar.

    ``vstack(per-tree probabilities).mean(axis=0)`` reproduces
    :meth:`RandomForest.predict_proba` operation for operation, so the
    ensemble probability (and the ``>= 0.5`` verdict) is bit-identical.
    """

    def __init__(self, np, forest: RandomForest) -> None:
        self._np = np
        trees = forest.trees
        if not trees:
            raise TrainingError("forest is not fitted")
        self._trees = [FlatTree(np, tree) for tree in trees]
        self.n_features = forest.n_features

    def predict_proba(self, X):
        """Mean fake probability across trees, per row."""
        np = self._np
        votes = np.vstack([tree.predict_proba(X) for tree in self._trees])
        return votes.mean(axis=0)

    def predict(self, X):
        """Majority-vote 0/1 verdict per row."""
        return (self.predict_proba(X) >= 0.5).astype(self._np.int64)


# ---------------------------------------------------------------------------
# Feature cache
# ---------------------------------------------------------------------------

class FeatureCache:
    """Per-account feature rows, keyed ``(account_id, as_of, fingerprint)``.

    The observation epoch in the key is what makes sharing sound: a
    batch pins every audit to one ``as_of``, so a cached row equals a
    recomputed one exactly.  Rows are stored as read-only float64
    arrays, safe to hand to many matrices.  ``max_entries`` bounds
    engine-local caches LRU-style (the scheduler-shared instance is
    cleared per batch instead); the ``fc_feature_cache_hits_total``
    counter is created lazily on the first hit so runs that never hit
    keep their metric expositions byte-identical.
    """

    def __init__(self, name: str = "fc-features",
                 max_entries: Optional[int] = 50_000) -> None:
        if max_entries is not None and max_entries < 1:
            raise ConfigurationError(
                f"max_entries must be >= 1 or None: {max_entries!r}")
        self._name = name
        self._max_entries = max_entries
        self._entries: "OrderedDict[Tuple[int, float, str], object]" = \
            OrderedDict()
        #: Lookup outcomes since construction, as plain ints so
        #: ``cache_info()`` works with observability off.
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        obs = get_observability()
        self._registry = obs.registry
        self._hit_counter = None
        obs.register_cache(self)

    def get(self, account_id: int, as_of: float, fingerprint: str):
        """The cached feature row, or ``None``."""
        key = (account_id, as_of, fingerprint)
        row = self._entries.get(key)
        if row is None:
            self.misses += 1
            return None
        self._entries.move_to_end(key)
        self.hits += 1
        if self._hit_counter is None:
            self._hit_counter = self._registry.counter(
                "fc_feature_cache_hits_total",
                help="feature rows served from the FC feature cache",
                cache=self._name)
        self._hit_counter.inc()
        return row

    def put(self, account_id: int, as_of: float, fingerprint: str,
            row) -> None:
        """Store one feature row (kept read-only)."""
        key = (account_id, as_of, fingerprint)
        self._entries[key] = row
        self._entries.move_to_end(key)
        while (self._max_entries is not None
               and len(self._entries) > self._max_entries):
            self._entries.popitem(last=False)
            self.evictions += 1

    def clear(self) -> None:
        """Drop every row (a new batch pins a new observation epoch)."""
        self._entries.clear()

    def size(self) -> int:
        """Live row count."""
        return len(self._entries)

    def cache_info(self) -> CacheInfo:
        """The uniform snapshot shape shared with the result caches."""
        return CacheInfo(name=self._name, hits=self.hits,
                         misses=self.misses, evictions=self.evictions,
                         size=len(self._entries))


# ---------------------------------------------------------------------------
# The batch classifier the engine plugs in
# ---------------------------------------------------------------------------

class BatchClassifier:
    """Columnar drop-in for :meth:`TrainedDetector.predict`.

    Same signature, same verdicts, a fraction of the wall clock:
    features come from :func:`extract_feature_matrix` (through the
    :class:`FeatureCache` when one is attached), inference from a
    :class:`FlatTree`/:class:`FlatForest`.  Both stages are wrapped in
    obs spans (``fc.batch_extract`` / ``fc.batch_infer``) — zero
    simulated duration, but they carry row counts and land in traces.
    """

    def __init__(self, np, detector: TrainedDetector, model, *,
                 feature_cache: Optional[FeatureCache] = None,
                 clock=None) -> None:
        self._np = np
        self._detector = detector
        self._feature_set = detector.feature_set
        self._fingerprint = detector.feature_set.fingerprint()
        self._model = model
        self._cache = feature_cache
        self._clock = clock
        self._tracer = get_observability().tracer

    @property
    def feature_cache(self) -> Optional[FeatureCache]:
        """The attached feature cache (``None`` = caching off)."""
        return self._cache

    def use_cache(self, cache: Optional[FeatureCache]) -> None:
        """Attach (or detach, with ``None``) a feature cache."""
        self._cache = cache

    def matrix(self, users, timelines, now: float):
        """The design matrix for ``users``, cached rows included."""
        with self._tracer.span("fc.batch_extract", self._clock,
                               rows=len(users)):
            return self._matrix(users, timelines, now)

    def _matrix(self, users, timelines, now: float):
        np = self._np
        if self._cache is None:
            return extract_feature_matrix(
                np, self._feature_set, users, timelines, now)
        rows: List[object] = [None] * len(users)
        missing: List[int] = []
        for index, user in enumerate(users):
            row = self._cache.get(user.user_id, now, self._fingerprint)
            if row is None:
                missing.append(index)
            else:
                rows[index] = row
        if missing:
            sub_users = [users[index] for index in missing]
            sub_timelines = ([timelines[index] for index in missing]
                             if timelines is not None else None)
            fresh = extract_feature_matrix(
                np, self._feature_set, sub_users, sub_timelines, now)
            for position, index in enumerate(missing):
                row = fresh[position].copy()
                row.flags.writeable = False
                self._cache.put(users[index].user_id, now,
                                self._fingerprint, row)
                rows[index] = row
        if not rows:
            return np.empty((0, len(self._feature_set.features)),
                            dtype=np.float64)
        return np.vstack(rows)

    def predict(self, users, timelines, now: float):
        """0/1 fake verdicts for each user (scalar-identical)."""
        if not users:
            return self._np.empty(0, dtype=self._np.int64)
        X = self.matrix(users, timelines, now)
        with self._tracer.span("fc.batch_infer", self._clock,
                               rows=len(users)):
            return self._model.predict(X)

    def predict_proba(self, users, timelines, now: float):
        """Fake probability for each user (scalar-identical)."""
        if not users:
            return self._np.empty(0, dtype=self._np.float64)
        X = self.matrix(users, timelines, now)
        with self._tracer.span("fc.batch_infer", self._clock,
                               rows=len(users)):
            return self._model.predict_proba(X)


def batch_classifier(detector: TrainedDetector, *,
                     feature_cache: Optional[FeatureCache] = None,
                     clock=None) -> Optional[BatchClassifier]:
    """Build the columnar classifier for ``detector``, or ``None``.

    ``None`` means "use the scalar path": NumPy failed to import, the
    underlying model is not a known tree/forest, or the model is
    unfitted.  Callers treat it as an automatic, silent fallback.
    """
    np = _import_numpy()
    if np is None:
        return None
    model = detector.model
    try:
        if isinstance(model, RandomForest):
            flat = FlatForest(np, model)
        elif isinstance(model, DecisionTree):
            flat = FlatTree(np, model)
        else:
            return None
    except TrainingError:
        return None
    return BatchClassifier(np, detector, flat,
                           feature_cache=feature_cache, clock=clock)
