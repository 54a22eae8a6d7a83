"""The FC engine's audit-time classifier: feature cache + obs spans.

The FC engine classifies a 9604-follower sample per audit (Section
III) through the detector's own columnar path --
:meth:`FeatureSet.extract_matrix <repro.fc.features.FeatureSet.extract_matrix>`
and the forest's one descent program.  This module adds only what an
audit needs on top of :meth:`TrainedDetector.predict`:

* :class:`FeatureCache` remembers per-account feature rows keyed by
  ``(account_id, as_of epoch, feature-set fingerprint)``, so repeated
  audits of overlapping follower sets under one pinned observation
  never recompute features -- shared across engines through the
  scheduler's :class:`~repro.sched.cache.AcquisitionCache`;
* :class:`BatchClassifier` wraps extraction and inference in the
  ``fc.batch_extract`` / ``fc.batch_infer`` obs spans.

A cached row is the row extraction would produce, so verdicts are
identical with the cache on or off.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import List, Optional, Tuple

import numpy as np

from ..api.columns import SampleBlock
from ..core.errors import ConfigurationError, TrainingError
from ..obs.metrics import CacheInfo
from ..obs.runtime import get_observability
from .forest import RandomForest
from .training import TrainedDetector
from .tree import DecisionTree


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
        self._entries: "OrderedDict[Tuple[int, float, str], np.ndarray]" = \
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
        return self.get_many([account_id], as_of, fingerprint)[0]

    def get_many(self, account_ids, as_of: float,
                 fingerprint: str) -> List[Optional[np.ndarray]]:
        """The cached row of each id (``None`` where absent), in order.

        Counts hits and misses and refreshes recency exactly as one
        :meth:`get` per id would.
        """
        entries = self._entries
        keys = [(account_id, as_of, fingerprint) for account_id in account_ids]
        rows = [entries.get(key) for key in keys]
        hits = 0
        for key, row in zip(keys, rows):
            if row is not None:
                entries.move_to_end(key)
                hits += 1
        self.misses += len(rows) - hits
        if hits:
            self.hits += hits
            if self._hit_counter is None:
                self._hit_counter = self._registry.counter(
                    "fc_feature_cache_hits_total",
                    help="feature rows served from the FC feature cache",
                    cache=self._name)
            self._hit_counter.inc(hits)
        return rows

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
    """:meth:`TrainedDetector.predict` with a feature cache and obs spans.

    Same signature, same verdicts: features come from
    :meth:`FeatureSet.extract_block <repro.fc.features.FeatureSet.extract_block>`
    over the sample's :class:`~repro.api.columns.SampleBlock` (through
    the :class:`FeatureCache`, keyed by the view's ``user_ids``, when
    one is attached), inference from the detector's fitted model;
    :meth:`predict_block` classifies a view the caller already built.
    Both stages are wrapped in obs spans (``fc.batch_extract`` /
    ``fc.batch_infer``) -- zero simulated duration, but they carry row
    counts and land in traces.
    """

    def __init__(self, detector: TrainedDetector, *,
                 feature_cache: Optional[FeatureCache] = None,
                 clock=None) -> None:
        self._feature_set = detector.feature_set
        self._fingerprint = detector.feature_set.fingerprint()
        self._model = detector.model
        self._cache = feature_cache
        self._clock = clock
        self._tracer = get_observability().tracer

    @property
    def feature_cache(self) -> Optional[FeatureCache]:
        """The attached feature cache (``None`` = caching off)."""
        return self._cache

    def matrix(self, view: SampleBlock, now: float) -> np.ndarray:
        """The design matrix of ``view``, cached rows included."""
        with self._tracer.span("fc.batch_extract", self._clock,
                               rows=len(view)):
            return self._matrix(view, now)

    def _matrix(self, view: SampleBlock, now: float) -> np.ndarray:
        if self._cache is None:
            return self._feature_set.extract_block(view, now)
        user_ids = view.user_ids
        rows = self._cache.get_many(user_ids, now, self._fingerprint)
        matrix = np.empty((len(rows), len(self._feature_set.features)),
                          dtype=np.float64)
        missing = []
        for index, row in enumerate(rows):
            if row is None:
                missing.append(index)
            else:
                matrix[index] = row
        if missing:
            # Every row missing is the delta census's common case: the
            # view itself is the selection.
            fresh = self._feature_set.extract_block(
                view if len(missing) == len(rows) else view.take(missing),
                now)
            fresh.flags.writeable = False
            matrix[missing] = fresh
            for position, index in enumerate(missing):
                self._cache.put(user_ids[index], now, self._fingerprint,
                                fresh[position])
        return matrix

    def predict_block(self, view: SampleBlock, now: float) -> np.ndarray:
        """0/1 fake verdicts for each row of ``view``."""
        if not len(view):
            return np.empty(0, dtype=np.int64)
        X = self.matrix(view, now)
        with self._tracer.span("fc.batch_infer", self._clock,
                               rows=len(view)):
            return self._model.predict(X)

    def predict(self, users, timelines, now: float) -> np.ndarray:
        """0/1 fake verdicts for each user."""
        return self.predict_block(SampleBlock(users, timelines), now)

    def predict_proba(self, users, timelines, now: float) -> np.ndarray:
        """Fake probability for each user."""
        view = SampleBlock(users, timelines)
        if not len(view):
            return np.empty(0, dtype=np.float64)
        X = self.matrix(view, now)
        with self._tracer.span("fc.batch_infer", self._clock,
                               rows=len(view)):
            return self._model.predict_proba(X)


def batch_classifier(detector: TrainedDetector, *,
                     feature_cache: Optional[FeatureCache] = None,
                     clock=None) -> BatchClassifier:
    """Build the audit-time classifier for ``detector``.

    Raises :class:`~repro.core.errors.ConfigurationError` when the
    underlying model is not a decision tree or random forest, and
    :class:`~repro.core.errors.TrainingError` when it is unfitted.
    """
    model = detector.model
    if not isinstance(model, (DecisionTree, RandomForest)):
        raise ConfigurationError(
            f"no columnar classifier for {type(model).__name__} models; "
            f"train a tree or forest")
    if not model.n_features:
        kind = "forest" if isinstance(model, RandomForest) else "tree"
        raise TrainingError(f"{kind} is not fitted")
    return BatchClassifier(detector, feature_cache=feature_cache,
                           clock=clock)
