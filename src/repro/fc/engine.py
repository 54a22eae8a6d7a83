"""The Fake Project classifier engine (paper, Section III).

By contrast to the surveyed commercial tools, the FC engine:

* fetches the target's **whole** follower list and samples **uniformly
  at random** from it — no head-of-list bias;
* uses a fixed sample of **9604** followers, "to guarantee a confidence
  level of 95 %, with a confidence interval of 1 %";
* applies **disclosed** criteria: the rule-based inactivity definition
  (never tweeted, or last tweet older than 90 days) followed by a
  classifier trained on a gold standard of a-priori-known accounts;
* performs no result caching — its response time is always the honest
  acquisition cost (> 180 s in Table II).
"""

from __future__ import annotations

from functools import partial
from typing import Callable, Optional

import numpy as np

from ..analytics.base import AuditEngine, sample_timelines
from ..api.columns import Criteria, SampleBlock, VerdictArray
from ..core.clock import SimClock
from ..core.errors import ConfigurationError
from ..core.rng import make_rng
from ..core.timeutil import DAY
from ..faults.plan import FaultPlan
from ..faults.retry import RetryPolicy
from ..stats.estimation import ProportionEstimate
from ..twitter.population import SyntheticWorld
from .columnar import BatchClassifier, FeatureCache, batch_classifier
from .dataset import build_gold_standard
from .training import TrainedDetector, train_detector

#: The statistically mandated sample size (95 % confidence, ±1 %).
FC_SAMPLE_SIZE = 9604

#: The engine's inactivity horizon (paper, Section III).
FC_INACTIVITY_HORIZON = 90 * DAY


def default_detector(seed: int = 0, *, model: str = "forest",
                     gold_size: int = 400) -> TrainedDetector:
    """Train the production FC detector.

    A profile-feature (class A) model trained on a persona gold
    standard: class-A features are what make the engine's sub-4-minute
    audits possible (see ``repro.fc.cost``).  A class-A detector never
    reads timelines, so the gold standard is built without them.
    """
    gold = build_gold_standard(
        n_fake=gold_size, n_genuine=gold_size, seed=seed + 7919,
        timeline_depth=0)
    return train_detector(gold, model=model, seed=seed)


class DetectorCriteria(Criteria):
    """The FC pipeline as batch criteria: inactivity rule + detector.

    Puts the FC engine on the same
    :class:`~repro.analytics.criteria.Criteria` contract as the
    rule-based engines.  ``classify_block`` replicates the engine's
    published flow over one :class:`~repro.api.columns.SampleBlock` —
    partition by the 90-day inactivity horizon (one mask), then one
    bulk prediction over the view's active rows through the columnar
    :class:`~repro.fc.columnar.BatchClassifier`, which is built on
    first use with a feature cache from ``feature_cache`` (a zero-arg
    factory).
    """

    labels = ("fake", "inactive", "genuine")
    #: The pipeline's two decision stages as provenance rules: the
    #: 90-day horizon partition, then the trained classifier's fake
    #: call on the active partition.
    rule_ids = ("fc.inactive_90d", "fc.classifier_fake")

    def __init__(self, detector: TrainedDetector,
                 horizon: float = FC_INACTIVITY_HORIZON, *,
                 feature_cache: Callable[[], FeatureCache] = FeatureCache,
                 clock=None) -> None:
        self._detector = detector
        self._horizon = horizon
        self._feature_cache = feature_cache
        self._clock = clock
        self._classifier: Optional[BatchClassifier] = None

    @property
    def name(self) -> str:
        """The underlying detector's identifier (the criteria id)."""
        return self._detector.name

    @property
    def needs_timeline(self) -> bool:
        """Whether the detector reads timelines (class-B features)."""
        return self._detector.needs_timeline

    @property
    def classifier(self) -> BatchClassifier:
        """The columnar classifier, built on the first classification."""
        if self._classifier is None:
            self._classifier = batch_classifier(
                self._detector, feature_cache=self._feature_cache(),
                clock=self._clock)
        return self._classifier

    def classify_block(self, block: SampleBlock, now: float,
                       sink=None) -> VerdictArray:
        """Whole-sample verdicts: horizon partition + one bulk predict.

        Provenance is derived from the final ``codes``, after
        prediction: the ``sink`` masks mark the two decision stages.
        """
        # NaN (never tweeted) compares False: never-tweeted is inactive.
        active = np.flatnonzero(block.last_status_age(now) <= self._horizon)
        predicted = self.classifier.predict_block(block.take(active), now)
        codes = np.ones(len(block), dtype=np.int64)
        codes[active] = np.where(predicted != 0, 0, 2)
        if sink is not None:
            sink.add("fc.inactive_90d", codes == 1)
            sink.add("fc.classifier_fake", codes == 0)
        return VerdictArray(labels=self.labels, codes=codes)


class FakeClassifierEngine(AuditEngine):
    """The FC engine: sound sampling + disclosed, validated criteria.

    What is FC's own is the frame, the sample, the criteria and the
    absence of result caching (the module docstring); the
    :class:`~repro.analytics.base.AuditEngine` skeleton does the rest.
    """

    name = "fc"
    reports_inactive = True
    PROCESSING_SECONDS = 2.0

    def __init__(self, world: SyntheticWorld, clock: SimClock,
                 detector: Optional[TrainedDetector] = None, *,
                 sample_size: int = FC_SAMPLE_SIZE,
                 request_latency: float = 1.9,
                 faults: Optional[FaultPlan] = None,
                 retry: Optional[RetryPolicy] = None,
                 acquisition_cache=None,
                 provenance=None,
                 seed: int = 0) -> None:
        if sample_size < 1:
            raise ConfigurationError(f"sample_size must be >= 1: {sample_size!r}")
        super().__init__(world, clock, request_latency=request_latency,
                         faults=faults, retry=retry,
                         acquisition_cache=acquisition_cache,
                         provenance=provenance, seed=seed)
        self._detector = detector if detector is not None else default_detector(seed)
        feature_cache = FeatureCache
        if acquisition_cache is not None and hasattr(acquisition_cache,
                                                     "feature_cache"):
            # Scheduler lanes share one feature cache per batch.
            feature_cache = partial(acquisition_cache.feature_cache,
                                    FeatureCache)
        self._criteria = DetectorCriteria(
            self._detector, feature_cache=feature_cache, clock=clock)
        self._sample_size = sample_size

    @property
    def detector(self) -> TrainedDetector:
        """The trained fake-vs-genuine detector in use."""
        return self._detector

    @property
    def sample_size(self) -> int:
        """The fixed uniform sample size (9604 by default)."""
        return self._sample_size

    @property
    def frame_policy(self) -> str:
        """The sampling frame: a uniform sample of the whole list."""
        return (f"uniform sample of {self._sample_size} "
                "over the full follower list")

    def _analyze_steps(self, screen_name: str):
        """Whole-list crawl, uniform sample, horizon rule + detector.

        The whole follower id list is paged in first (this, plus the 97
        profile lookups for the 9604-strong sample, is why FC's response
        time is "always greater than 180 seconds", Table II), then the
        uniform sample is classified three ways.
        """
        # The audit index is drawn before users/show, so an audit
        # that degrades there still uses one up.
        rng = make_rng(self._seed, "fc-sample", self._audit_index())
        faults_before = self._client.faults_seen
        target = self._client.users_show(screen_name=screen_name)
        yield
        follower_ids = self._crawler.fetch_all_follower_ids(screen_name)
        population = len(follower_ids)
        if population == 0 and self._client.faults_seen > faults_before:
            # The crawl degraded to nothing: an empty, degraded answer.
            self._last_completeness = 0.0
            return self._outcome(target.followers_count, {},
                                 {"degraded": "empty follower crawl"})
        yield

        n = min(self._sample_size, population)
        if n < population:
            indices = rng.sample(range(population), n)
            sampled_ids = [follower_ids[i] for i in sorted(indices)]
        else:
            sampled_ids = list(follower_ids)
        users = self._crawler.lookup_users_block(sampled_ids)
        timelines, fetched = yield from sample_timelines(
            self._crawler, self._criteria, users)
        counts = self._classify_sample(users, timelines).counts()
        # Frame completeness (how much of the follower list was paged
        # in) times sample completeness (how much of the intended
        # uniform sample resolved to profiles) times timeline
        # completeness (how many sampled timelines actually fetched).
        frame_part = (min(1.0, population / target.followers_count)
                      if target.followers_count > 0 else 1.0)
        sample_part = min(1.0, len(users) / n) if n > 0 else 1.0
        self._last_completeness = frame_part * sample_part * fetched

        def interval(positives: int) -> Optional[tuple]:
            """95% Wald CI for one class share, as percentages (``None``
            without a sample to estimate from)."""
            if not users:
                return None
            low, high = ProportionEstimate(
                positives, len(users)).wald_interval(0.95)
            return round(100.0 * low, 1), round(100.0 * high, 1)
        return self._outcome(target.followers_count, counts, {
            "population": population,
            "detector": self._detector.name,
            "fake_ci95": interval(counts["fake"]),
            "inactive_ci95": interval(counts["inactive"]),
            "genuine_ci95": interval(counts["genuine"]),
            "sampling": "uniform over the whole follower list",
            "confidence": "95% +/- 1%" if n >= FC_SAMPLE_SIZE else
                          f"census of all {population} followers"
                          if n == population else "reduced sample",
            "engine": self.info().as_dict(),
        })

    def _shares(self, counts, total):
        """Fake and inactive rounded on their own, genuine the rest."""
        fake_pct = round(100.0 * counts["fake"] / total, 1)
        inactive_pct = round(100.0 * counts["inactive"] / total, 1)
        return (fake_pct, round(100.0 - fake_pct - inactive_pct, 1),
                inactive_pct)
