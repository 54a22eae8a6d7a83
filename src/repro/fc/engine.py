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

from ..api.client import TwitterApiClient
from ..api.columns import SampleBlock
from ..api.crawler import TIMELINE_PAGE, Crawler
from ..audit import AuditReport, AuditRequest, coerce_request, drain_steps
from ..core.clock import SimClock, Stopwatch
from ..core.errors import ConfigurationError, RetryableApiError
from ..core.rng import make_rng
from ..core.timeutil import DAY
from ..faults.plan import FaultPlan
from ..faults.retry import RetryPolicy
from ..obs.provenance import ProvenanceSink
from ..obs.runtime import get_observability, weak_observability
from ..stats.estimation import ProportionEstimate
from ..twitter.population import World
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


class DetectorCriteria:
    """The FC pipeline as batch criteria: inactivity rule + detector.

    The adapter that puts the FC engine on the same
    :class:`~repro.analytics.criteria.Criteria` protocol as the
    rule-based engines.  ``classify_all`` replicates the engine's
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

    def classify_all(self, users, timelines, now: float, sink=None):
        """Whole-sample verdicts: horizon partition + one bulk predict.

        Provenance is derived from the final ``codes``, after
        prediction: the ``sink`` masks mark the two decision stages.
        """
        from ..analytics.criteria import VerdictArray  # deferred: cycle

        view = SampleBlock(users, timelines)
        # NaN (never tweeted) compares False: never-tweeted is inactive.
        active = np.flatnonzero(view.last_status_age(now) <= self._horizon)
        predicted = self.classifier.predict_block(view.take(active), now)
        codes = np.ones(len(view), dtype=np.int64)
        codes[active] = np.where(predicted != 0, 0, 2)
        if sink is not None:
            sink.add("fc.inactive_90d", codes == 1)
            sink.add("fc.classifier_fake", codes == 0)
        return VerdictArray(labels=self.labels, codes=codes)


class FakeClassifierEngine:
    """The FC engine: sound sampling + disclosed, validated criteria."""

    name = "fc"
    reports_inactive = True

    def __init__(self, world: World, clock: SimClock,
                 detector: Optional[TrainedDetector] = None, *,
                 sample_size: int = FC_SAMPLE_SIZE,
                 request_latency: float = 1.9,
                 processing_seconds: float = 2.0,
                 faults: Optional[FaultPlan] = None,
                 retry: Optional[RetryPolicy] = None,
                 acquisition_cache=None,
                 provenance=None,
                 seed: int = 0) -> None:
        if sample_size < 1:
            raise ConfigurationError(f"sample_size must be >= 1: {sample_size!r}")
        self._clock = clock
        self._client = TwitterApiClient(
            world, clock,
            credentials=1, parallelism=1,
            request_latency=request_latency,
            faults=faults,
            retry=retry,
            acquisition_cache=acquisition_cache,
        )
        self._crawler = Crawler(self._client)
        obs = get_observability()
        self._obs = weak_observability(obs)
        self._tracer = obs.tracer
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
        self._processing_seconds = processing_seconds
        self._seed = seed
        self._audit_counter = 0
        self._provenance = provenance
        #: Raw verdict counts of the most recent classification (full
        #: audit or ad-hoc :meth:`classify_sample`); the delta auditor
        #: reads these to seed a watermark, since reports only carry
        #: rounded percentages.
        self.last_verdict_counts = None
        obs.register_engine(self)

    @property
    def client(self) -> TwitterApiClient:
        """The engine's (single-credential) API client."""
        return self._client

    @property
    def detector(self) -> TrainedDetector:
        """The trained fake-vs-genuine detector in use."""
        return self._detector

    @property
    def sample_size(self) -> int:
        """The fixed uniform sample size (9604 by default)."""
        return self._sample_size

    def classify_sample(self, users, timelines, now: float, sink=None):
        """Classify an ad-hoc sample through the engine's verdict path.

        The delta auditor's entry point, and the classification phase
        of a full audit: the same criteria, the same columnar batch
        classifier and the same verdict-count bookkeeping, but the
        caller owns acquisition.  Returns the
        :class:`~repro.analytics.criteria.VerdictArray`; the raw
        counts land in :attr:`last_verdict_counts`.
        """
        verdicts = self._criteria.classify_all(users, timelines, now,
                                               sink=sink)
        counts = verdicts.counts()
        self.last_verdict_counts = dict(counts)
        obs = self._obs()
        if obs.enabled:
            obs.note_verdicts(self.name, counts)
        return verdicts

    @property
    def criteria(self) -> DetectorCriteria:
        """The engine's classification criteria, on the batch protocol."""
        return self._criteria

    def info(self):
        """Structured engine metadata (batch-criteria API)."""
        from ..analytics.criteria import EngineInfo  # deferred: cycle

        return EngineInfo(
            name=self.name,
            frame_policy=(f"uniform sample of {self._sample_size} "
                          "over the full follower list"),
            criteria_id=self._criteria.name,
            reports_inactive=True,
            batch_capable=True,
        )

    def audit(self, request: AuditRequest) -> AuditReport:
        """Audit a target account.  Never served from cache.

        The whole follower id list is paged in first (this, plus the 97
        profile lookups for the 9604-strong sample, is why FC's response
        time is "always greater than 180 seconds", Table II), then the
        uniform sample is classified three ways.
        """
        request = coerce_request(request, engine_name=self.name)
        with self._tracer.span("audit", self._clock, tool=self.name,
                               target=request.target) as span:
            report = drain_steps(self._audit_steps(request))
            span.set_attribute("cached", False)
            span.set_attribute("fake_pct", report.fake_pct)
            span.set_attribute("genuine_pct", report.genuine_pct)
            if report.completeness < 1.0:
                span.set_attribute("completeness", report.completeness)
            return report

    def begin_audit(self, request: AuditRequest):
        """Start an audit and return its resumable step generator.

        Each ``next()`` runs one acquisition phase; the generator's
        ``StopIteration`` value is the finished :class:`AuditReport`.
        No ``audit`` span is opened here — a span held open across
        interleaved steps of many audits would corrupt trace nesting.
        """
        request = coerce_request(request, engine_name=self.name)
        return self._audit_steps(request)

    def _degraded_report(self, screen_name: str, stopwatch: Stopwatch,
                         errors_seen: int, followers_count: int,
                         reason: str) -> AuditReport:
        """The empty, degraded answer for an unrecoverable acquisition."""
        live = self._obs().live
        if live is not None:
            live.on_audit(self.name, self._clock.now(), cached=False,
                          completeness=0.0)
        return AuditReport(
            tool=self.name,
            target=screen_name,
            followers_count=followers_count,
            sample_size=0,
            fake_pct=0.0,
            genuine_pct=0.0,
            inactive_pct=0.0,
            response_seconds=stopwatch.elapsed(),
            cached=False,
            assessed_at=self._clock.now(),
            completeness=0.0,
            errors_seen=errors_seen,
            details={"degraded": reason},
        )

    def _audit_steps(self, request: AuditRequest):
        """The audit pipeline as a generator of acquisition phases."""
        screen_name = request.target
        self._client.pin_observation(request.as_of)
        self._client.reset_budgets()
        if request.audit_index is not None:
            audit_index = request.audit_index
        else:
            self._audit_counter += 1
            audit_index = self._audit_counter
        stopwatch = Stopwatch(self._clock)
        faults_before = self._client.faults_seen

        try:
            target = self._client.users_show(screen_name=screen_name)
        except RetryableApiError as error:
            return self._degraded_report(
                screen_name, stopwatch,
                self._client.faults_seen - faults_before,
                followers_count=0, reason=type(error).__name__)
        yield
        follower_ids = self._crawler.fetch_all_follower_ids(screen_name)
        population = len(follower_ids)
        if population == 0:
            if self._client.faults_seen > faults_before:
                # The crawl degraded to nothing; answer with an empty
                # report instead of a stack trace.
                return self._degraded_report(
                    screen_name, stopwatch,
                    self._client.faults_seen - faults_before,
                    followers_count=target.followers_count,
                    reason="empty follower crawl")
            raise ConfigurationError(
                f"{screen_name!r} has no followers to audit")
        yield

        n = min(self._sample_size, population)
        rng = make_rng(self._seed, "fc-sample", audit_index)
        if n < population:
            indices = rng.sample(range(population), n)
            sampled_ids = [follower_ids[i] for i in sorted(indices)]
        else:
            sampled_ids = list(follower_ids)

        users = self._crawler.lookup_users_block(sampled_ids)
        sample = SampleBlock(users)
        timelines = None
        timeline_part = 1.0
        if self._detector.needs_timeline:
            yield
            by_id = self._crawler.fetch_timelines(
                sample.user_ids, per_user=TIMELINE_PAGE)
            timelines = [by_id[user_id] for user_id in sample.user_ids]
            if users:
                timeline_part = (
                    1.0 - self._crawler.last_timeline_shortfall / len(users))

        pinned = self._client.observed_at
        now = pinned if pinned is not None else self._clock.now()
        sink = ProvenanceSink() if self._provenance is not None else None
        verdicts = self.classify_sample(users, timelines, now, sink=sink)
        provenance_record = None
        if sink is not None:
            provenance_record = self._provenance.record(
                self.name, screen_name, verdicts, sink,
                sample.user_ids, now)
        counts = verdicts.counts()
        fake = counts["fake"]
        inactive = counts["inactive"]
        genuine = counts["genuine"]

        with self._tracer.span("audit.classify", self._clock,
                               tool=self.name, target=screen_name):
            self._clock.advance(self._processing_seconds)
        total = max(1, len(users))
        fake_pct = round(100.0 * fake / total, 1)
        inactive_pct = round(100.0 * inactive / total, 1)
        genuine_pct = round(100.0 - fake_pct - inactive_pct, 1)

        def interval(positives: int) -> tuple:
            """95% Wald CI for one class share, as percentages."""
            low, high = ProportionEstimate(
                positives, total).wald_interval(0.95)
            return round(100.0 * low, 1), round(100.0 * high, 1)
        # Frame completeness (how much of the follower list was paged
        # in) times sample completeness (how much of the intended
        # uniform sample resolved to profiles) times timeline
        # completeness (how many sampled timelines actually fetched).
        frame_part = (min(1.0, population / target.followers_count)
                      if target.followers_count > 0 else 1.0)
        expected_sample = min(self._sample_size, population)
        sample_part = (min(1.0, len(users) / expected_sample)
                       if expected_sample > 0 else 1.0)
        live = self._obs().live
        if live is not None:
            live.on_audit(self.name, self._clock.now(), cached=False,
                          completeness=frame_part * sample_part
                          * timeline_part)
        return AuditReport(
            tool=self.name,
            target=screen_name,
            followers_count=target.followers_count,
            sample_size=len(users),
            fake_pct=fake_pct,
            genuine_pct=genuine_pct,
            inactive_pct=inactive_pct,
            response_seconds=stopwatch.elapsed(),
            cached=False,
            assessed_at=self._clock.now(),
            completeness=frame_part * sample_part * timeline_part,
            errors_seen=self._client.faults_seen - faults_before,
            details={
                "population": population,
                "detector": self._detector.name,
                "fake_ci95": interval(fake),
                "inactive_ci95": interval(inactive),
                "genuine_ci95": interval(genuine),
                "sampling": "uniform over the whole follower list",
                "confidence": "95% +/- 1%" if n >= FC_SAMPLE_SIZE else
                              f"census of all {population} followers"
                              if n == population else "reduced sample",
                "engine": self.info().as_dict(),
                **({"provenance": provenance_record.stats.as_dict()}
                   if provenance_record is not None else {}),
            },
        )
