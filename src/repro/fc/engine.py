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

from typing import Optional, Union

from ..api.client import TwitterApiClient
from ..api.crawler import TIMELINE_PAGE, Crawler
from ..audit import AuditReport, AuditRequest, coerce_request, drain_steps
from ..core.clock import SimClock, Stopwatch
from ..core.errors import ConfigurationError, RetryableApiError
from ..core.rng import make_rng
from ..core.timeutil import DAY
from ..faults.plan import FaultPlan
from ..faults.retry import RetryPolicy
from ..obs.runtime import get_observability
from ..stats.estimation import ProportionEstimate
from ..twitter.population import World
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
    audits possible (see ``repro.fc.cost``).
    """
    gold = build_gold_standard(
        n_fake=gold_size, n_genuine=gold_size, seed=seed + 7919)
    return train_detector(gold, model=model, seed=seed)


class DetectorCriteria:
    """The FC pipeline as batch criteria: inactivity rule + detector.

    The adapter that puts the FC engine on the same
    :class:`~repro.analytics.criteria.Criteria` protocol as the
    rule-based engines.  ``classify_all`` replicates the engine's
    historical flow exactly — partition by the 90-day inactivity
    horizon, then one bulk ``predict`` over the active accounts — with
    the prediction function injectable so the engine can route it
    through its columnar :class:`~repro.fc.columnar.BatchClassifier`.
    Imports of :mod:`repro.analytics.criteria` are deferred: the
    analytics package imports this package at module load.
    """

    labels = ("fake", "inactive", "genuine")
    #: The engine's columnar path lives in the batch classifier rather
    #: than a mask pipeline, but the capability fact is the same.
    batch_capable = True
    #: The pipeline's two decision stages as provenance rules: the
    #: 90-day horizon partition, then the trained classifier's fake
    #: call on the active partition.
    rule_ids = ("fc.inactive_90d", "fc.classifier_fake")

    def __init__(self, detector: TrainedDetector,
                 horizon: float = FC_INACTIVITY_HORIZON) -> None:
        self._detector = detector
        self._horizon = horizon

    @property
    def name(self) -> str:
        """The underlying detector's identifier (the criteria id)."""
        return self._detector.name

    @property
    def needs_timeline(self) -> bool:
        """Whether the detector reads timelines (class-B features)."""
        return self._detector.needs_timeline

    def classify(self, user, timeline, now: float) -> str:
        """Three-way verdict for one account (inactivity rule first)."""
        age = user.last_status_age(now)
        if age is None or age > self._horizon:
            return "inactive"
        verdict = self._detector.predict(
            [user], [timeline] if timeline is not None else None, now)
        return "fake" if int(verdict[0]) else "genuine"

    def explain(self, user, timeline, now: float):
        """One account's verdict plus the decision-stage rules."""
        label = self.classify(user, timeline, now)
        if label == "inactive":
            return label, ("fc.inactive_90d",)
        if label == "fake":
            return label, ("fc.classifier_fake",)
        return label, ()

    def classify_all(self, users, timelines, now: float, *, predict=None,
                     sink=None):
        """Whole-sample verdicts: horizon partition + one bulk predict.

        ``predict`` substitutes the prediction function (the engine
        passes its columnar batch classifier's); ``None`` uses the
        detector's scalar ``predict``.  Both scalar and columnar
        invocations funnel through this one method, so provenance is
        path-invariant by construction: the ``sink`` masks are derived
        from the final ``codes``, after prediction.
        """
        from ..analytics.criteria import VerdictArray  # deferred: cycle

        if predict is None:
            predict = self._detector.predict
        codes = [1] * len(users)
        active_indices = []
        active_users = []
        active_timelines = []
        for index, user in enumerate(users):
            age = user.last_status_age(now)
            if age is None or age > self._horizon:
                continue
            active_indices.append(index)
            active_users.append(user)
            if timelines is not None:
                active_timelines.append(timelines[index])
        verdicts = predict(
            active_users,
            active_timelines if timelines is not None else None,
            now,
        )
        for slot, index in enumerate(active_indices):
            codes[index] = 0 if int(verdicts[slot]) else 2
        if sink is not None:
            sink.add("fc.inactive_90d", [code == 1 for code in codes])
            sink.add("fc.classifier_fake", [code == 0 for code in codes])
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
                 batch: Union[bool, str] = "auto",
                 provenance=None,
                 seed: int = 0) -> None:
        if sample_size < 1:
            raise ConfigurationError(f"sample_size must be >= 1: {sample_size!r}")
        if batch not in (True, False, "auto"):
            raise ConfigurationError(
                f"batch must be True, False or 'auto': {batch!r}")
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
        self._obs = get_observability()
        self._tracer = self._obs.tracer
        self._detector = detector if detector is not None else default_detector(seed)
        self._criteria = DetectorCriteria(self._detector)
        self._sample_size = sample_size
        self._processing_seconds = processing_seconds
        self._seed = seed
        self._audit_counter = 0
        self._acquisition_cache = acquisition_cache
        self._batch_mode = batch
        self._batch_classifier = None
        self._batch_resolved = False
        self._provenance = provenance
        #: Raw verdict counts of the most recent classification (full
        #: audit or ad-hoc :meth:`classify_sample`); the delta auditor
        #: reads these to seed a watermark, since reports only carry
        #: rounded percentages.
        self.last_verdict_counts = None
        self._obs.register_engine(self)

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

    def _batch(self):
        """The columnar classifier, or ``None`` for the scalar path.

        Resolved lazily on the first classification so a NumPy-less
        host (or ``batch=False``) costs nothing.  ``batch=True`` and
        ``batch="auto"`` both fall back silently to the scalar path
        when the columnar module cannot run — the verdicts are
        identical either way, only the wall clock differs.
        """
        if not self._batch_resolved:
            self._batch_resolved = True
            if self._batch_mode is not False:
                from .columnar import FeatureCache, batch_classifier
                classifier = batch_classifier(
                    self._detector, clock=self._clock)
                if classifier is not None:
                    acq = self._acquisition_cache
                    if acq is not None and hasattr(acq, "feature_cache"):
                        classifier.use_cache(acq.feature_cache(FeatureCache))
                    else:
                        classifier.use_cache(FeatureCache())
                    self._batch_classifier = classifier
        return self._batch_classifier

    def batch_active(self) -> bool:
        """Whether classifications run on the columnar fast path."""
        return self._batch() is not None

    def classify_sample(self, users, timelines, now: float):
        """Classify an ad-hoc sample through the engine's verdict path.

        The delta auditor's entry point: the same criteria, the same
        columnar batch classifier and the same verdict-count
        bookkeeping as a full audit's classification phase, but the
        caller owns acquisition.  Returns the
        :class:`~repro.analytics.criteria.VerdictArray`; the raw
        counts land in :attr:`last_verdict_counts`.
        """
        classifier = self._batch()
        predict = (classifier.predict if classifier is not None
                   else self._detector.predict)
        verdicts = self._criteria.classify_all(
            users, timelines, now, predict=predict)
        counts = verdicts.counts()
        self.last_verdict_counts = dict(counts)
        if self._obs.enabled:
            self._obs.note_verdicts(self.name, counts)
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
        live = self._obs.live
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

        users = self._crawler.lookup_users(sampled_ids)
        timelines = None
        timeline_part = 1.0
        if self._detector.needs_timeline:
            yield
            by_id = self._crawler.fetch_timelines(
                [user.user_id for user in users], per_user=TIMELINE_PAGE)
            timelines = [by_id[user.user_id] for user in users]
            if users:
                timeline_part = (
                    1.0 - self._crawler.last_timeline_shortfall / len(users))

        pinned = self._client.observed_at
        now = pinned if pinned is not None else self._clock.now()
        classifier = self._batch()
        predict = (classifier.predict if classifier is not None
                   else self._detector.predict)
        sink = None
        if self._provenance is not None:
            from ..obs.provenance import ProvenanceSink
            sink = ProvenanceSink()
        verdicts = self._criteria.classify_all(
            users, timelines, now, predict=predict, sink=sink)
        provenance_record = None
        if sink is not None:
            provenance_record = self._provenance.record(
                self.name, screen_name, verdicts, sink,
                [user.user_id for user in users], now)
        counts = verdicts.counts()
        self.last_verdict_counts = dict(counts)
        if self._obs.enabled:
            self._obs.note_verdicts(self.name, counts)
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
        live = self._obs.live
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
