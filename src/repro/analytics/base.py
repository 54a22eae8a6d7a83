"""Common machinery of the commercial fake-follower analytics.

Section II of the paper distils the workflow all three surveyed tools
share: resolve the target, collect a (head-of-list) batch of follower
names, sample within it, look up the sampled profiles, apply the tool's
proprietary criteria, and return fake/inactive/genuine percentages —
with aggressive *result caching*, which the response-time experiment
(Table II) exposes: cached audits answer in 2-5 s regardless of target
size.

:class:`CommercialAnalytic` implements that skeleton; each concrete
tool supplies its sampling configuration and its classification rules.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Sequence, Tuple

from ..api.client import TwitterApiClient
from ..api.crawler import TIMELINE_PAGE, Crawler
from ..api.endpoints import UserObject
from ..audit import AuditReport, AuditRequest, coerce_request, drain_steps
from ..core.clock import SimClock, Stopwatch
from ..core.errors import ConfigurationError, RetryableApiError
from ..core.rng import make_rng
from ..faults.plan import FaultPlan
from ..faults.retry import RetryPolicy
from ..obs.metrics import CacheInfo
from ..obs.runtime import get_observability
from ..twitter.population import World
from ..twitter.timeline import TimelineBlock
from .criteria import Criteria, EngineInfo, VerdictArray


@dataclass(frozen=True)
class AnalysisOutcome:
    """Raw output of one tool's analysis pass (before report assembly).

    ``completeness`` and ``errors_seen`` describe how cleanly the
    acquisition went (see :class:`~repro.audit.AuditReport`); subclass
    ``_analyze_steps`` hooks leave them at their defaults and the audit
    wrapper fills them in from the client's fault accounting.
    """

    followers_count: int
    sample_size: int
    fake_pct: float
    genuine_pct: float
    inactive_pct: Optional[float]
    details: Dict[str, object] = field(default_factory=dict)
    completeness: float = 1.0
    errors_seen: int = 0


class ResultCache:
    """Audit-result cache with optional expiry and an optional bound.

    The surveyed tools never disclose their caching policy; what the
    paper *observes* is that repeat audits return in < 5 s and that
    Twitteraudit happily serves results "evaluated 7 months ago", so
    the default is an unbounded TTL.  Long batch runs can bound the
    memory with ``max_entries``: the least-recently-*used* entry is
    evicted first (a hit refreshes recency), and every eviction ticks
    the ``result_cache_evictions_total`` counter.
    """

    def __init__(self, ttl: Optional[float] = None,
                 name: str = "audit",
                 max_entries: Optional[int] = None) -> None:
        if ttl is not None and ttl <= 0:
            raise ConfigurationError(f"ttl must be positive: {ttl!r}")
        if max_entries is not None and max_entries < 1:
            raise ConfigurationError(
                f"max_entries must be >= 1 or None: {max_entries!r}")
        self._ttl = ttl
        self._name = name
        self._max_entries = max_entries
        self._entries: "OrderedDict[str, Tuple[AnalysisOutcome, float]]" = \
            OrderedDict()
        #: Plain-int lookup tallies (the metric counters below are
        #: shared no-op singletons when observability is off, so
        #: ``cache_info()`` keeps its own counts).
        self.hits = 0
        self.misses = 0
        self.expired = 0
        #: Entries dropped by the LRU bound since construction.
        self.evictions = 0
        obs = get_observability()
        registry = obs.registry
        self._registry = registry
        obs.register_cache(self)
        help_text = "result-cache lookups by outcome"
        self._hits = registry.counter(
            "cache_events_total", help=help_text, cache=name, event="hit")
        self._misses = registry.counter(
            "cache_events_total", help=help_text, cache=name, event="miss")
        self._expirations = registry.counter(
            "cache_events_total", help=help_text, cache=name, event="expired")
        # The eviction counter is created lazily on the first eviction
        # so unbounded caches (the default) register no extra series
        # and existing metric exports stay byte-identical.
        self._evictions_counter = None

    def get(self, key: str, now: float) -> Optional[Tuple[AnalysisOutcome, float]]:
        """Return ``(outcome, computed_at)`` if cached and fresh."""
        normalized = key.lower()
        entry = self._entries.get(normalized)
        if entry is None:
            self.misses += 1
            self._misses.inc()
            return None
        __, computed_at = entry
        if self._ttl is not None and now - computed_at > self._ttl:
            del self._entries[normalized]
            self.expired += 1
            self._expirations.inc()
            return None
        self._entries.move_to_end(normalized)
        self.hits += 1
        self._hits.inc()
        return entry

    def put(self, key: str, outcome: AnalysisOutcome, computed_at: float) -> None:
        """Store an analysis outcome computed at ``computed_at``."""
        normalized = key.lower()
        self._entries[normalized] = (outcome, computed_at)
        self._entries.move_to_end(normalized)
        while (self._max_entries is not None
               and len(self._entries) > self._max_entries):
            self._entries.popitem(last=False)
            self.evictions += 1
            if self._evictions_counter is None:
                self._evictions_counter = self._registry.counter(
                    "result_cache_evictions_total",
                    help="entries dropped by the LRU bound",
                    cache=self._name)
            self._evictions_counter.inc()

    def size(self) -> int:
        """Live entry count (same as ``len()``, named for monitors)."""
        return len(self._entries)

    def cache_info(self) -> CacheInfo:
        """The uniform snapshot shape shared with the other caches.

        An expired lookup counts as a miss here — the caller did not
        get an answer — even though the metric series keeps hit /
        miss / expired as three separate outcomes.
        """
        return CacheInfo(name=self._name, hits=self.hits,
                         misses=self.misses + self.expired,
                         evictions=self.evictions,
                         size=len(self._entries))

    def __contains__(self, key: str) -> bool:
        return key.lower() in self._entries

    def __len__(self) -> int:
        return len(self._entries)


class CommercialAnalytic:
    """Skeleton of a closed-source fake-follower checking service.

    Parameters
    ----------
    world, clock:
        The simulated Twitter and the shared virtual clock.
    credentials, parallelism, request_latency:
        The tool's crawling infrastructure.  The paper's Table II
        response times imply very different fleets: StatusPeople runs a
        modest serial crawler, Twitteraudit a couple of workers,
        Socialbakers a massively parallel one.
    cache_serve_seconds:
        Simulated latency of answering from cache (the 2-5 s responses
        of Table II's repeat audits).
    processing_seconds:
        Fixed post-crawl computation time added to fresh analyses.
    provenance:
        Optional :class:`~repro.obs.provenance.ProvenanceCollector`.
        When set, every fresh classification records which criteria
        rules fired per account; the aggregate rides in
        ``details["provenance"]``.  Verdicts are unchanged.
    seed:
        Seed for the tool's internal sampling.
    """

    #: Tool identifier used in reports (subclasses override).
    name = "analytic"
    #: Whether the tool reports "inactive" as a separate class.
    reports_inactive = True

    def __init__(self, world: World, clock: SimClock, *,
                 credentials: int = 1,
                 parallelism: int = 1,
                 request_latency: float = 1.9,
                 cache_serve_seconds: float = 2.5,
                 processing_seconds: float = 1.0,
                 cache_ttl: Optional[float] = None,
                 cache_max_entries: Optional[int] = None,
                 faults: Optional[FaultPlan] = None,
                 retry: Optional[RetryPolicy] = None,
                 acquisition_cache=None,
                 provenance=None,
                 seed: int = 99) -> None:
        self._clock = clock
        self._client = TwitterApiClient(
            world, clock,
            credentials=credentials,
            parallelism=parallelism,
            request_latency=request_latency,
            faults=faults,
            retry=retry,
            acquisition_cache=acquisition_cache,
        )
        self._crawler = Crawler(self._client)
        self._cache = ResultCache(ttl=cache_ttl, name=self.name,
                                  max_entries=cache_max_entries)
        self._obs = get_observability()
        self._tracer = self._obs.tracer
        self._cache_serve_seconds = cache_serve_seconds
        self._processing_seconds = processing_seconds
        self._seed = seed
        self._audit_counter = 0
        self._last_completeness = 1.0
        self._active_request: Optional[AuditRequest] = None
        #: Raw verdict counts of the most recent classification; the
        #: delta auditor reads these to seed a watermark, since reports
        #: only carry rounded percentages.
        self.last_verdict_counts: Optional[Dict[str, int]] = None
        #: Optional :class:`~repro.obs.provenance.ProvenanceCollector`;
        #: when set, every fresh classification records per-rule fire
        #: masks (a pure observation — verdict bytes never change).
        self._provenance = provenance
        self._last_provenance = None
        self._obs.register_engine(self)
        #: The engine's classification criteria; concrete tools set
        #: this in their constructors (``None`` for subclasses that
        #: classify inside ``_analyze_steps`` themselves).
        self._criteria: Optional[Criteria] = None

    @property
    def client(self) -> TwitterApiClient:
        """The tool's API client (exposes its call log and clock)."""
        return self._client

    @property
    def cache(self) -> ResultCache:
        """The tool's result cache."""
        return self._cache

    @property
    def criteria(self) -> Optional[Criteria]:
        """The engine's classification criteria (``None`` for
        subclasses that classify inside ``_analyze_steps`` directly)."""
        return self._criteria

    @property
    def frame_policy(self) -> str:
        """Human-readable description of the sampling frame."""
        return "head-of-list sample"

    def info(self) -> EngineInfo:
        """The uniform engine metadata block (see :class:`EngineInfo`)."""
        criteria = self._criteria
        return EngineInfo(
            name=self.name,
            frame_policy=self.frame_policy,
            criteria_id=criteria.name if criteria is not None else "custom",
            reports_inactive=self.reports_inactive,
            batch_capable=criteria is not None,
        )

    # -- public API -----------------------------------------------------------

    def audit(self, request: AuditRequest) -> AuditReport:
        """Audit a target, serving from cache when possible.

        Takes an :class:`~repro.audit.AuditRequest` (the unified entry
        point; the legacy string form was removed).  The returned
        report's ``response_seconds`` is simulated wall time as an end
        user would experience it, which is how Table II was measured.
        This blocking form simply drains :meth:`begin_audit`'s step
        chain on the engine's own clock.
        """
        request = coerce_request(request, engine_name=self.name)
        self._admit(request)
        with self._tracer.span("audit", self._clock, tool=self.name,
                               target=request.target) as span:
            report = drain_steps(self._audit_steps(request))
            span.set_attribute("cached", report.cached)
            span.set_attribute("fake_pct", report.fake_pct)
            span.set_attribute("genuine_pct", report.genuine_pct)
            if report.completeness < 1.0:
                span.set_attribute("completeness", report.completeness)
            return report

    def begin_audit(self, request: AuditRequest):
        """Start a resumable audit: a generator over acquisition phases.

        Each ``next()`` advances one phase (profile resolution, frame
        paging, sample lookup, timelines, classification) and the
        generator *returns* the finished :class:`AuditReport`.  No
        ``audit`` span is opened here — a span held across interleaved
        steps of many engines would corrupt the tracer's nesting; the
        batch scheduler records per-request timing in its own report.
        """
        request = coerce_request(request, engine_name=self.name)
        self._admit(request)
        return self._audit_steps(request)

    def prewarm(self, screen_names: Sequence[str]) -> None:
        """Analyse targets ahead of user requests, populating the cache.

        Reproduces the behaviour the paper caught StatusPeople at: the
        reports of three popular accounts "were displayed after 2
        seconds only (without mentioning if the analysis had been
        performed in advance)".
        """
        for screen_name in screen_names:
            if screen_name not in self._cache:
                with self._tracer.span("audit.prewarm", self._clock,
                                       tool=self.name, target=screen_name):
                    outcome = drain_steps(self._fresh_outcome_steps(
                        AuditRequest(target=screen_name, engine=self.name)))
                    if outcome.completeness > 0.0:
                        self._cache.put(screen_name, outcome,
                                        self._clock.now())

    # -- subclass hooks ---------------------------------------------------------

    def _admit(self, request: AuditRequest) -> None:
        """Admission hook run before any audit work (quota checks)."""

    def _analyze_steps(self, screen_name: str):
        """Generator hook: one fresh analysis, split at acquisition phases.

        Every tool implements this as a generator that acquires with
        ``yield from self._fetch_head_sample(...)``, classifies, and
        *returns* its :class:`AnalysisOutcome`.
        """
        raise NotImplementedError

    # -- the resumable audit pipeline -------------------------------------------

    def _audit_steps(self, request: AuditRequest):
        """The audit state machine: cache check, acquisition, report."""
        self._client.pin_observation(request.as_of)
        stopwatch = Stopwatch(self._clock)
        cached = None if request.force_refresh else self._cache.get(
            request.target, self._clock.now())
        if cached is not None:
            outcome, computed_at = cached
            with self._tracer.span("audit.cache_serve", self._clock,
                                   tool=self.name, target=request.target):
                self._clock.advance(self._cache_serve_seconds)
            return self._report(request.target, outcome,
                                stopwatch.elapsed(), cached=True,
                                assessed_at=computed_at)
        self._client.reset_budgets()
        outcome = yield from self._fresh_outcome_steps(request)
        with self._tracer.span("audit.classify", self._clock,
                               tool=self.name, target=request.target):
            self._clock.advance(self._processing_seconds)
        computed_at = self._clock.now()
        if outcome.completeness > 0.0:
            # A fully failed audit is never cached: the tool retries
            # from scratch on the next request instead of serving an
            # empty result forever.
            self._cache.put(request.target, outcome, computed_at)
        return self._report(request.target, outcome,
                            stopwatch.elapsed(), cached=False,
                            assessed_at=computed_at)

    def _fresh_outcome_steps(self, request: AuditRequest):
        """Run ``_analyze_steps`` with completeness/fault accounting.

        An acquisition failure that survives the retry layer degrades to
        an empty outcome (``completeness == 0.0``) instead of raising —
        the surveyed services show an apologetic banner, not a stack
        trace.
        """
        faults_before = self._client.faults_seen
        self._last_completeness = 1.0
        self._last_provenance = None
        self._active_request = request
        try:
            outcome = yield from self._analyze_steps(request.target)
            completeness = self._last_completeness
        except RetryableApiError as error:
            outcome = AnalysisOutcome(
                followers_count=0,
                sample_size=0,
                fake_pct=0.0,
                genuine_pct=0.0,
                inactive_pct=0.0 if self.reports_inactive else None,
                details={"degraded": type(error).__name__},
            )
            completeness = 0.0
        finally:
            self._active_request = None
        details = outcome.details
        if self._last_provenance is not None:
            details = dict(details)
            details["provenance"] = self._last_provenance.stats.as_dict()
        return replace(
            outcome,
            details=details,
            completeness=completeness,
            errors_seen=self._client.faults_seen - faults_before,
        )

    # -- helpers ------------------------------------------------------------------

    def _analysis_now(self) -> float:
        """The instant classification rules evaluate ages against.

        The client's pinned observation instant when a scheduler set
        one (so batched and serial audits classify identically), the
        live clock otherwise.
        """
        pinned = self._client.observed_at
        return pinned if pinned is not None else self._clock.now()

    def _classify_sample(self, users, timelines, now: float) -> VerdictArray:
        """Classify one sample through the criteria's columnar path.

        The single code path shared by all the rule-based engines:
        ``classify_all`` packs the sample into a
        :class:`~repro.analytics.criteria.SampleBlock` and runs the
        criteria's mask pipeline.  With a provenance collector attached
        the per-rule fire masks are recorded too.
        """
        criteria = self._criteria
        if criteria is None:
            raise ConfigurationError(
                f"engine {self.name!r} defines no criteria; override "
                f"_analyze_steps or set self._criteria")
        sink = None
        if self._provenance is not None and criteria.rule_ids:
            from ..obs.provenance import ProvenanceSink  # deferred: cycle
            sink = ProvenanceSink()
        verdicts = criteria.classify_all(users, timelines, now, sink=sink)
        if sink is not None:
            request = self._active_request
            target = request.target if request is not None else ""
            self._last_provenance = self._provenance.record(
                self.name, target, verdicts, sink,
                _sample_user_ids(users), now)
        self.last_verdict_counts = dict(verdicts.counts())
        if self._obs.enabled:
            self._obs.note_verdicts(self.name, verdicts.counts())
        return verdicts

    def classify_sample(self, users, timelines, now: float) -> VerdictArray:
        """Classify an ad-hoc sample through the engine's verdict path.

        Public entry point for the delta auditor: identical to the
        classification phase of a full audit, with the raw counts
        recorded in :attr:`last_verdict_counts`; only acquisition is
        the caller's business.
        """
        return self._classify_sample(users, timelines, now)

    def _sampling_rng(self):
        """A fresh, deterministic RNG per analysis run.

        An :class:`AuditRequest` carrying an explicit ``audit_index``
        pins the stream (schedulers use this to replicate a serial
        run's sampling exactly); otherwise the engine's own audit
        counter advances.
        """
        request = self._active_request
        if request is not None and request.audit_index is not None:
            return make_rng(self._seed, self.name, request.audit_index)
        self._audit_counter += 1
        return make_rng(self._seed, self.name, self._audit_counter)

    def _fetch_head_sample(
            self, screen_name: str, *,
            head: int, sample: int,
            with_timelines: bool = False,
    ):
        """The shared acquisition pattern of all three tools.

        Fetch the target profile, pull up to ``head`` follower ids from
        the head of the (newest-first) listing, randomly sample
        ``sample`` of them, and look the sample up — optionally with one
        timeline page each.  This is exactly the biased scheme of
        Section II-D: random *within* the head, but the head is the
        frame.

        A generator: it yields between acquisition phases (so the batch
        scheduler can interleave many audits across rate-limit windows)
        and *returns* ``(target, users, timelines)`` — consume it with
        ``yield from`` inside ``_analyze_steps``.
        """
        target = self._client.users_show(screen_name=screen_name)
        yield
        head_ids = self._crawler.fetch_newest_follower_ids(
            screen_name, max_ids=head)
        yield
        rng = self._sampling_rng()
        if sample < len(head_ids):
            sampled_ids = rng.sample(head_ids, sample)
        else:
            sampled_ids = list(head_ids)
        # A row block lets the lazy world hand over profile columns
        # instead of user objects; graph worlds and cached acquisitions
        # hand back the object list, which classifies identically.
        users = self._crawler.lookup_users_block(sampled_ids)
        # Completeness = frame completeness x sample completeness: how
        # much of the intended head frame was paged in, times how much
        # of the intended within-frame sample actually resolved.
        expected_frame = min(head, target.followers_count)
        frame_part = (min(1.0, len(head_ids) / expected_frame)
                      if expected_frame > 0 else 1.0)
        expected_sample = min(sample, len(head_ids))
        sample_part = (min(1.0, len(users) / expected_sample)
                       if expected_sample > 0 else 1.0)
        self._last_completeness = frame_part * sample_part
        timelines: Optional[List[TimelineBlock]] = None
        if with_timelines:
            yield
            ids_of = getattr(users, "user_ids", None)
            sample_user_ids = (ids_of() if ids_of is not None
                               else [user.user_id for user in users])
            by_id = self._crawler.fetch_timelines(
                sample_user_ids, per_user=TIMELINE_PAGE)
            timelines = [by_id[uid] for uid in sample_user_ids]
            if users:
                # Degraded-to-empty timelines silently bias activity
                # rules, so they count against completeness too.
                self._last_completeness *= (
                    1.0 - self._crawler.last_timeline_shortfall / len(users))
        return target, users, timelines

    def _report(self, screen_name: str, outcome: AnalysisOutcome,
                response_seconds: float, *, cached: bool,
                assessed_at: float) -> AuditReport:
        live = self._obs.live
        if live is not None:
            live.on_audit(self.name, assessed_at, cached=cached,
                          completeness=outcome.completeness)
        return AuditReport(
            tool=self.name,
            target=screen_name,
            followers_count=outcome.followers_count,
            sample_size=outcome.sample_size,
            fake_pct=outcome.fake_pct,
            genuine_pct=outcome.genuine_pct,
            inactive_pct=outcome.inactive_pct if self.reports_inactive else None,
            response_seconds=response_seconds,
            cached=cached,
            assessed_at=assessed_at,
            completeness=outcome.completeness,
            errors_seen=outcome.errors_seen,
            details=dict(outcome.details),
        )


def _sample_user_ids(users) -> List[int]:
    """The user ids of a classified sample, in classification order.

    Handles both sample shapes the engines feed the criteria: a
    columnar :class:`~repro.twitter.columnar.schema.UserRowBlock`
    (exposing ``user_ids()``) and a plain sequence of
    :class:`~repro.api.endpoints.UserObject`.
    """
    ids_of = getattr(users, "user_ids", None)
    if callable(ids_of):
        return [int(uid) for uid in ids_of()]
    return [int(user.user_id) for user in users]


def percentages(counts: Dict[str, int], total: int) -> Dict[str, float]:
    """Convert class counts to percentages summing to exactly 100.

    Uses largest-remainder rounding on one decimal so reports always
    satisfy the :class:`AuditReport` sum invariant.
    """
    if total <= 0:
        raise ConfigurationError("total must be positive")
    raw = {key: 100.0 * value / total for key, value in counts.items()}
    floored = {key: round(value, 1) for key, value in raw.items()}
    deficit = round(100.0 - sum(floored.values()), 1)
    if abs(deficit) >= 0.05 and floored:
        largest = max(raw, key=lambda key: raw[key])
        floored[largest] = round(floored[largest] + deficit, 1)
    return floored
