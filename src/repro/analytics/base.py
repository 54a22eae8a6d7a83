"""Common machinery of the commercial fake-follower analytics.

Section II of the paper distils the workflow all three surveyed tools
share: resolve the target, collect a (head-of-list) batch of follower
names, sample within it, look up the sampled profiles, apply the tool's
proprietary criteria, and return fake/inactive/genuine percentages —
with aggressive *result caching*, which the response-time experiment
(Table II) exposes: cached audits answer in 2-5 s regardless of target
size.

:class:`AuditEngine` is the skeleton all four engines share, the FC
engine (:mod:`repro.fc.engine`) included; :class:`CommercialAnalytic`
adds the head-of-list frame and the result cache, and each concrete
tool supplies its sampling configuration, its classification rules and
its percentage arithmetic.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field, replace
from typing import Dict, Mapping, Optional, Sequence, Tuple

from ..api.client import TwitterApiClient
from ..api.columns import SampleBlock
from ..api.crawler import TIMELINE_PAGE, Crawler
from ..audit import AuditReport, AuditRequest, coerce_request, drain_steps
from ..core.clock import SimClock, Stopwatch
from ..core.errors import ConfigurationError, RetryableApiError
from ..core.rng import make_rng
from ..faults.plan import FaultPlan
from ..faults.retry import RetryPolicy
from ..obs.metrics import CacheInfo
from ..obs.provenance import ProvenanceSink
from ..obs.runtime import get_observability, weak_observability
from ..twitter.population import SyntheticWorld
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


def sample_timelines(crawler: Crawler, criteria: Optional[Criteria], users):
    """One timeline page per sampled user, when the criteria read them.

    The timeline step every engine's audit and the delta auditor
    share.  A generator: for criteria that read no timelines it
    returns ``(None, 1.0)`` at once; otherwise it yields (a new
    acquisition phase), fetches the pages and *returns* ``(timelines,
    fetched)``: the timelines in sample order and the share of them
    that did not degrade to empty.  Degraded-to-empty timelines
    silently bias activity rules, so callers multiply ``fetched`` into
    their completeness.
    """
    if criteria is None or not criteria.needs_timeline:
        return None, 1.0
    yield
    user_ids = SampleBlock(users).user_ids
    by_id = crawler.fetch_timelines(user_ids, per_user=TIMELINE_PAGE)
    fetched = (1.0 - crawler.last_timeline_shortfall / len(users)
               if users else 1.0)
    return [by_id[uid] for uid in user_ids], fetched


class AuditEngine:
    """The audit skeleton all four engines share.

    Section II of the paper distils one workflow: resolve the target,
    acquire a follower sample, apply the engine's criteria and report
    fake/inactive/genuine percentages.  The engines differ in the
    sampling frame, the sample size, the criteria and result caching
    (Sections II-IV), so a subclass supplies those and this class owns
    the rest: the API client and crawler, the blocking and resumable
    entry points, observation pinning and budget reset, degraded
    outcomes, the processing time, verdict counts and provenance, live
    hooks and report assembly.

    A subclass sets ``name``, ``reports_inactive`` and ``sample_size``,
    describes its ``frame_policy`` and implements
    :meth:`_analyze_steps`.  Its percentage arithmetic is
    :meth:`_shares`, which it overrides unless its percentages are the
    largest-remainder split of fake, inactive and the rest.

    Parameters
    ----------
    world, clock:
        The simulated Twitter and the shared virtual clock.
    credentials, parallelism, request_latency:
        The engine's crawling infrastructure.  The paper's Table II
        response times imply very different fleets: StatusPeople runs a
        modest serial crawler, Twitteraudit a couple of workers,
        Socialbakers a massively parallel one.
    faults, retry:
        Injected API weather and the client's retry policy.
    acquisition_cache:
        Optional shared follower-page/profile cache (the batch
        scheduler's :class:`~repro.sched.cache.AcquisitionCache`).
    provenance:
        Optional :class:`~repro.obs.provenance.ProvenanceCollector`.
        When set, every full audit's classification records which
        criteria rules fired per account; the aggregate rides in
        ``details["provenance"]``.  Verdicts are unchanged.
    seed:
        Seed for the engine's internal sampling.
    """

    #: Engine identifier used in reports (subclasses override).
    name = "analytic"
    #: Whether the engine reports "inactive" as a separate class.
    reports_inactive = True
    #: Profiles a full audit looks up at most (subclasses set it).
    sample_size: int
    #: Simulated post-crawl computation time of a fresh analysis.
    PROCESSING_SECONDS = 1.0

    def __init__(self, world: SyntheticWorld, clock: SimClock, *,
                 credentials: int = 1,
                 parallelism: int = 1,
                 request_latency: float = 1.9,
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
        obs = get_observability()
        self._obs = weak_observability(obs)
        self._tracer = obs.tracer
        self._seed = seed
        self._audit_counter = 0
        self._last_completeness = 1.0
        self._active_request: Optional[AuditRequest] = None
        #: Raw verdict counts of the most recent classification; the
        #: delta auditor reads these to seed a watermark, since reports
        #: only carry rounded percentages.
        self.last_verdict_counts: Optional[Dict[str, int]] = None
        self._provenance = provenance
        self._last_provenance = None
        obs.register_engine(self)
        #: The engine's classification criteria; concrete engines set
        #: this in their constructors (``None`` for subclasses that
        #: classify inside ``_analyze_steps`` themselves).
        self._criteria: Optional[Criteria] = None

    @property
    def client(self) -> TwitterApiClient:
        """The engine's API client (exposes its call log and clock)."""
        return self._client

    @property
    def criteria(self) -> Optional[Criteria]:
        """The engine's classification criteria (``None`` for
        subclasses that classify inside ``_analyze_steps`` directly)."""
        return self._criteria

    @property
    def frame_policy(self) -> str:
        """Human-readable description of the sampling frame."""
        raise NotImplementedError

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
        """Audit a target and return the finished report.

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

    def classify_sample(self, users, timelines, now: float,
                        sink=None) -> VerdictArray:
        """Classify a sample through the engine's verdict path.

        The classification phase of a full audit, and the delta
        auditor's entry point: the engine's criteria on the columnar
        path, with the raw counts recorded in
        :attr:`last_verdict_counts`; acquisition is the caller's
        business.  ``sink`` optionally collects the per-rule fire
        masks.
        """
        criteria = self._criteria
        if criteria is None:
            raise ConfigurationError(
                f"engine {self.name!r} defines no criteria; override "
                f"_analyze_steps or set self._criteria")
        verdicts = criteria.classify_all(users, timelines, now, sink=sink)
        counts = verdicts.counts()
        self.last_verdict_counts = dict(counts)
        obs = self._obs()
        if obs.enabled:
            obs.note_verdicts(self.name, counts)
        return verdicts

    def composition(self, counts: Mapping[str, int]
                    ) -> Tuple[float, float, Optional[float]]:
        """``(fake_pct, genuine_pct, inactive_pct)`` of verdict counts.

        The engine's one percentage arithmetic: its full audits and
        the delta auditor's merges both call it.  An empty sample has
        no composition: 0/0/0, with ``inactive_pct`` ``None`` for an
        engine that reports no inactive class.
        """
        total = sum(counts.values())
        if total == 0:
            return 0.0, 0.0, (0.0 if self.reports_inactive else None)
        return self._shares(counts, total)

    # -- subclass hooks ---------------------------------------------------------

    def _admit(self, request: AuditRequest) -> None:
        """Admission hook run before any audit work (quota checks)."""

    def _analyze_steps(self, screen_name: str):
        """Generator hook: one fresh analysis, split at acquisition phases.

        Every engine implements this as a generator that yields between
        acquisition phases, classifies, and *returns* its
        :class:`AnalysisOutcome` (see :meth:`_outcome`).
        """
        raise NotImplementedError

    def _shares(self, counts: Mapping[str, int],
                total: int) -> Tuple[float, float, Optional[float]]:
        """Percentages of a non-empty sample's ``total`` accounts.

        The default is the largest-remainder split of fake, inactive
        and the rest (:func:`percentages`), which StatusPeople and
        Socialbakers print.
        """
        fake = counts.get("fake", 0)
        inactive = counts.get("inactive", 0)
        pct = percentages({"fake": fake, "inactive": inactive,
                           "good": total - fake - inactive}, total)
        return pct["fake"], pct["good"], pct["inactive"]

    def _serve_cached(self, request: AuditRequest,
                      stopwatch: Stopwatch) -> Optional[AuditReport]:
        """A report served from a result cache, or ``None``.

        The skeleton keeps no result cache (FC performs no caching).
        """
        return None

    def _remember(self, target: str, outcome: AnalysisOutcome,
                  computed_at: float) -> None:
        """Keep a fresh outcome for later requests (the skeleton keeps
        none)."""

    # -- the resumable audit pipeline -------------------------------------------

    def _audit_steps(self, request: AuditRequest):
        """The audit state machine: cache, acquisition, report."""
        self._client.pin_observation(request.as_of)
        stopwatch = Stopwatch(self._clock)
        served = self._serve_cached(request, stopwatch)
        if served is not None:
            return served
        self._client.reset_budgets()
        outcome = yield from self._fresh_outcome_steps(request)
        with self._tracer.span("audit.classify", self._clock,
                               tool=self.name, target=request.target):
            self._clock.advance(self.PROCESSING_SECONDS)
        computed_at = self._clock.now()
        self._remember(request.target, outcome, computed_at)
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
            outcome = self._outcome(0, {}, {"degraded": type(error).__name__})
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

    def _audit_index(self) -> int:
        """The sampling index of the running audit.

        An :class:`AuditRequest` carrying an explicit ``audit_index``
        pins it (schedulers use this to replicate a serial run's
        sampling exactly); otherwise the engine's own audit counter
        advances.
        """
        request = self._active_request
        if request is not None and request.audit_index is not None:
            return request.audit_index
        self._audit_counter += 1
        return self._audit_counter

    def _classify_sample(self, users, timelines) -> VerdictArray:
        """Classify the audited sample at the analysis instant.

        :meth:`classify_sample` for a full audit; with a provenance
        collector attached, the per-rule fire masks are recorded under
        the audit's target.
        """
        now = self._analysis_now()
        criteria = self._criteria
        sink = None
        if (self._provenance is not None and criteria is not None
                and criteria.rule_ids):
            sink = ProvenanceSink()
        verdicts = self.classify_sample(users, timelines, now, sink=sink)
        if sink is not None:
            self._last_provenance = self._provenance.record(
                self.name, self._active_request.target, verdicts, sink,
                SampleBlock(users).user_ids, now)
        return verdicts

    def _outcome(self, followers_count: int, counts: Mapping[str, int],
                 details: Dict[str, object]) -> AnalysisOutcome:
        """The outcome of one classified sample, in the engine's
        percentages (:meth:`composition`) of its verdict ``counts``."""
        fake_pct, genuine_pct, inactive_pct = self.composition(counts)
        return AnalysisOutcome(
            followers_count=followers_count,
            sample_size=sum(counts.values()),
            fake_pct=fake_pct,
            genuine_pct=genuine_pct,
            inactive_pct=inactive_pct,
            details=details,
        )

    def _report(self, screen_name: str, outcome: AnalysisOutcome,
                response_seconds: float, *, cached: bool,
                assessed_at: float) -> AuditReport:
        live = self._obs().live
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


class CommercialAnalytic(AuditEngine):
    """Skeleton of a closed-source fake-follower checking service.

    What the three surveyed tools add to the :class:`AuditEngine`
    skeleton: a head-of-list sampling frame
    (:meth:`_fetch_head_sample`) and aggressive *result caching*,
    which the response-time experiment (Table II) exposes — cached
    audits answer in 2-5 s regardless of target size.  The base of
    any custom tool (``docs/extending.md``).

    Parameters
    ----------
    cache_ttl:
        Result-cache expiry in seconds (default: never).
    **kwargs:
        The :class:`AuditEngine` parameters.
    """

    #: Simulated latency of answering from cache (the 2-5 s responses
    #: of Table II's repeat audits).
    CACHE_SERVE_SECONDS = 2.5

    def __init__(self, world: SyntheticWorld, clock: SimClock, *,
                 cache_ttl: Optional[float] = None, **kwargs) -> None:
        super().__init__(world, clock, **kwargs)
        self._cache = ResultCache(ttl=cache_ttl, name=self.name)

    @property
    def cache(self) -> ResultCache:
        """The tool's result cache."""
        return self._cache

    @property
    def frame_policy(self) -> str:
        """Human-readable description of the sampling frame."""
        return "head-of-list sample"

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
                    self._remember(screen_name, outcome, self._clock.now())

    def _serve_cached(self, request: AuditRequest,
                      stopwatch: Stopwatch) -> Optional[AuditReport]:
        """Answer from the result cache unless ``force_refresh``."""
        cached = None if request.force_refresh else self._cache.get(
            request.target, self._clock.now())
        if cached is None:
            return None
        outcome, computed_at = cached
        with self._tracer.span("audit.cache_serve", self._clock,
                               tool=self.name, target=request.target):
            self._clock.advance(self.CACHE_SERVE_SECONDS)
        return self._report(request.target, outcome, stopwatch.elapsed(),
                            cached=True, assessed_at=computed_at)

    def _remember(self, target: str, outcome: AnalysisOutcome,
                  computed_at: float) -> None:
        """Cache the outcome unless the acquisition failed outright.

        A fully failed audit is never cached: the tool retries from
        scratch on the next request instead of serving an empty
        result forever.
        """
        if outcome.completeness > 0.0:
            self._cache.put(target, outcome, computed_at)

    def _fetch_head_sample(self, screen_name: str, *, head: int):
        """The shared acquisition pattern of all three tools.

        Fetch the target profile, pull up to ``head`` follower ids from
        the head of the (newest-first) listing, randomly sample
        :attr:`sample_size` of them, and look the sample up — with one
        timeline page each when the criteria read timelines.  This is
        exactly the biased scheme of Section II-D: random *within* the
        head, but the head is the frame.

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
        rng = make_rng(self._seed, self.name, self._audit_index())
        sample = self.sample_size
        if sample < len(head_ids):
            sampled_ids = rng.sample(head_ids, sample)
        else:
            sampled_ids = list(head_ids)
        users = self._crawler.lookup_users_block(sampled_ids)
        # Completeness = frame completeness x sample completeness x
        # timeline completeness: how much of the intended head frame
        # was paged in, how much of the intended within-frame sample
        # actually resolved, and how many timelines fetched.
        expected_frame = min(head, target.followers_count)
        frame_part = (min(1.0, len(head_ids) / expected_frame)
                      if expected_frame > 0 else 1.0)
        expected_sample = min(sample, len(head_ids))
        sample_part = (min(1.0, len(users) / expected_sample)
                       if expected_sample > 0 else 1.0)
        timelines, fetched = yield from sample_timelines(
            self._crawler, self._criteria, users)
        self._last_completeness = frame_part * sample_part * fetched
        return target, users, timelines


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
