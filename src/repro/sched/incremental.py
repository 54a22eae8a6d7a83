"""Incremental (delta) re-audits anchored on follower-list watermarks.

The paper's Section IV-B finding — ``followers/ids`` returns followers
newest-first — is exploited elsewhere in this repo as a *bias* result
(head-of-list samples over-represent fresh arrivals).  This module
turns it into a *speed* result: because every follower gained since a
previous crawl occupies a prefix of the list, a re-audit does not need
to re-crawl O(N) edges to measure an O(Δ) change.  A full audit leaves
behind an :class:`AuditWatermark` (follower count, the newest few edge
ids as an *anchor*, raw verdict counts, the observation epoch); the
next audit of the same target walks the head only until it re-finds
the anchor, classifies just the new arrivals through the engine's
ordinary batch-criteria path, and merges their verdict counts with the
watermarked baseline.

Delta results are exact — bit-identical counts to a fresh full audit —
whenever the baseline was a census of the engine's sampling frame and
no already-counted account's verdict drifts between the two
observation instants; they are an approximation otherwise (the
baseline tail is not re-examined).  The :class:`DeltaAuditor` is
deliberately paranoid about when *not* to trust a watermark, falling
back to a full audit on any of:

* **cold start** — no watermark for this (engine, target);
* **TTL expiry** — the baseline is older than ``ttl`` seconds, so
  tail drift can no longer be ignored;
* **shrinking counts** — the follower count dropped below the
  watermark's (churn reaches into the counted base);
* **anchor lost** — the head walk exhausts its budget (or the whole
  list) without re-finding any anchor id: churn past the anchor depth
  or an invalidated cursor chain;
* **head-walk faults** — a degraded or fault-bitten walk can silently
  truncate the prefix, so it is never trusted;
* **oversized delta** — more new arrivals than the engine would even
  sample in a full audit: a fresh audit is cheaper *and* better;
* **count mismatch** — the head walk found a different number of new
  arrivals than the follower counter grew by: a counted follower left
  (net growth hides the departure), so the baseline counts include a
  verdict that no longer belongs to the frame.

A successful merge refreshes the watermark (new anchor, merged counts,
merged report) **only when the delta classified completely**; partial
or zero-completeness deltas return a degraded merged report but leave
the watermark untouched, so one bad fault window cannot poison every
subsequent re-audit.  The TTL clock is *not* refreshed by merges — it
measures time since the last full census, which is the thing that
bounds tail drift.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, Mapping, Optional, Tuple

from ..api.crawler import TIMELINE_PAGE, Crawler
from ..audit import AuditReport, AuditRequest, coerce_request, drain_steps
from ..core.clock import Stopwatch
from ..core.errors import ConfigurationError, RetryableApiError
from ..core.timeutil import DAY
from ..obs.runtime import get_observability

#: Head edge ids captured per watermark.  The walk tolerates up to this
#: many of the newest baseline followers unfollowing before the anchor
#: is lost; one id would already anchor a churn-free list.
DEFAULT_ANCHOR_DEPTH = 64

#: Seconds after which a watermark is too stale to extend: accounts
#: already counted can drift class (e.g. across a 90-day inactivity
#: horizon), and only a fresh full audit re-examines them.
DEFAULT_DELTA_TTL = 30 * DAY


@dataclass(frozen=True)
class AuditWatermark:
    """Everything a delta re-audit needs from the previous audit.

    ``as_of`` is the observation epoch of the last *full* audit (the
    TTL reference); ``updated_at`` advances with every successful
    merge.  ``verdict_counts`` are the raw class counts behind the
    report's rounded percentages — merging percentages would compound
    rounding, merging counts is exact.  ``report`` is the baseline
    (or last merged) report, returned verbatim when a re-audit finds
    the account unchanged.
    """

    engine: str
    target: str
    followers_count: int
    anchor_ids: Tuple[int, ...]
    verdict_counts: Mapping[str, int]
    sample_size: int
    as_of: float
    updated_at: float
    report: AuditReport

    def __post_init__(self) -> None:
        if self.followers_count < 0:
            raise ConfigurationError(
                f"followers_count must be >= 0: {self.followers_count!r}")
        if self.sample_size < 0:
            raise ConfigurationError(
                f"sample_size must be >= 0: {self.sample_size!r}")
        if any(count < 0 for count in self.verdict_counts.values()):
            raise ConfigurationError("verdict counts must be non-negative")


class WatermarkStore:
    """Watermarks keyed by ``(engine, lowercased target)``.

    Unlike the raw acquisition stores of
    :class:`~repro.sched.cache.AcquisitionCache`, watermarks
    deliberately *survive* batch boundaries: they carry their own
    observation epoch and TTL, and spanning runs is their entire point
    (the Nth re-audit of a fleet member extends the first audit's
    baseline).  The scheduler therefore exempts this store from the
    per-``run()`` cache clear.
    """

    def __init__(self) -> None:
        self._by_key: Dict[Tuple[str, str], AuditWatermark] = {}

    @staticmethod
    def _key(engine: str, target: str) -> Tuple[str, str]:
        return (engine, target.lower())

    def get(self, engine: str, target: str) -> Optional[AuditWatermark]:
        """The stored watermark for ``(engine, target)``, or ``None``."""
        return self._by_key.get(self._key(engine, target))

    def put(self, watermark: AuditWatermark) -> None:
        """Store (or replace) one watermark."""
        self._by_key[self._key(watermark.engine, watermark.target)] = watermark

    def drop(self, engine: str, target: str) -> None:
        """Forget the watermark for ``(engine, target)``, if any."""
        self._by_key.pop(self._key(engine, target), None)

    def clear(self) -> None:
        """Forget every watermark."""
        self._by_key.clear()

    def __len__(self) -> int:
        return len(self._by_key)


class DeltaAuditor:
    """Watermark-aware wrapper around one audit engine.

    Implements the same :class:`~repro.audit.Auditor` surface as the
    engine it wraps (blocking :meth:`audit`, resumable
    :meth:`begin_audit`), so a scheduler slot can route
    ``mode="delta"`` requests through it unchanged.  ``mode="full"``
    (or ``force_refresh``) requests pass straight through to the
    engine — plus a cheap anchor capture afterwards, so the *next*
    delta request has a baseline.

    The wrapper requires an effective observation epoch: a request
    without ``as_of`` is pinned to the engine clock's *now* at
    admission, which is what makes the captured anchor describe
    exactly the frame the audit counted.
    """

    def __init__(self, engine, store: WatermarkStore, *,
                 anchor_depth: int = DEFAULT_ANCHOR_DEPTH,
                 ttl: float = DEFAULT_DELTA_TTL,
                 max_delta: Optional[int] = None) -> None:
        if anchor_depth < 1:
            raise ConfigurationError(
                f"anchor_depth must be >= 1: {anchor_depth!r}")
        if ttl <= 0:
            raise ConfigurationError(f"ttl must be positive: {ttl!r}")
        if max_delta is not None and max_delta < 1:
            raise ConfigurationError(
                f"max_delta must be >= 1 or None: {max_delta!r}")
        self._engine = engine
        self._store = store
        self._anchor_depth = anchor_depth
        self._ttl = ttl
        self._max_delta = max_delta
        self._crawler = Crawler(engine.client)
        obs = get_observability()
        self._obs = obs
        self._registry = obs.registry
        self._tracer = obs.tracer
        self._outcome_counters: Dict[str, object] = {}
        self._fallback_counters: Dict[str, object] = {}
        self._pages_counter = None
        self._classified_counter = None
        #: Plain-int mirrors of the metric series, for perf telemetry.
        self.served_unchanged = 0
        self.merged = 0
        self.fallbacks: Dict[str, int] = {}
        self.head_pages = 0
        self.new_classified = 0

    @property
    def name(self) -> str:
        """The wrapped engine's lane name."""
        return self._engine.name

    @property
    def reports_inactive(self) -> bool:
        """Whether the wrapped engine reports an inactive class."""
        return self._engine.reports_inactive

    @property
    def engine(self):
        """The wrapped engine."""
        return self._engine

    @property
    def store(self) -> WatermarkStore:
        """The watermark store this auditor reads and extends."""
        return self._store

    # -- auditor surface ------------------------------------------------------

    def audit(self, request: AuditRequest) -> AuditReport:
        """Audit one target, delta when possible, and return the report."""
        return drain_steps(self.begin_audit(request))

    def begin_audit(self, request: AuditRequest):
        """Start a resumable audit; a generator returning the report."""
        request = coerce_request(request, engine_name=self._engine.name)
        return self._steps(request)

    # -- the delta pipeline ---------------------------------------------------

    def _steps(self, request: AuditRequest):
        clock = self._engine.client.clock
        as_of = request.as_of if request.as_of is not None else clock.now()
        if request.mode != "delta" or request.force_refresh:
            return (yield from self._full(request, as_of, reason=None))
        watermark = self._store.get(self._engine.name, request.target)
        if watermark is None:
            return (yield from self._full(request, as_of, "cold_start"))
        if as_of - watermark.as_of > self._ttl:
            return (yield from self._full(request, as_of, "ttl_expired"))

        client = self._engine.client
        client.pin_observation(as_of)
        client.reset_budgets()
        stopwatch = Stopwatch(clock)
        faults_before = client.faults_seen
        try:
            target = client.users_show(screen_name=request.target)
        except RetryableApiError:
            return (yield from self._full(request, as_of, "head_walk_fault"))
        if target.followers_count < watermark.followers_count:
            return (yield from self._full(request, as_of, "count_shrunk"))
        expected_new = target.followers_count - watermark.followers_count
        cap = self._delta_cap()
        if expected_new > cap:
            return (yield from self._full(request, as_of, "delta_too_large"))
        if watermark.followers_count == 0:
            if expected_new == 0:
                return self._serve_unchanged(watermark)
            return (yield from self._full(request, as_of, "anchor_lost"))
        yield

        walk = self._crawler.fetch_head_until(
            request.target, watermark.anchor_ids,
            max_new=expected_new + len(watermark.anchor_ids))
        self._note_pages(walk.pages)
        if walk.degraded or client.faults_seen > faults_before:
            return (yield from self._full(request, as_of, "head_walk_fault"))
        if not walk.anchored:
            return (yield from self._full(request, as_of, "anchor_lost"))
        new_ids = walk.new_ids
        if len(new_ids) != expected_new:
            return (yield from self._full(request, as_of, "count_mismatch"))
        if not new_ids:
            return self._serve_unchanged(watermark)
        yield

        # Classify *every* new arrival (a delta census — no sampling,
        # so the result is independent of audit_index and identical
        # across serial and batch scheduling).
        engine = self._engine
        users = self._crawler.lookup_users_block(new_ids)
        completeness = (len(users) / len(new_ids)) if new_ids else 1.0
        timelines = None
        criteria = engine.criteria
        if criteria is not None and criteria.needs_timeline:
            yield
            from ..analytics.base import _sample_user_ids
            sample_ids = _sample_user_ids(users)
            by_id = self._crawler.fetch_timelines(
                sample_ids, per_user=TIMELINE_PAGE)
            timelines = [by_id[uid] for uid in sample_ids]
            if users:
                completeness *= (
                    1.0 - self._crawler.last_timeline_shortfall / len(users))

        with self._tracer.span("delta.merge", clock, tool=engine.name,
                               target=request.target,
                               new_followers=len(new_ids)):
            verdicts = engine.classify_sample(users, timelines, as_of)
            delta_counts = dict(verdicts.counts())
            merged_counts = dict(watermark.verdict_counts)
            for label, count in delta_counts.items():
                merged_counts[label] = merged_counts.get(label, 0) + count
        self._note_classified(len(new_ids))
        total = watermark.sample_size + len(users)
        fake_pct, genuine_pct, inactive_pct = self._assemble(
            merged_counts, max(1, total))
        report = AuditReport(
            tool=engine.name,
            target=request.target,
            followers_count=target.followers_count,
            sample_size=total,
            fake_pct=fake_pct,
            genuine_pct=genuine_pct,
            inactive_pct=inactive_pct if engine.reports_inactive else None,
            response_seconds=stopwatch.elapsed(),
            cached=False,
            assessed_at=clock.now(),
            completeness=completeness,
            errors_seen=client.faults_seen - faults_before,
            details={
                "mode": "delta",
                "baseline_as_of": watermark.as_of,
                "new_followers": len(new_ids),
                "anchor_churned": walk.anchor_index,
                "head_pages": walk.pages,
                "delta_counts": delta_counts,
                "engine": engine.info().as_dict(),
            },
        )
        self.merged += 1
        self._count_outcome("merged")
        live = self._obs.live
        if live is not None:
            live.on_audit(engine.name, clock.now(), cached=False,
                          completeness=completeness)
            live.note("audits.delta", clock.now())
        if completeness == 1.0:
            anchor = (tuple(new_ids) + tuple(watermark.anchor_ids)
                      )[:self._anchor_depth]
            self._store.put(replace(
                watermark,
                followers_count=target.followers_count,
                anchor_ids=anchor,
                verdict_counts=merged_counts,
                sample_size=total,
                updated_at=as_of,
                report=report,
            ))
        return report

    #: Fallback reasons that carry *evidence the frame changed* (or
    #: drifted past trusting).  These bypass the engine's own result
    #: cache: a cached report is exactly as stale as the watermark the
    #: delta path just refused to extend.  ``cold_start`` and
    #: ``head_walk_fault`` carry no such evidence, so they keep the
    #: engine's authentic caching behaviour.
    _FORCED_FALLBACKS = frozenset(
        {"ttl_expired", "count_shrunk", "anchor_lost", "delta_too_large",
         "count_mismatch"})

    def _full(self, request: AuditRequest, as_of: float,
              reason: Optional[str]):
        """Run the wrapped engine's full audit, then capture a watermark."""
        if reason is not None:
            self.fallbacks[reason] = self.fallbacks.get(reason, 0) + 1
            self._count_fallback(reason)
            self._count_outcome("fallback")
        bound = request.bound_to(self._engine.name, as_of=as_of, mode="full")
        if reason in self._FORCED_FALLBACKS and not bound.force_refresh:
            bound = replace(bound, force_refresh=True)
        report = yield from self._engine.begin_audit(bound)
        self._capture(bound, report, as_of)
        return report

    def _serve_unchanged(self, watermark: AuditWatermark) -> AuditReport:
        """Replay the watermarked baseline for an unchanged account."""
        self.served_unchanged += 1
        self._count_outcome("unchanged")
        clock = self._engine.client.clock
        live = self._obs.live
        if live is not None:
            live.on_audit(self._engine.name, clock.now(), cached=True,
                          completeness=watermark.report.completeness)
            live.note("audits.delta", clock.now())
        return watermark.report

    def _capture(self, request: AuditRequest, report: AuditReport,
                 as_of: float) -> None:
        """Watermark a finished full audit (best-effort, one head page).

        Only complete, freshly computed audits seed a watermark: a
        cached report's counts may predate the engine's last
        classification, and a degraded audit's frame is not a census
        of anything.  The capture itself costs one ``followers/ids``
        page at the audit's pinned observation instant.
        """
        if report.cached or report.completeness != 1.0:
            return
        counts = getattr(self._engine, "last_verdict_counts", None)
        if counts is None:
            return
        client = self._engine.client
        client.pin_observation(as_of)
        try:
            page = client.followers_ids(
                screen_name=request.target, count=self._anchor_depth)
        except RetryableApiError:
            return
        self._store.put(AuditWatermark(
            engine=self._engine.name,
            target=request.target,
            followers_count=report.followers_count,
            anchor_ids=tuple(int(uid) for uid in page.ids),
            verdict_counts=dict(counts),
            sample_size=report.sample_size,
            as_of=as_of,
            updated_at=as_of,
            report=report,
        ))

    # -- helpers --------------------------------------------------------------

    def _delta_cap(self) -> int:
        """Most new arrivals worth classifying incrementally.

        Beyond the engine's own full-audit sample size a fresh audit
        examines no more accounts than the delta would, so falling
        back is at worst even — and it re-examines the tail for free.
        """
        if self._max_delta is not None:
            return self._max_delta
        from .scheduler import _LANE_SAMPLES
        return _LANE_SAMPLES.get(self._engine.name, 10_000)

    def _assemble(self, counts: Mapping[str, int],
                  total: int) -> Tuple[float, float, Optional[float]]:
        """Merged counts -> the engine's own percentage arithmetic.

        Mirrors each engine's report assembly so a delta report of a
        census frame carries the same percentages a full audit would
        print: FC rounds each share and gives genuine the remainder;
        Twitteraudit reports fake and its complement; the two
        three-class commercial tools use largest-remainder rounding.
        """
        fake = counts.get("fake", 0)
        inactive = counts.get("inactive", 0)
        if self._engine.name == "fc":
            fake_pct = round(100.0 * fake / total, 1)
            inactive_pct = round(100.0 * inactive / total, 1)
            return (fake_pct, round(100.0 - fake_pct - inactive_pct, 1),
                    inactive_pct)
        if not self._engine.reports_inactive:
            fake_pct = round(100.0 * fake / total, 1)
            return fake_pct, round(100.0 - fake_pct, 1), None
        from ..analytics.base import percentages
        pct = percentages({"fake": fake, "inactive": inactive,
                           "good": total - fake - inactive}, total)
        return pct["fake"], pct["good"], pct["inactive"]

    # -- telemetry ------------------------------------------------------------

    def _count_outcome(self, outcome: str) -> None:
        counter = self._outcome_counters.get(outcome)
        if counter is None:
            counter = self._registry.counter(
                "delta_audits_total",
                help="delta-mode audit requests by outcome",
                engine=self._engine.name, outcome=outcome)
            self._outcome_counters[outcome] = counter
        counter.inc()

    def _count_fallback(self, reason: str) -> None:
        counter = self._fallback_counters.get(reason)
        if counter is None:
            counter = self._registry.counter(
                "delta_fallbacks_total",
                help="delta audits degraded to full audits, by reason",
                engine=self._engine.name, reason=reason)
            self._fallback_counters[reason] = counter
        counter.inc()

    def _note_pages(self, pages: int) -> None:
        self.head_pages += pages
        if pages <= 0:
            return
        if self._pages_counter is None:
            self._pages_counter = self._registry.counter(
                "delta_head_pages_total",
                help="followers/ids pages fetched by anchored head walks",
                engine=self._engine.name)
        self._pages_counter.inc(pages)

    def _note_classified(self, count: int) -> None:
        self.new_classified += count
        if count <= 0:
            return
        if self._classified_counter is None:
            self._classified_counter = self._registry.counter(
                "delta_new_followers_total",
                help="new-head arrivals classified by delta merges",
                engine=self._engine.name)
        self._classified_counter.inc(count)
