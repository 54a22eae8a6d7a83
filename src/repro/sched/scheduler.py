"""The rate-limit-aware batch audit scheduler.

The paper's authors audited each target with each tool **serially** —
one engine, one target, one fresh rate-limit window at a time — which
is faithful to how a human drives four web dashboards, but wasteful
when reproducing Table III over a whole testbed: the four engines'
crawlers are independent credential pools, so their acquisitions can
run side by side on the simulated clock, and repeated requests for the
same raw material can be shared or coalesced outright.

:class:`BatchAuditScheduler` models that operator.  Work is organised
into **lanes**, one per engine; each lane runs ``lane_slots``
independent engine instances ("slots"), each with its own virtual
clock and its own credential pool (``reset_budgets`` per audit — the
same credential-rotation assumption the serial experiments make).  A
deterministic event loop always advances the slot whose clock is
furthest behind, so acquisition steps of many audits interleave across
simulated rate-limit windows exactly as concurrent crawlers would,
while remaining reproducible to the byte for a fixed seed.

Three mechanisms keep a batch's *results* identical to the serial
baseline's even though its *timing* is radically different:

* **observation pinning** — every request is pinned to the batch's
  admission epoch (``as_of``), so world reads see the social graph
  frozen at one instant regardless of when each step lands on a clock;
* **audit-index assignment** — each request carries the per-lane
  sampling index it would have had in a serial run, reproducing the
  engines' RNG streams;
* **duplicate coalescing** — identical ``(lane, target,
  force_refresh)`` submissions fold into one execution, so repeats
  cannot even *potentially* diverge.

Backpressure is explicit: a bounded queue (``max_pending``) and an
advisory makespan budget (``makespan_budget``) reject further
submissions with :class:`~repro.core.errors.SchedulerSaturatedError`
instead of letting a batch grow without bound.
"""

from __future__ import annotations

import heapq
import math
from collections import deque
from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Tuple, Union

from ..api.ratelimit import DEFAULT_POLICIES
from ..audit import ENGINE_NAMES, AuditRequest, Auditor, build_engines
from ..core.clock import SimClock
from ..core.errors import (
    ConfigurationError,
    NotFoundError,
    QuotaExceededError,
    ReproError,
    RetryableApiError,
    SchedulerSaturatedError,
    UnknownAccountError,
)

#: Failures that spoil one batch item without sinking the whole batch:
#: admission refusals (quota), bad targets, and API errors that
#: survived the engines' own retry budget.
_ITEM_ERRORS = (QuotaExceededError, ConfigurationError, NotFoundError,
                UnknownAccountError, RetryableApiError)
from ..obs.runtime import get_observability
from .cache import AcquisitionCache
from .incremental import DeltaAuditor, WatermarkStore
from .report import BatchItem, BatchReport, LaneSummary

#: Crawler shape (credentials, parallelism) of each engine, mirroring
#: the engines' own constructor defaults; used only by the *advisory*
#: admission-time cost estimate.
_LANE_FLEETS: Mapping[str, Tuple[int, int]] = {
    "fc": (1, 1),
    "twitteraudit": (8, 2),
    "statuspeople": (4, 1),
    "socialbakers": (64, 512),
}

#: Follower frame each engine acquires (None = the whole list).
_LANE_FRAMES: Mapping[str, Optional[int]] = {
    "fc": None,
    "twitteraudit": 5000,
    "statuspeople": 35_000,
    "socialbakers": 2000,
}

#: Profile sample each engine looks up.
_LANE_SAMPLES: Mapping[str, int] = {
    "fc": 9604,
    "twitteraudit": 5000,
    "statuspeople": 700,
    "socialbakers": 2000,
}


def estimate_audit_seconds(engine: str, followers_count: int,
                           *, latency: float = 1.9) -> float:
    """Rough acquisition time of one fresh audit, for admission control.

    Table I arithmetic against fresh windows: follower-id pages at
    their bucket's burst-then-refill schedule, profile lookups batched
    100 per call, plus one timeline call per sampled follower for the
    timeline-hungry Socialbakers.  Deliberately ignores caching,
    coalescing and faults — it is an *advisory* upper-bound estimate,
    not a simulation.
    """
    if engine not in _LANE_FLEETS:
        raise ConfigurationError(
            f"unknown engine {engine!r}; choose from {ENGINE_NAMES}")
    credentials, parallelism = _LANE_FLEETS[engine]
    per_request = latency / parallelism
    frame = _LANE_FRAMES[engine]
    framed = followers_count if frame is None else min(followers_count, frame)
    sampled = min(_LANE_SAMPLES[engine], framed)

    def phase(resource: str, requests: int) -> float:
        policy = DEFAULT_POLICIES[resource]
        if requests <= 0:
            return 0.0
        burst = policy.window_budget * credentials
        rate = policy.requests_per_minute * credentials / 60.0
        throttled = max(0.0, requests - burst) / rate
        return requests * per_request + throttled

    pages = math.ceil(framed / DEFAULT_POLICIES[
        "followers/ids"].elements_per_request) if framed else 1
    seconds = phase("followers/ids", pages)
    seconds += phase("users/lookup", 1 + math.ceil(sampled / DEFAULT_POLICIES[
        "users/lookup"].elements_per_request))
    if engine == "socialbakers":
        seconds += phase("statuses/user_timeline", sampled)
    return seconds


@dataclass
class _Slot:
    """One engine instance of a lane, with its own clock."""

    engine: Auditor
    clock: SimClock
    index: int
    item: Optional[BatchItem] = None
    steps: Optional[object] = None
    #: Lazily built :class:`~repro.sched.incremental.DeltaAuditor`
    #: wrapper, created the first time a ``mode="delta"`` request
    #: lands on this slot.
    delta: Optional[DeltaAuditor] = None


class _Lane:
    """One engine's scheduling lane: a queue shared by its slots."""

    def __init__(self, name: str, slots: List[_Slot]) -> None:
        self.name = name
        self.slots = slots
        self.queue: "deque[BatchItem]" = deque()
        self.pending: List[BatchItem] = []
        self.assigned_indices = 0
        self.estimated_backlog = 0.0


class BatchAuditScheduler:
    """Deterministic rate-limit-aware scheduler over the audit engines.

    Parameters
    ----------
    world, clock:
        The simulated Twitter and the *caller's* clock.  Batch runs
        execute on per-slot clocks and advance the caller's clock by
        the batch makespan when they finish.
    engines:
        Engine lane names (a subset of
        :data:`~repro.audit.ENGINE_NAMES`); default all four.
    lane_slots:
        Independent engine instances per lane — the "how many crawler
        deployments of this tool do I run" knob.  Serial mode always
        uses one.
    detector:
        Optional pre-trained FC detector; trained once (from ``seed``)
        and shared by every FC slot when omitted.
    seed, faults, retry:
        Forwarded to every engine instance, so each slot crawls under
        the same deterministic sampling and API weather rules.
    shared_cache:
        Share one :class:`~repro.sched.cache.AcquisitionCache` across
        all lanes of a batch run (cleared at each ``run()``).  Forced
        off in serial mode so the baseline stays a faithful replay of
        the paper's one-tool-at-a-time methodology.
    serial:
        Run admissions one after another on the caller's clock — the
        baseline the throughput benchmark compares against.
    max_pending / makespan_budget:
        Backpressure bounds; see :meth:`submit`.
    sb_daily_quota:
        Socialbakers quota override, lifted by default as in the
        experiment runners (each slot is its own free-tier account).
    provenance:
        Optional :class:`~repro.obs.provenance.ProvenanceCollector`
        shared by every slot's engines; batch digests are unchanged
        (``BatchItem`` never serializes report details).
    watermarks:
        Optional :class:`~repro.sched.incremental.WatermarkStore`
        backing ``mode="delta"`` requests.  Defaults to the shared
        acquisition cache's store (which survives the per-run cache
        clear) or, without a shared cache, a private store.  Inject
        one explicitly to carry watermarks across scheduler instances
        — e.g. a monitoring loop that builds a fresh scheduler per
        alert burst but wants the Nth re-audit of an account to extend
        the first audit's baseline.
    """

    def __init__(self, world, clock: SimClock, *,
                 engines: Optional[Sequence[str]] = None,
                 lane_slots: int = 2,
                 detector=None,
                 seed: int = 5,
                 faults=None,
                 retry=None,
                 shared_cache: bool = True,
                 serial: bool = False,
                 max_pending: Optional[int] = None,
                 makespan_budget: Optional[float] = None,
                 sb_daily_quota: Optional[int] = 10**9,
                 provenance=None,
                 watermarks: Optional[WatermarkStore] = None) -> None:
        if lane_slots < 1:
            raise ConfigurationError(f"lane_slots must be >= 1: {lane_slots!r}")
        if max_pending is not None and max_pending < 1:
            raise ConfigurationError(
                f"max_pending must be >= 1 or None: {max_pending!r}")
        if makespan_budget is not None and makespan_budget <= 0:
            raise ConfigurationError(
                f"makespan_budget must be positive: {makespan_budget!r}")
        names = tuple(engines) if engines is not None else ENGINE_NAMES
        unknown = set(names) - set(ENGINE_NAMES)
        if unknown:
            raise ConfigurationError(
                f"unknown engines: {sorted(unknown)!r}; "
                f"choose from {ENGINE_NAMES}")
        self._world = world
        self._clock = clock
        self._serial = bool(serial)
        self._slots_per_lane = 1 if self._serial else lane_slots
        self._max_pending = max_pending
        self._makespan_budget = makespan_budget
        self._seed = seed
        self._faults = faults
        self._retry = retry
        self._sb_daily_quota = sb_daily_quota
        self._cache = (AcquisitionCache() if shared_cache and not self._serial
                       else None)
        if watermarks is not None:
            self._watermarks = watermarks
        elif self._cache is not None:
            self._watermarks = self._cache.watermarks
        else:
            self._watermarks = WatermarkStore()
        if detector is None and "fc" in names:
            from ..fc.engine import default_detector
            detector = default_detector(seed)
        self._lanes: Dict[str, _Lane] = {}
        for name in names:
            slots = []
            for slot_index in range(self._slots_per_lane):
                slot_clock = clock if self._serial else SimClock(clock.now())
                engine_map = build_engines(
                    world, slot_clock, detector, seed,
                    faults=faults, retry=retry, engines=(name,),
                    acquisition_cache=self._cache,
                    sb_daily_quota=sb_daily_quota,
                    provenance=provenance)
                slots.append(_Slot(engine=engine_map[name], clock=slot_clock,
                                   index=slot_index))
            self._lanes[name] = _Lane(name, slots)
        self._lane_order = tuple(names)
        self._seq = 0
        self._coalesced_hits = 0
        self._coalesce_map: Dict[Tuple[str, str, bool, str], BatchItem] = {}
        obs = get_observability()
        self._obs = obs
        self._registry = obs.registry
        self._tracer = obs.tracer
        self._queue_gauge = None
        self._requests_counters: Dict[str, object] = {}
        self._coalesced_counter = None
        self._makespan_gauge = None
        self._utilization_gauges: Dict[Tuple[str, str], object] = {}

    # -- introspection --------------------------------------------------------

    @property
    def serial(self) -> bool:
        """Whether this scheduler runs the serial baseline mode."""
        return self._serial

    @property
    def lanes(self) -> Tuple[str, ...]:
        """Engine lane names, in admission order."""
        return self._lane_order

    @property
    def acquisition_cache(self) -> Optional[AcquisitionCache]:
        """The shared acquisition cache (``None`` in serial mode)."""
        return self._cache

    @property
    def watermarks(self) -> WatermarkStore:
        """The watermark store backing ``mode="delta"`` requests."""
        return self._watermarks

    def engine(self, lane: str, slot: int = 0) -> Auditor:
        """The engine instance serving ``lane``'s ``slot`` (e.g. to prewarm)."""
        return self._lane(lane).slots[slot].engine

    def pending_count(self) -> int:
        """Admitted-but-not-yet-run items across all lanes."""
        return sum(len(lane.pending) for lane in self._lanes.values())

    def _lane(self, name: str) -> _Lane:
        lane = self._lanes.get(name)
        if lane is None:
            raise ConfigurationError(
                f"no lane for engine {name!r}; this scheduler runs "
                f"{self._lane_order}")
        return lane

    # -- admission ------------------------------------------------------------

    def submit(self, request: Union[AuditRequest, str]) -> List[BatchItem]:
        """Admit one audit request, returning its batch items.

        A request whose ``engine`` is ``None`` fans out to every lane
        (one item per engine); a bound request lands on its engine's
        lane only.  A duplicate of a still-pending ``(lane, target,
        force_refresh, mode)`` combination **coalesces** — no new work
        is queued, the existing item is returned and its ``coalesced``
        count incremented.  ``mode`` is part of the key because a
        delta re-audit and a full audit of the same target are *not*
        interchangeable answers (one may replay a watermarked
        baseline, the other re-examines the whole frame).

        Raises :class:`SchedulerSaturatedError` when the pending queue
        is at ``max_pending``, or when ``makespan_budget`` is set and
        the projected makespan (an advisory Table I estimate) would
        exceed it.
        """
        if isinstance(request, str):
            request = AuditRequest(target=request)
        targets = ([request.bound_to(name) for name in self._lane_order]
                   if request.engine is None else [request])
        items: List[BatchItem] = []
        for bound in targets:
            lane = self._lane(bound.engine)
            key = (bound.engine, bound.target.lower(), bound.force_refresh,
                   bound.mode)
            existing = self._coalesce_map.get(key)
            if existing is not None and not existing.done:
                existing.coalesced += 1
                self._coalesced_hits += 1
                self._coalesced_metric()
                now = self._clock.now()
                # Zero-duration marker: the fold costs no simulated time,
                # but the timeline should show the duplicate arriving.
                self._tracer.record("sched.coalesce", now, now,
                                    lane=lane.name, target=bound.target,
                                    seq=existing.seq)
                items.append(existing)
                continue
            self._check_admission(lane, bound)
            item = BatchItem(request=bound, seq=self._seq, lane=lane.name)
            self._seq += 1
            lane.pending.append(item)
            self._coalesce_map[key] = item
            if self._makespan_budget is not None:
                lane.estimated_backlog += self._estimate(lane.name,
                                                         bound.target)
            items.append(item)
        self._set_queue_depth()
        return items

    def submit_batch(self, requests: Sequence[Union[AuditRequest, str]]
                     ) -> List[BatchItem]:
        """Admit many requests (in order), returning all their items."""
        items: List[BatchItem] = []
        for request in requests:
            items.extend(self.submit(request))
        return items

    def _check_admission(self, lane: _Lane, request: AuditRequest) -> None:
        if (self._max_pending is not None
                and self.pending_count() >= self._max_pending):
            raise SchedulerSaturatedError(
                f"pending queue is full ({self._max_pending} items); "
                f"run() the batch before submitting more")
        if self._makespan_budget is None:
            return
        added = self._estimate(lane.name, request.target)
        slots = self._slots_per_lane
        projected = max(
            (other.estimated_backlog + (added if other is lane else 0.0))
            / slots
            for other in self._lanes.values())
        if projected > self._makespan_budget:
            raise SchedulerSaturatedError(
                f"projected makespan {projected:.0f}s exceeds the "
                f"{self._makespan_budget:.0f}s budget "
                f"(lane {lane.name!r})")

    def _estimate(self, lane: str, target: str) -> float:
        try:
            account = self._world.account_by_name(target, self._clock.now())
            followers = account.followers_count
        except ReproError:
            followers = 0
        return estimate_audit_seconds(lane, followers)

    # -- execution ------------------------------------------------------------

    def run(self) -> BatchReport:
        """Execute every pending item and return the batch report.

        The admission epoch is the caller clock's *now*: unpinned
        requests are pinned to it, the shared cache (if any) is cleared
        for it, and per-lane ``audit_index`` values are assigned in
        fairness order.  On return the caller's clock has advanced by
        exactly the batch makespan.
        """
        epoch = self._clock.now()
        if self._cache is not None:
            self._cache.clear()
        run_items: List[BatchItem] = []
        for name in self._lane_order:
            lane = self._lanes[name]
            ordered = self._fair_order(lane.pending)
            lane.pending = []
            lane.estimated_backlog = 0.0
            for item in ordered:
                lane.assigned_indices += 1
                item.audit_index = lane.assigned_indices
                as_of = item.request.as_of
                if as_of is None:
                    as_of = epoch
                item.request = item.request.bound_to(
                    lane.name, as_of=as_of, audit_index=item.audit_index)
                lane.queue.append(item)
                run_items.append(item)
        run_items.sort(key=lambda item: item.seq)

        if self._serial:
            makespan = self._run_serial(epoch)
        else:
            makespan = self._run_scheduled(epoch)
        self._set_queue_depth()
        self._publish_run_metrics(makespan)
        live = self._obs.live
        if live is not None:
            # Keyed to the admission epoch (mode-invariant), not the
            # finish instant (which depends on the scheduling mode).
            live.on_batch_run(epoch, makespan, executed=len(run_items))

        lanes = []
        for name in self._lane_order:
            lane = self._lanes[name]
            lane_items = [item for item in run_items if item.lane == name]
            busy = sum((item.finished_at or 0.0) - (item.started_at or 0.0)
                       for item in lane_items if item.started_at is not None)
            errors = sum(
                1 for item in lane_items if item.error is not None)
            lanes.append(LaneSummary(
                lane=name, slots=len(lane.slots), items=len(lane_items),
                errors=errors, busy_seconds=busy))
            if lane_items:
                # A lane's extent is only known once the batch is done, so
                # it is recorded post hoc: admission epoch to last finish.
                lane_end = max(
                    (item.finished_at for item in lane_items
                     if item.finished_at is not None), default=epoch)
                self._tracer.record(
                    "sched.lane", epoch, lane_end, lane=name,
                    slots=len(lane.slots), items=len(lane_items),
                    errors=errors, busy_seconds=busy)
        return BatchReport(
            epoch=epoch,
            makespan_seconds=makespan,
            serial=self._serial,
            items=tuple(run_items),
            lanes=tuple(lanes),
            coalesced_hits=self._coalesced_hits,
            cache_stats=self._cache.stats() if self._cache is not None else {},
        )

    @staticmethod
    def _fair_order(items: List[BatchItem]) -> List[BatchItem]:
        """Priority-then-round-robin-across-targets ordering of a lane.

        Higher ``priority`` first; within one priority band, targets
        take turns (a target's second request queues behind every other
        target's first), ties broken by admission sequence — all
        deterministic.
        """
        seen: Dict[Tuple[int, str], int] = {}
        keyed = []
        for item in sorted(items, key=lambda i: (-i.request.priority, i.seq)):
            band = (item.request.priority, item.request.target.lower())
            rank = seen.get(band, 0)
            seen[band] = rank + 1
            keyed.append(((-item.request.priority, rank, item.seq), item))
        return [item for __, item in sorted(keyed, key=lambda pair: pair[0])]

    def _run_serial(self, epoch: float) -> float:
        for name in self._lane_order:
            lane = self._lanes[name]
            slot = lane.slots[0]
            while lane.queue:
                item = lane.queue.popleft()
                item.slot = slot.index
                item.started_at = slot.clock.now()
                with self._tracer.span(
                        "sched.slot.step", slot.clock, lane=name,
                        slot=slot.index, seq=item.seq,
                        target=item.request.target):
                    try:
                        item.report = self._auditor_for(
                            slot, item.request).audit(item.request)
                    except _ITEM_ERRORS as error:
                        item.error = f"{type(error).__name__}: {error}"
                item.finished_at = slot.clock.now()
                self._count_request(name)
                self._forget(item)
        return self._clock.now() - epoch

    def _run_scheduled(self, epoch: float) -> float:
        lanes = [self._lanes[name] for name in self._lane_order]
        heap: List[Tuple[float, int, int]] = []
        for lane_idx, lane in enumerate(lanes):
            for slot in lane.slots:
                if slot.clock.now() < epoch:
                    slot.clock.advance_to(epoch)
                if lane.queue:
                    heapq.heappush(
                        heap, (slot.clock.now(), lane_idx, slot.index))
        while heap:
            __, lane_idx, slot_idx = heapq.heappop(heap)
            lane = lanes[lane_idx]
            slot = lane.slots[slot_idx]
            starting = slot.item is None
            if starting:
                if not lane.queue:
                    continue
                item = lane.queue.popleft()
                item.slot = slot.index
                item.started_at = slot.clock.now()
            else:
                item = slot.item
            # One span per event-loop step, opened and closed within this
            # iteration: a span held open across steps of *other* slots
            # would corrupt the tracer's single nesting stack, so the
            # whole-audit extent lives on the BatchItem, not on a span.
            with self._tracer.span(
                    "sched.slot.step", slot.clock, lane=lane.name,
                    slot=slot.index, seq=item.seq,
                    target=item.request.target):
                if starting:
                    try:
                        slot.steps = self._auditor_for(
                            slot, item.request).begin_audit(item.request)
                        slot.item = item
                    except _ITEM_ERRORS as error:
                        self._finish(lane, slot, item, error=error)
                        heapq.heappush(
                            heap, (slot.clock.now(), lane_idx, slot.index))
                        continue
                try:
                    next(slot.steps)
                except StopIteration as stop:
                    self._finish(lane, slot, item, report=stop.value)
                except _ITEM_ERRORS as error:
                    self._finish(lane, slot, item, error=error)
            if slot.item is not None or lane.queue:
                heapq.heappush(heap, (slot.clock.now(), lane_idx, slot.index))
        makespan = max(
            (slot.clock.now() - epoch
             for lane in lanes for slot in lane.slots), default=0.0)
        self._clock.advance(makespan)
        return makespan

    def _auditor_for(self, slot: _Slot, request: AuditRequest) -> Auditor:
        """The slot's engine, wrapped for delta when the request asks.

        The wrapper is built once per slot and kept: its watermark
        store is the scheduler-wide one, so every slot of a lane (and
        every scheduler sharing an injected store) extends the same
        baselines.
        """
        if request.mode != "delta":
            return slot.engine
        if slot.delta is None:
            slot.delta = DeltaAuditor(slot.engine, self._watermarks)
        return slot.delta

    def _finish(self, lane: _Lane, slot: _Slot, item: BatchItem, *,
                report=None, error: Optional[BaseException] = None) -> None:
        if report is not None:
            item.report = report
        if error is not None:
            item.error = f"{type(error).__name__}: {error}"
        item.finished_at = slot.clock.now()
        slot.item = None
        slot.steps = None
        self._count_request(lane.name)
        self._forget(item)

    def _forget(self, item: BatchItem) -> None:
        key = (item.lane, item.request.target.lower(),
               item.request.force_refresh, item.request.mode)
        if self._coalesce_map.get(key) is item:
            del self._coalesce_map[key]

    # -- metrics --------------------------------------------------------------

    def _set_queue_depth(self) -> None:
        if self._queue_gauge is None:
            self._queue_gauge = self._registry.gauge(
                "sched_queue_depth",
                help="audit requests admitted but not yet executed")
        self._queue_gauge.set(float(self.pending_count()))

    def _coalesced_metric(self) -> None:
        if self._coalesced_counter is None:
            self._coalesced_counter = self._registry.counter(
                "sched_coalesced_hits_total",
                help="duplicate submissions folded into pending items")
        self._coalesced_counter.inc()

    def _count_request(self, lane: str) -> None:
        counter = self._requests_counters.get(lane)
        if counter is None:
            counter = self._registry.counter(
                "sched_requests_total",
                help="audit requests executed by the scheduler",
                lane=lane)
            self._requests_counters[lane] = counter
        counter.inc()

    def _publish_run_metrics(self, makespan: float) -> None:
        if self._makespan_gauge is None:
            self._makespan_gauge = self._registry.gauge(
                "sched_makespan_seconds",
                help="simulated wall time of the last batch run")
        self._makespan_gauge.set(makespan)
        if makespan <= 0:
            return
        for name in self._lane_order:
            lane = self._lanes[name]
            credentials, __ = _LANE_FLEETS[name]
            for resource, policy in DEFAULT_POLICIES.items():
                issued = sum(slot.engine.client.call_log.count(resource)
                             for slot in lane.slots)
                if issued == 0:
                    continue
                capacity = len(lane.slots) * credentials * (
                    policy.window_budget
                    + policy.requests_per_minute * makespan / 60.0)
                utilization = min(1.0, issued / capacity) if capacity else 0.0
                gauge = self._utilization_gauges.get((name, resource))
                if gauge is None:
                    gauge = self._registry.gauge(
                        "sched_window_utilization",
                        help="issued requests over the rate-limit capacity "
                             "spanned by the batch",
                        lane=name, resource=resource)
                    self._utilization_gauges[(name, resource)] = gauge
                gauge.set(utilization)
