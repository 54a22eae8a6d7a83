"""A monitored fleet on live telemetry: the ``repro monitor`` workload.

The paper's introduction is one account watched by one monitor; an
operator running such a watchdog in production watches a *fleet* and
needs to know, continuously, whether the watchdog itself is healthy.
This module stages that scenario end to end on arrival schedules:

* ``accounts`` organically growing targets in one lazy
  :class:`~repro.twitter.SyntheticWorld`, whose arrival schedules carry
  the growth (the buyer's purchase is a
  :class:`~repro.twitter.PostRefBurst`), so nothing is materialised up
  front and a thousand-target fleet costs registration time only;
* a :class:`~repro.growth.GrowthMonitor` polling the whole fleet daily
  through ``users/lookup`` pages
  (:meth:`~repro.growth.GrowthMonitor.poll_fleet`, 100 profiles per
  request) under a deterministic :class:`~repro.faults.FaultPlan` (a
  mid-run 503 storm degrades poll success);
* a :class:`~repro.obs.live.LiveTelemetry` plane: poll-success SLO with
  dual-window burn-rate alerting, the detector bridge raising
  ``burst:<handle>`` alerts when one target buys followers mid-run;
* burst alerts trigger an on-demand FC audit through the batch
  scheduler on a **detached** clock, so investigation cost never skews
  the monitoring timeline;
* a :class:`~repro.obs.live.FleetDashboard` snapshotting every tick.

Everything is keyed to the fleet clock's tick instants, which are
identical whether alert-triggered audits run serially or scheduled —
so snapshots and the alert log are byte-identical across the two modes
(the CI smoke job diffs them against goldens).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Dict, List, Optional, Tuple

from ..audit import AuditRequest
from ..core.clock import SimClock
from ..core.errors import ConfigurationError
from ..core.timeutil import DAY, PAPER_EPOCH
from ..faults.plan import BurstSchedule, FaultPlan, InjectorSpec
from ..growth import BurstDetector, GrowthMonitor
from ..obs.live import (
    DetectorBridge,
    FleetDashboard,
    LiveTelemetry,
    SloSpec,
)
from ..obs.provenance import ProvenanceCollector
from ..obs.runtime import Observability, get_observability, observed
from ..sched import BatchAuditScheduler, WatermarkStore
from ..twitter import add_simple_target, build_world, fake_purchase_burst

#: Streams shown on the dashboard, in display order.  The list is
#: explicit (not "everything registered") so the snapshot shape is
#: stable even if instrumented components grow new streams.
FLEET_PANELS: Tuple[str, ...] = (
    "polls.total",
    "polls.ok",
    "polls.failed",
    "polls.faults",
    "followers.fleet",
    "api.requests",
    "api.errors",
    "api.retries",
    "audits.completed",
    "audits.fc",
    "sched.batch_runs",
    "sched.batch_audits",
)

#: Drift panels added when ``FleetSpec.provenance`` is on: the
#: per-window FC rule-fire streams the provenance collector feeds
#: through the live plane (sample sizes plus one stream per rule).
RULE_PANELS: Tuple[str, ...] = (
    "rules.fc",
    "rules.fc.fc.inactive_90d",
    "rules.fc.fc.classifier_fake",
)


@dataclass(frozen=True)
class FleetSpec:
    """Everything that parameterises one fleet-monitoring run.

    The default scenario (200 ticks) contains two incidents: target
    ``fleet_1`` buys ``purchase_quantity`` followers on tick
    ``purchase_tick`` (a burst alert next poll), and a 503 storm hits
    the poll path for ``storm_days`` days from ``storm_start_tick``
    (a burn-rate page that resolves once the fast window drains).
    """

    seed: int = 42
    accounts: int = 3
    ticks: int = 200
    organic_per_day: float = 150.0
    purchase_tick: int = 30
    purchase_quantity: int = 4000
    storm_start_tick: int = 60
    storm_days: int = 4
    fault_probability: float = 0.02
    storm_multiplier: float = 45.0
    slo_objective: float = 0.98
    burn_threshold: float = 10.0
    burst_threshold: float = 6.0
    burst_min_excess: int = 500
    snapshot_every: int = 1
    serial: bool = False
    #: Record rule-level provenance on alert-triggered FC audits and
    #: add the ``rules.fc*`` drift panels to the dashboard.  Off by
    #: default: the golden alert logs and snapshot shapes are
    #: byte-identical unless asked for.
    provenance: bool = False
    #: Always ``True``: the arrival-schedule fleet is the only fleet.
    #: Kept only because the host-time benchmark passes
    #: ``columnar=True``; ``False`` (the deleted graph fleet) raises.
    columnar: bool = True
    #: Audit alerted accounts with ``mode="delta"`` requests backed by
    #: one run-wide watermark store: the first audit of a handle is a
    #: full audit that leaves a watermark, every re-audit walks only
    #: the follower-list head (see :mod:`repro.sched.incremental`).
    delta: bool = False
    #: Every N ticks (0 = never), re-audit every previously alerted
    #: handle — the watchlist workload where delta re-audits pay off.
    reaudit_every: int = 0
    #: Historical follower base of each target (plus a small
    #: deterministic per-index spread).
    base_followers: int = 900

    def __post_init__(self) -> None:
        if not self.columnar:
            raise ConfigurationError(
                "columnar=False selected the event-driven graph fleet, "
                "which was removed; the arrival-schedule fleet is the "
                "only fleet")
        if self.accounts < 1:
            raise ConfigurationError(
                f"accounts must be >= 1: {self.accounts!r}")
        if self.ticks < 1:
            raise ConfigurationError(f"ticks must be >= 1: {self.ticks!r}")
        if self.snapshot_every < 1:
            raise ConfigurationError(
                f"snapshot_every must be >= 1: {self.snapshot_every!r}")
        if not 0.0 < self.slo_objective < 1.0:
            raise ConfigurationError(
                f"slo_objective must be in (0, 1): {self.slo_objective!r}")
        if self.purchase_tick < 1 or self.storm_start_tick < 1:
            raise ConfigurationError(
                "purchase_tick and storm_start_tick must be >= 1")
        if self.reaudit_every < 0:
            raise ConfigurationError(
                f"reaudit_every must be >= 0: {self.reaudit_every!r}")
        if self.base_followers < 1:
            raise ConfigurationError(
                f"base_followers must be >= 1: {self.base_followers!r}")

    @cached_property
    def handles(self) -> Tuple[str, ...]:
        """The fleet's target handles, in polling order (built once)."""
        return tuple(f"fleet_{index}" for index in range(self.accounts))

    @property
    def buyer(self) -> str:
        """The handle that buys followers mid-run."""
        return self.handles[min(1, self.accounts - 1)]

    def fault_plan(self, start: float) -> FaultPlan:
        """The poll path's weather: base 503 noise plus one storm."""
        storm = BurstSchedule(
            period=(self.ticks + 400) * DAY,
            duration=self.storm_days * DAY,
            multiplier=self.storm_multiplier,
            phase=start + self.storm_start_tick * DAY,
        )
        return FaultPlan(injectors=(InjectorSpec(
            kind="transient_503",
            probability=self.fault_probability,
            resources=("users/lookup",),
            burst=storm,
        ),), seed=self.seed + 17)


@dataclass
class FleetResult:
    """Outcome of one :func:`run_monitor_fleet` run."""

    spec: FleetSpec
    live: LiveTelemetry
    snapshots: List[Dict[str, object]] = field(default_factory=list)
    frames: List[str] = field(default_factory=list)
    audits: List[Dict[str, object]] = field(default_factory=list)
    followers: Dict[str, int] = field(default_factory=dict)
    poll_failures: int = 0

    @property
    def alerts(self):
        """The run's append-only alert log."""
        return self.live.alerts

    def summary(self) -> str:
        """A compact after-action report of the run."""
        fired, resolved = self.alerts.counts()
        lines = [
            f"monitored {self.spec.accounts} accounts for "
            f"{self.spec.ticks} days "
            f"({'serial' if self.spec.serial else 'batch'} audits)",
            f"  poll failures: {self.poll_failures}",
            f"  alerts: {fired} fired, {resolved} resolved, "
            f"{len(self.alerts.active())} still active",
        ]
        for event in self.alerts.events:
            details = dict(event.details)
            extra = ""
            if event.name.startswith("burst:") and event.kind == "fire":
                extra = (f" (z = {details.get('z_score', 0.0):.1f}, "
                         f"excess ~{details.get('excess', 0.0):.0f})")
            elif event.name.startswith("slo:") and event.kind == "fire":
                extra = (f" (burn fast {details.get('fast_burn', 0.0):.1f} / "
                         f"slow {details.get('slow_burn', 0.0):.1f})")
            day = (event.time - PAPER_EPOCH) / DAY
            lines.append(
                f"    day {day:6.1f}  {event.kind:<7} {event.name}{extra}")
        for audit in self.audits:
            lines.append(
                f"  audit @{audit['handle']} on tick {audit['tick']}: "
                f"{audit['fake_pct']}% fake "
                f"({audit['sample_size']} sampled)")
        for handle in sorted(self.followers):
            lines.append(
                f"  @{handle}: {self.followers[handle]} followers")
        return "\n".join(lines)


def _build_world(spec: FleetSpec, start: float):
    """The fleet as lazy targets: growth in the arrival schedules.

    Each target trickles ``organic_per_day`` new followers; the buyer
    additionally receives its purchase as an all-fake burst exactly
    ``purchase_tick`` days in.  Nothing is materialised up front, so a
    thousand-target fleet costs registration time only.
    """
    world = build_world(seed=spec.seed, ref_time=start)
    for index, handle in enumerate(spec.handles):
        bursts = ()
        if handle == spec.buyer:
            bursts = (fake_purchase_burst(
                float(spec.purchase_tick), spec.purchase_quantity),)
        add_simple_target(
            world, handle,
            spec.base_followers + 37 * (index % 13),
            0.25, 0.10, 0.65,
            daily_new_followers=spec.organic_per_day,
            post_ref_bursts=bursts)
    return world


def _build_live(spec: FleetSpec, populations, poll_clock: SimClock,
                start: float) -> LiveTelemetry:
    """The telemetry plane: streams, SLO rule, detector bridge.

    The ``followers.fleet`` gauge sums the target ``populations`` at
    the poll clock's current instant.
    """
    live = LiveTelemetry(origin=start, pane_width=DAY)
    live.gauge_stream("followers.fleet", lambda: float(sum(
        population.size_at(poll_clock.now())
        for population in populations)))
    # Pre-create the SLO streams so evaluation never references a
    # stream that has not seen its first event yet.
    for name in ("polls.total", "polls.ok", "polls.failed"):
        live.value_stream(name)
    live.add_slo(SloSpec(
        name="poll-success",
        good_stream="polls.ok",
        total_stream="polls.total",
        objective=spec.slo_objective,
        fast_horizon=3 * DAY,
        slow_horizon=8 * DAY,
        burn_threshold=spec.burn_threshold,
        min_events=max(1, 2 * spec.accounts),
    ))
    live.attach_bridge(DetectorBridge(
        live.alerts,
        detector=BurstDetector(threshold=spec.burst_threshold,
                               min_excess=spec.burst_min_excess),
        origin=start,
    ))
    return live


def _alert_audits(spec: FleetSpec, world, handles: List[str], detector,
                  tick: int, now: float,
                  provenance: Optional[ProvenanceCollector] = None,
                  watermarks: Optional[WatermarkStore] = None
                  ) -> List[Dict[str, object]]:
    """Investigate burst alerts: FC audits on a detached clock.

    The scheduler gets a throwaway clock pinned to the fleet's current
    instant, so the (mode-dependent) makespan of the investigation
    never advances the monitoring timeline — the next poll happens at
    the same simulated instant whether audits ran serially or batched.

    With ``spec.delta`` on, requests go out as ``mode="delta"`` against
    the injected run-wide ``watermarks`` store: a handle's first audit
    is a full one that leaves a watermark, every later one walks only
    the follower-list head (and an unchanged account replays its
    watermarked report outright).
    """
    scheduler = BatchAuditScheduler(
        world, SimClock(now),
        engines=("fc",), lane_slots=1,
        detector=detector, seed=spec.seed,
        shared_cache=False, serial=spec.serial,
        provenance=provenance,
        watermarks=watermarks)
    mode = "delta" if spec.delta else "full"
    for handle in handles:
        scheduler.submit(AuditRequest(target=handle, as_of=now, mode=mode))
    batch = scheduler.run()
    outcomes = []
    for item in batch.items:
        report = item.report
        outcomes.append({
            "tick": tick,
            "handle": item.request.target,
            "engine": item.lane,
            "mode": (report.details.get("mode", "full")
                     if report is not None else mode),
            "fake_pct": report.fake_pct if report is not None else None,
            "sample_size": report.sample_size if report is not None else 0,
        })
    return outcomes


def run_monitor_fleet(spec: FleetSpec = FleetSpec(),
                      start: float = PAPER_EPOCH) -> FleetResult:
    """Run the fleet-monitoring scenario; returns the full result.

    Activates an observability context (reusing the caller's, when one
    is on) and attaches a live-telemetry plane for the duration, so
    the instrumented hot paths — API client, engines, scheduler — feed
    the streams without the workload threading a handle through them.
    """
    active = get_observability()
    context = active if isinstance(active, Observability) else None
    with observed(context) as obs:
        if obs.live is not None:
            raise ConfigurationError(
                "a live-telemetry plane is already attached; "
                "run_monitor_fleet needs its own")
        # The monitor polls over the API, which charges request latency
        # to this clock; ticks only ever advance it.
        poll_clock = SimClock(start)
        world = _build_world(spec, start)
        live = _build_live(spec, world.targets(), poll_clock, start)
        obs.attach_live(live)
        try:
            return _run_fleet(spec, world, live, poll_clock, start)
        finally:
            obs.detach_live()


def _run_fleet(spec: FleetSpec, world, live: LiveTelemetry,
               poll_clock: SimClock, start: float) -> FleetResult:
    """The daily loop: batched polls, alert-triggered audits, snapshots.

    The purchase needs no order — the buyer's arrival schedule already
    carries it as a post-reference burst — and each tick polls the
    whole fleet through ``users/lookup`` pages.  With
    ``spec.reaudit_every`` set, every previously alerted handle is
    re-audited on that cadence (the watchlist sweep that delta
    re-audits exist for).
    """
    monitor = GrowthMonitor(world, poll_clock, faults=spec.fault_plan(start))
    live.counter_stream(
        "polls.faults", lambda: float(monitor.client.faults_seen))
    panels = FLEET_PANELS + RULE_PANELS if spec.provenance else FLEET_PANELS
    dashboard = FleetDashboard(live, panels=panels,
                               horizon=3 * DAY, title="fleet health")
    result = FleetResult(spec=spec, live=live)
    collector = ProvenanceCollector() if spec.provenance else None
    watermarks = WatermarkStore() if spec.delta else None
    watchlist = set()
    fc_detector = None

    for tick in range(spec.ticks):
        tick_time = start + tick * DAY
        if poll_clock.now() < tick_time:
            poll_clock.advance_to(tick_time)
        events_before = len(live.alerts.events)
        counts = monitor.poll_fleet(spec.handles)
        at = poll_clock.now()
        for handle in spec.handles:
            live.note("polls.total", at)
            if handle in counts:
                result.followers[handle] = counts[handle]
                live.note("polls.ok", at)
            else:
                result.poll_failures += 1
                live.note("polls.failed", at)
        now = live.tick(poll_clock.now())
        burst_handles = sorted({
            event.name.split(":", 1)[1]
            for event in live.alerts.events[events_before:]
            if event.kind == "fire" and event.name.startswith("burst:")})
        due = list(burst_handles)
        if spec.reaudit_every and tick and tick % spec.reaudit_every == 0:
            due = sorted(set(due) | watchlist)
        if due:
            if fc_detector is None:
                from ..fc.engine import default_detector
                fc_detector = default_detector(spec.seed)
            result.audits.extend(_alert_audits(
                spec, world, due, fc_detector, tick, now,
                provenance=collector, watermarks=watermarks))
        watchlist.update(burst_handles)
        if tick % spec.snapshot_every == 0 or tick == spec.ticks - 1:
            snapshot = dashboard.snapshot(now, fleet={
                "followers": dict(sorted(result.followers.items())),
                "audits_run": len(result.audits),
                "poll_failures": result.poll_failures,
            })
            result.snapshots.append(snapshot)
            result.frames.append(dashboard.render(snapshot))
    return result
