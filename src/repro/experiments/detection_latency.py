"""Detection latency vs purchase size — and what the alarm costs.

The monitoring story has two clocks.  First, how long after a purchased
block lands does the daily poller's burst detector fire?  With a robust
MAD z-score over daily arrivals the answer is sharp: any block above the
detectability floor (``max(threshold * organic scale, min_excess)``
arrivals over the organic median) fires on the very next poll, and a
block below the floor never fires at all — latency is a step function
of quantity, not a slope.  Second, once the alarm fires, what does the
*investigation* cost?  A full FC audit re-crawls the whole follower
base no matter how small the change; a watermarked delta re-audit (see
:mod:`repro.sched.incremental`) walks only the new head, so its API
bill scales with the purchase, not the account — until the block
outgrows the engine's sample frame, at which point the delta path
falls back to a full audit by design (``delta_too_large``).

This experiment sweeps the purchase quantity across that whole range on
one monitored columnar target and reports both clocks per row: latency
in polling days (or "never"), the detector's excess-based size
estimate, and the delta-vs-full API-call bill at the detection instant.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from ..audit import AuditRequest, build_engines
from ..core.clock import SimClock
from ..core.errors import ConfigurationError
from ..core.timeutil import DAY, PAPER_EPOCH
from ..fc.training import TrainedDetector
from ..growth import BurstDetector, GrowthMonitor
from ..growth.series import series_from_observations
from ..sched import DeltaAuditor, WatermarkStore
from ..twitter import add_simple_target, build_world, fake_purchase_burst


@dataclass(frozen=True)
class DetectionLatencyRow:
    """One purchase quantity's detection and investigation outcome."""

    quantity: int
    #: Polling days from the purchase landing to the first burst alert;
    #: ``None`` when the block stays under the detectability floor.
    latency_days: Optional[int]
    #: Strongest z-score at the detection instant (0 when undetected).
    z_score: float
    #: The detector's purchased-block size estimate (summed excess).
    estimated_block: int
    #: API calls of the delta re-audit at the detection instant, and of
    #: a fresh full audit of the same frame (both 0 when undetected).
    delta_api_calls: int
    full_api_calls: int
    #: What the delta path actually did: ``"delta"`` (head-only merge)
    #: or ``"full"`` (fallback, e.g. the block outgrew the frame).
    investigation_mode: str

    @property
    def detected(self) -> bool:
        """Whether the burst detector ever fired."""
        return self.latency_days is not None

    @property
    def call_reduction(self) -> float:
        """Full-audit calls per delta-audit call (1.0 = no saving)."""
        if self.delta_api_calls <= 0:
            return 1.0
        return self.full_api_calls / self.delta_api_calls


def _build_case(quantity: int, *, seed: int, base_followers: int,
                organic_per_day: float, purchase_day: int, start: float):
    """One monitored target with the purchase baked into its schedule."""
    world = build_world(seed=seed, ref_time=start)
    bursts = (fake_purchase_burst(float(purchase_day), quantity),) \
        if quantity > 0 else ()
    add_simple_target(world, "latcase", base_followers,
                      0.25, 0.10, 0.65,
                      daily_new_followers=organic_per_day,
                      post_ref_bursts=bursts)
    return world


def _investigation_costs(world, fc_detector, seed: int, start: float,
                         detect_time: float) -> Tuple[int, int, str]:
    """API bills of the two investigation strategies at ``detect_time``.

    The delta strategy took its watermarked baseline on day 0 (the
    audit an operator runs when putting an account on the watchlist);
    the full strategy audits from scratch.  Separate engines keep the
    call logs independent.
    """
    clock = SimClock(start)
    fc = build_engines(world, clock, fc_detector, seed,
                       engines=("fc",))["fc"]
    auditor = DeltaAuditor(fc, WatermarkStore())
    auditor.audit(AuditRequest(target="latcase", as_of=start, mode="delta"))
    baseline_calls = fc.client.call_log.count()
    report = auditor.audit(AuditRequest(
        target="latcase", as_of=detect_time, mode="delta"))
    delta_calls = fc.client.call_log.count() - baseline_calls

    full_fc = build_engines(world, SimClock(start), fc_detector, seed,
                            engines=("fc",))["fc"]
    full_fc.audit(AuditRequest(target="latcase", as_of=detect_time))
    full_calls = full_fc.client.call_log.count()
    return delta_calls, full_calls, report.details.get("mode", "full")


def run_detection_latency(
        *,
        quantities: Sequence[int] = (40, 500, 4000, 20000),
        base_followers: int = 30_000,
        organic_per_day: float = 150.0,
        purchase_day: int = 10,
        horizon_days: int = 30,
        seed: int = 42,
        burst_threshold: float = 6.0,
        burst_min_excess: int = 50,
        detector: TrainedDetector = None,
) -> Tuple[List[DetectionLatencyRow], str]:
    """Sweep purchase sizes; measure detection latency and audit cost."""
    if not quantities:
        raise ConfigurationError("need at least one purchase quantity")
    if not 1 <= purchase_day < horizon_days:
        raise ConfigurationError(
            "purchase_day must be within the polling horizon")
    burst_detector = BurstDetector(threshold=burst_threshold,
                                   min_excess=burst_min_excess)
    start = PAPER_EPOCH
    rows: List[DetectionLatencyRow] = []
    for quantity in quantities:
        world = _build_case(quantity, seed=seed,
                            base_followers=base_followers,
                            organic_per_day=organic_per_day,
                            purchase_day=purchase_day, start=start)
        clock = SimClock(start)
        monitor = GrowthMonitor(world, clock)
        observations: List[Tuple[float, int]] = []
        detected_day: Optional[int] = None
        z_score, estimated = 0.0, 0
        for day in range(horizon_days + 1):
            tick_time = start + day * DAY
            if clock.now() < tick_time:
                clock.advance_to(tick_time)
            observations.append(monitor.poll("latcase"))
            if day <= purchase_day or len(observations) < 5:
                continue
            events = burst_detector.detect(
                series_from_observations(observations))
            if events:
                detected_day = day
                z_score = events[0].z_score
                estimated = int(round(sum(e.excess for e in events)))
                break
        if detected_day is None:
            rows.append(DetectionLatencyRow(
                quantity=quantity, latency_days=None, z_score=0.0,
                estimated_block=0, delta_api_calls=0, full_api_calls=0,
                investigation_mode="none"))
            continue
        delta_calls, full_calls, mode = _investigation_costs(
            world, detector, seed, start, start + detected_day * DAY)
        rows.append(DetectionLatencyRow(
            quantity=quantity,
            latency_days=detected_day - purchase_day,
            z_score=z_score,
            estimated_block=estimated,
            delta_api_calls=delta_calls,
            full_api_calls=full_calls,
            investigation_mode=mode))

    from .report import TextTable
    table = TextTable(
        ["block size", "latency", "z", "est. block",
         "delta calls", "full calls", "saving", "mode"],
        title=f"detection latency vs purchase size "
              f"({base_followers} followers, "
              f"{organic_per_day:.0f}/day organic)",
    )
    for row in rows:
        latency = (f"{row.latency_days}d" if row.detected else "never")
        saving = (f"{row.call_reduction:.1f}x" if row.detected else "-")
        table.add_row(
            str(row.quantity), latency,
            f"{row.z_score:.1f}" if row.detected else "-",
            str(row.estimated_block) if row.detected else "-",
            str(row.delta_api_calls) if row.detected else "-",
            str(row.full_api_calls) if row.detected else "-",
            saving, row.investigation_mode,
        )
    return rows, table.render()
