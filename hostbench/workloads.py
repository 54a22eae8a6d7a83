"""The host benchmark's workloads: set-up, one measured round, gates.

Each workload drives the package only through its public entry points
and is built entirely from the ``seed`` it is given.  A *round* is the
unit the runner repeats until the measuring time is spent; every round
of one process does the same work, so rounds can be timed and counted
interchangeably.  Correctness gates check the program's outputs by
properties that survive a legitimate change of the random streams:
tolerances against ground truth, alerts naming the right account, and
exact equalities that the delta design guarantees.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from time import perf_counter
from typing import Dict, List


@dataclass
class RoundResult:
    """What one round attempted, how much of it failed, and why."""

    attempted: int = 0
    failed: int = 0
    problems: List[str] = field(default_factory=list)

    @property
    def completed(self) -> int:
        """Operations that did not fail."""
        return self.attempted - self.failed


def _timed_training(seed: int):
    """Train the production FC detector; returns it and its host time."""
    from repro.fc import default_detector

    start = perf_counter()
    detector = default_detector(seed)
    return detector, perf_counter() - start


def _report_problem(report) -> str:
    """Why an audit report counts as failed, or '' when it does not."""
    if report is None:
        return "no report"
    if report.completeness < 1.0:
        return f"completeness {report.completeness:.3f} < 1"
    return ""


class TestbedAudit:
    """``run_table3`` over a stratified Table III subset, four engines.

    One round is one batch-mode ``run_table3`` call over one low, one
    average and one high-tier account.  Set-up trains the FC detector
    the call is given; the call builds its own world, so world
    construction is measured with the round.
    """

    name = "testbed-audit"
    #: One account per tier: low, average, high.
    HANDLES = ("davc", "StefanoBollani", "David_Cameron")
    #: FC-vs-ground-truth tolerances (percentage points) of the
    #: repository's Table III benchmark.
    INACTIVE_TOLERANCE = 5.0
    FAKE_TOLERANCE = 4.0

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.detector = None

    def prepare(self) -> Dict[str, float]:
        """One set-up repetition; returns its components' host times."""
        self.detector, train_s = _timed_training(self.seed)
        return {"fc_train": train_s}

    def run_round(self) -> RoundResult:
        """One ``run_table3`` call, with its reports checked."""
        from repro.experiments import PAPER_ACCOUNTS_BY_HANDLE, run_table3

        accounts = [PAPER_ACCOUNTS_BY_HANDLE[h] for h in self.HANDLES]
        rows, __ = run_table3(seed=self.seed, accounts=accounts,
                              detector=self.detector)
        result = RoundResult(attempted=4 * len(accounts))
        if len(rows) != len(accounts):
            result.problems.append(
                f"{len(rows)} Table III rows for {len(accounts)} accounts")
        for row in rows:
            handle = row.account.handle
            for tool in ("fc", "twitteraudit", "statuspeople",
                         "socialbakers"):
                report = row.reports.get(tool)
                problem = _report_problem(report)
                if not problem and tool == "fc":
                    problem = self._fc_problem(report, row.truth)
                if problem:
                    result.failed += 1
                    result.problems.append(f"{tool} @{handle}: {problem}")
        return result

    def _fc_problem(self, report, truth) -> str:
        truth_inactive, truth_fake, __ = truth
        if abs(report.inactive_pct - truth_inactive) > self.INACTIVE_TOLERANCE:
            return (f"FC inactive {report.inactive_pct} vs truth "
                    f"{truth_inactive}")
        if abs(report.fake_pct - truth_fake) > self.FAKE_TOLERANCE:
            return f"FC fake {report.fake_pct} vs truth {truth_fake}"
        return ""

    def final_gates(self) -> List[str]:
        """Gates beyond the per-round checks (none for this workload)."""
        return []


class FleetMonitor:
    """``run_monitor_fleet`` on a 1000-account columnar delta fleet.

    One round is one ``run_monitor_fleet`` call.  The scenario keeps
    the program's default weather (2 % transient 503s on the poll
    path) and moves its 503 storm and the buyer's purchase inside the
    run, so both the fault/retry path and the burst-alert path execute.
    The monitor builds its world and trains its FC detector itself, so
    there is nothing to set up in the process beyond importing.
    """

    name = "fleet-monitor"
    ACCOUNTS = 1000
    TICKS = 30
    PURCHASE_TICK = 20
    STORM_START_TICK = 8
    REAUDIT_EVERY = 3

    def __init__(self, seed: int) -> None:
        from repro.experiments import FleetSpec

        self.seed = seed
        self.spec = FleetSpec(
            seed=seed, accounts=self.ACCOUNTS, columnar=True, delta=True,
            reaudit_every=self.REAUDIT_EVERY, ticks=self.TICKS,
            purchase_tick=self.PURCHASE_TICK,
            storm_start_tick=self.STORM_START_TICK)

    def prepare(self) -> Dict[str, float]:
        """Nothing to build ahead of ``run_monitor_fleet``."""
        return {}

    def run_round(self) -> RoundResult:
        """One monitoring run, gated on which accounts raised bursts."""
        from repro.experiments import run_monitor_fleet

        fleet = run_monitor_fleet(self.spec)
        polls = self.spec.accounts * self.spec.ticks
        bursts = sorted({event.name for event in fleet.alerts.events
                         if event.kind == "fire"
                         and event.name.startswith("burst:")})
        expected = [f"burst:{self.spec.buyer}"]
        result = RoundResult(attempted=polls)
        if bursts != expected:
            result.failed = polls
            result.problems.append(
                f"burst alerts {bursts}, expected {expected}")
        if not fleet.audits:
            result.problems.append("the burst alert triggered no audit")
        return result

    def final_gates(self) -> List[str]:
        """Gates beyond the per-round checks (none for this workload)."""
        return []


class DeltaSweep:
    """Daily ``mode="delta"`` sweeps over a watermarked columnar fleet.

    Set-up trains the FC detector, builds the fleet and runs the cold
    sweep that lays one watermark per account.  One round replays
    ``DAYS`` daily sweeps from those baselines through
    ``BatchAuditScheduler`` with one shared ``WatermarkStore`` (a fresh
    copy per round, so every round does the same work).  Every account
    grows organically except the static one; every fifth account buys
    a block of fakes on a staggered day.
    """

    name = "delta-sweep"
    ACCOUNTS = 20
    DAYS = 10
    PURCHASE = 500
    STATIC = "sweep_0"
    #: Buyers whose merge the equality gate replays around the purchase.
    EQUALITY_SUBSET = ("sweep_4", "sweep_9")
    #: Seconds either side of the purchase instant in the equality gate.
    GATE_GAP = 60.0

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.handles = [f"sweep_{index}" for index in range(self.ACCOUNTS)]
        self.detector = None
        self.world = None
        self.baselines = {}

    def purchase_day(self, index: int) -> int:
        """The day on which account ``index`` buys (every fifth does)."""
        return 1 + (index // 5) % self.DAYS

    def _build_world(self):
        from repro.twitter import (
            add_simple_target,
            build_columnar_world,
            fake_purchase_burst,
        )

        world = build_columnar_world(seed=self.seed)
        for index, handle in enumerate(self.handles):
            bursts = ()
            if index % 5 == 4:
                bursts = (fake_purchase_burst(
                    float(self.purchase_day(index)), self.PURCHASE),)
            add_simple_target(
                world, handle, 500 + 47 * (index % 9),
                0.20 + 0.02 * (index % 7), 0.08 + 0.01 * (index % 6),
                0.72 - 0.02 * (index % 7) - 0.01 * (index % 6),
                daily_new_followers=(0.0 if handle == self.STATIC
                                     else 12.0 + 4.0 * (index % 5)),
                post_ref_bursts=bursts)
        return world

    def _sweep(self, when: float, handles, store):
        from repro.audit import AuditRequest
        from repro.core.clock import SimClock
        from repro.sched import BatchAuditScheduler

        scheduler = BatchAuditScheduler(
            self.world, SimClock(when), engines=("fc",),
            detector=self.detector, seed=self.seed, shared_cache=False,
            watermarks=store)
        scheduler.submit_batch([
            AuditRequest(target=handle, as_of=when, mode="delta")
            for handle in handles])
        return scheduler.run()

    def prepare(self) -> Dict[str, float]:
        """Train, build the fleet, and lay watermarks with a cold sweep."""
        from repro.sched import WatermarkStore

        self.detector, train_s = _timed_training(self.seed)
        start = perf_counter()
        self.world = self._build_world()
        store = WatermarkStore()
        self._sweep(self.world.ref_time, self.handles, store)
        self.baselines = {handle: store.get("fc", handle)
                          for handle in self.handles}
        return {"fc_train": train_s, "cold_sweep": perf_counter() - start}

    def run_round(self) -> RoundResult:
        """``DAYS`` daily delta sweeps from the cold-sweep baselines."""
        from repro.core.timeutil import DAY
        from repro.sched import WatermarkStore

        result = RoundResult()
        missing = [h for h, mark in self.baselines.items() if mark is None]
        if missing:
            result.problems.append(f"cold sweep left no watermark: {missing}")
        store = WatermarkStore()
        for mark in self.baselines.values():
            if mark is not None:
                store.put(mark)
        for day in range(1, self.DAYS + 1):
            batch = self._sweep(self.world.ref_time + day * DAY,
                                self.handles, store)
            for item in batch.items:
                result.attempted += 1
                problem = _report_problem(item.report)
                if not problem and item.request.target == self.STATIC:
                    problem = self._replay_problem(item.report)
                if problem:
                    result.failed += 1
                    result.problems.append(
                        f"day {day} @{item.request.target}: {problem}")
        return result

    def _replay_problem(self, report) -> str:
        """The static account must replay its baseline counts exactly."""
        baseline = self.baselines[self.STATIC].report
        fields = ("followers_count", "sample_size", "fake_pct",
                  "inactive_pct", "genuine_pct")
        got = tuple(getattr(report, name) for name in fields)
        want = tuple(getattr(baseline, name) for name in fields)
        if got != want:
            return f"replayed {got}, baseline was {want}"
        return ""

    def final_gates(self) -> List[str]:
        """Merged counts equal a fresh full audit at the same instant.

        For each buyer in ``EQUALITY_SUBSET``: a baseline just before
        its purchase, a delta audit just after (merging the block), and
        a fresh full audit at that same instant.  Over a two-minute gap
        the design's one documented approximation (counted followers
        drifting class between the observations) has practically no
        room, so the counts must match exactly.
        """
        from repro.core.timeutil import DAY
        from repro.sched import WatermarkStore

        problems = []
        for handle in self.EQUALITY_SUBSET:
            index = self.handles.index(handle)
            purchase = self.world.ref_time + self.purchase_day(index) * DAY
            before, after = purchase - self.GATE_GAP, purchase + self.GATE_GAP
            merged_store, fresh_store = WatermarkStore(), WatermarkStore()
            self._sweep(before, [handle], merged_store)
            merged = self._sweep(after, [handle], merged_store).items[0]
            self._sweep(after, [handle], fresh_store)
            got = merged_store.get("fc", handle)
            want = fresh_store.get("fc", handle)
            if got is None or want is None:
                problems.append(f"@{handle}: equality gate left no watermark")
                continue
            if (dict(got.verdict_counts), got.sample_size) != (
                    dict(want.verdict_counts), want.sample_size):
                problems.append(
                    f"@{handle}: merged counts {dict(got.verdict_counts)} "
                    f"({got.sample_size}) != full audit "
                    f"{dict(want.verdict_counts)} ({want.sample_size})")
            if merged.report is None or merged.report.details.get(
                    "new_followers", 0) < self.PURCHASE:
                problems.append(f"@{handle}: the purchase was not merged")
        return problems


WORKLOADS = {cls.name: cls for cls in (TestbedAudit, FleetMonitor, DeltaSweep)}
