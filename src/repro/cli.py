"""Command-line interface: run any of the paper's experiments.

Examples
--------
::

    repro table1                 # API rate limits (Table I)
    repro ordering --days 5      # follower-list ordering (Sec. IV-B)
    repro table2                 # response times (Table II)
    repro table3                 # analysis results (Table III)
    repro acquisition            # Obama-scale crawl-time model
    repro burst                  # 100K genuine + 10K bought demo
    repro deepdive               # Fakers vs Deep Dive
    repro samplesize             # n = 9604 arithmetic + coverage
    repro tacharts               # the three Twitteraudit report charts
    repro explain RobDWaller     # rule-level verdict provenance
    repro monitor                # growth monitoring / burst detection
    repro monitor --ticks 200 --dashboard   # live fleet telemetry
    repro stats trace.jsonl      # digest a (possibly mid-run) trace
    repro chaos --faults bursty  # engine robustness under API faults
    repro run chaos              # alias form: run <experiment>
    repro all                    # everything, one report

``table2``, ``table3``, ``explain``, ``batch-audit`` and ``chaos``
accept ``--faults SCENARIO`` (plus ``--fault-seed``) to rerun them under
deterministic injected API failures; see docs/faults.md.  An option the
selected command would ignore is a usage error (exit 2), never silently
dropped.
"""

from __future__ import annotations

import argparse
import pathlib
import sys
from typing import Optional, Sequence

from .audit import ENGINE_NAMES, AuditRequest
from .core.clock import SimClock
from .core.errors import ConfigurationError
from .core.timeutil import DAY, PAPER_EPOCH, isoformat
from .sched import BatchAuditScheduler
from .experiments import (
    ascii_bar_chart,
    average_accounts,
    build_paper_world,
    run_acquisition_experiment,
    run_all,
    run_deepdive_comparison,
    run_detection_latency,
    run_ordering_experiment,
    run_purchased_burst_demo,
    run_response_time_experiment,
    run_sample_size_experiment,
    run_ta_charts,
    run_table1,
    run_table3,
    validate_world,
)
from .experiments import run_chaos_experiment
from .experiments.monitor_fleet import FleetSpec, run_monitor_fleet
from .experiments.testbed import AVERAGE
from .faults import named_plan
from .faults.plan import SCENARIOS
from .growth import GrowthMonitor
from .obs import (
    activate,
    console_summary,
    deactivate,
    load_trace_jsonl,
    snapshot_to_json,
    stats_line,
    write_metrics_prom,
    write_trace_jsonl,
)
from .twitter.generator import add_simple_target, build_world


def _run_monitor_demo(*, seed: int, days: int) -> str:
    """Watch a clean and a burst-buying account for ``days`` days."""
    world = build_world(seed=seed)
    add_simple_target(world, "organic", 60_000, 0.3, 0.05, 0.65,
                      daily_new_followers=120)
    add_simple_target(world, "buyer", 60_000, 0.25, 0.18, 0.57,
                      fake_burst_fraction=0.85, fake_burst_position=0.995,
                      created_years_before=1.0, daily_new_followers=120)
    sections = []
    for handle in ("organic", "buyer"):
        clock = SimClock(PAPER_EPOCH - days * DAY)
        report = GrowthMonitor(world, clock).watch(handle, days=days)
        chart = ascii_bar_chart(
            [(f"day {day:2d}", float(count))
             for day, count in enumerate(report.series.arrivals)],
            title=f"@{handle}: new followers per day",
        )
        if report.suspicious:
            event = report.bursts[0]
            verdict = (f"ALERT: burst on {isoformat(event.start_time)[:10]} "
                       f"(z = {event.z_score:.1f}); estimated purchased "
                       f"block ~{report.purchased_estimate}")
        else:
            verdict = "no anomaly detected"
        sections.append(chart + "\n" + verdict)
    return "\n\n".join(sections)


#: ``repro monitor`` options of each mode, with their defaults.  The
#: parser leaves them out of the namespace unless typed, so a typed
#: option of the other mode can be rejected instead of ignored.
_DEMO_DEFAULTS = {"days": 21}
_FLEET_DEFAULTS = {
    "accounts": 3, "slo": 0.98, "dashboard": False, "cadence": 50,
    "alerts_out": None, "snapshots_out": None, "provenance": False,
    "delta": False, "reaudit_every": 0, "serial": False,
}

#: Subcommands that run under injected API faults (``--faults``).
_FAULT_COMMANDS = frozenset({"table2", "table3", "explain", "batch-audit",
                             "chaos"})
#: Experiments ``repro run`` can hand ``--serial`` to.
_SERIAL_COMMANDS = frozenset({"table2", "table3", "batch-audit", "chaos"})
#: Seed of the fault plan when ``--fault-seed`` is not given.
_DEFAULT_FAULT_SEED = 7


def _check_monitor_mode(parser: argparse.ArgumentParser, args) -> None:
    """Reject ``repro monitor`` options the selected mode would ignore."""
    fleet = args.ticks is not None
    if fleet and args.ticks < 1:
        parser.error("monitor --ticks must be at least 1")
    needs = ("only applies to the demo, not with --ticks" if fleet
             else "only applies to the fleet run; add --ticks N")
    for dest in (_DEMO_DEFAULTS if fleet else _FLEET_DEFAULTS):
        if hasattr(args, dest):
            parser.error(f"monitor --{dest.replace('_', '-')} {needs}")
    if not fleet:
        return
    if hasattr(args, "cadence"):
        if not hasattr(args, "dashboard"):
            parser.error("monitor --cadence only applies with --dashboard")
        if args.cadence < 1:
            parser.error("monitor --cadence must be at least 1")
    try:
        _fleet_spec(args, args.seed)
    except ConfigurationError as exc:
        parser.error(f"monitor: {exc}")


def _fleet_spec(args, seed: int) -> FleetSpec:
    """The :class:`FleetSpec` of a ``repro monitor --ticks`` run."""
    option = {**_FLEET_DEFAULTS, **vars(args)}
    return FleetSpec(
        seed=seed,
        accounts=option["accounts"],
        ticks=args.ticks,
        slo_objective=option["slo"],
        serial=option["serial"],
        provenance=option["provenance"],
        delta=option["delta"],
        reaudit_every=option["reaudit_every"],
    )


def _run_monitor_fleet(args, seed: int) -> str:
    """The fleet mode of ``repro monitor`` (``--ticks`` given)."""
    option = {**_FLEET_DEFAULTS, **vars(args)}
    result = run_monitor_fleet(_fleet_spec(args, seed))
    lines = []
    if option["dashboard"]:
        cadence = option["cadence"]
        shown = [frame for index, frame in enumerate(result.frames)
                 if index % cadence == 0 or index == len(result.frames) - 1]
        lines.extend("\n".join(shown).splitlines())
        lines.append("")
    lines.append(result.summary())
    if option["alerts_out"]:
        result.alerts.write(option["alerts_out"])
        lines.append(f"alert log written to {option['alerts_out']}")
    if option["snapshots_out"]:
        with open(option["snapshots_out"], "w", encoding="utf-8") as handle:
            for snapshot in result.snapshots:
                handle.write(snapshot_to_json(snapshot) + "\n")
        lines.append(f"snapshots written to {option['snapshots_out']}")
    return "\n".join(lines)


def _run_stats(args) -> str:
    """The ``stats`` subcommand: digest one or more trace dumps."""
    sections = []
    for path in args.files:
        spans, truncated = load_trace_jsonl(path)
        by_name = {}
        for span in spans:
            name = str(span.get("name", "?"))
            count, seconds = by_name.get(name, (0, 0.0))
            by_name[name] = (count + 1,
                             seconds + float(span.get("duration") or 0.0))
        total = sum(float(span.get("duration") or 0.0) for span in spans)
        lines = [f"{path}: {len(spans)} spans, {total:.1f}s total"
                 + (" (truncated final line dropped)" if truncated else "")]
        for name in sorted(by_name):
            count, seconds = by_name[name]
            lines.append(f"  {name:<24} n={count:<6} {seconds:10.1f}s")
        sections.append("\n".join(lines))
    return "\n\n".join(sections)


def _add_obs_flags(parser: argparse.ArgumentParser, *,
                   suppress: bool = False) -> None:
    """Attach ``--trace-out`` / ``--metrics-out`` to a parser.

    The flags live on the top-level parser *and* on every subparser so
    they are accepted on either side of the subcommand; subparsers use
    ``SUPPRESS`` defaults so they never clobber a value parsed earlier.
    """
    default = argparse.SUPPRESS if suppress else None
    parser.add_argument("--trace-out", metavar="FILE.jsonl", default=default,
                        help="record sim-clock spans and write them as "
                             "JSON lines (enables observability)")
    parser.add_argument("--metrics-out", metavar="FILE.prom", default=default,
                        help="write Prometheus-style metrics of the run "
                             "(enables observability)")


def _add_serial_flag(parser: argparse.ArgumentParser, *,
                     suppress: bool = False) -> None:
    """Attach ``--serial``: fall back to the legacy one-at-a-time loop."""
    parser.add_argument("--serial", action="store_true",
                        default=argparse.SUPPRESS if suppress else False,
                        help="run audits one at a time (the paper's serial "
                             "methodology) instead of the batch scheduler")


def _add_fault_flags(parser: argparse.ArgumentParser, *,
                     suppress: bool = False) -> None:
    """Attach ``--faults`` / ``--fault-seed``; same placement rules as
    the observability flags."""
    parser.add_argument("--faults", metavar="SCENARIO",
                        choices=sorted(SCENARIOS),
                        default=argparse.SUPPRESS if suppress else None,
                        help="inject deterministic API faults from a named "
                             f"scenario ({', '.join(sorted(SCENARIOS))})")
    parser.add_argument("--fault-seed", type=int, metavar="N",
                        default=argparse.SUPPRESS if suppress else None,
                        help="seed of the fault plan's random stream "
                             f"(default: {_DEFAULT_FAULT_SEED})")


def _fault_plan(args):
    """The :class:`FaultPlan` selected on the command line, or ``None``."""
    name = getattr(args, "faults", None)
    if not name:
        return None
    return named_plan(name, seed=args.fault_seed)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduction of 'A Criticism to Society (as seen by "
                    "Twitter analytics)' - experiment runner",
    )
    parser.add_argument("--seed", type=int, default=42,
                        help="master seed (default: 42)")
    _add_obs_flags(parser)
    _add_fault_flags(parser)
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("table1", help="Table I: API types and rate limits")

    ordering = sub.add_parser(
        "ordering", help="Section IV-B: follower-list ordering")
    ordering.add_argument("--days", type=int, default=5,
                          help="daily snapshots to take (default: 5)")

    table2 = sub.add_parser("table2", help="Table II: response times")
    _add_serial_flag(table2)
    table3 = sub.add_parser("table3", help="Table III: analysis results")
    table3.add_argument("--explain", action="store_true",
                        help="record rule-level provenance and append "
                             "per-account rule tables plus cross-engine "
                             "disagreement drill-downs")
    _add_serial_flag(table3)

    explain = sub.add_parser(
        "explain",
        help="audit one testbed account with all engines and attribute "
             "every verdict and cross-engine disagreement to named "
             "criteria rules")
    explain.add_argument("handle", metavar="HANDLE",
                         help="a Table III testbed handle "
                              "(e.g. RobDWaller)")
    explain.add_argument("--engines", nargs="+", metavar="ENGINE",
                         choices=list(ENGINE_NAMES), default=None,
                         help="engines to compare (default: all four)")
    explain.add_argument("--max-followers", type=int, default=2_000,
                         metavar="N",
                         help="follower materialisation cap for the world "
                              "(default: 2000 — rule attribution needs no "
                              "mega-scale frame)")

    batch = sub.add_parser(
        "batch-audit",
        help="audit many targets x many engines through the rate-limit-"
             "aware scheduler (repro.sched)")
    batch.add_argument("--targets", nargs="+", metavar="HANDLE",
                       default=None,
                       help="handles to audit (default: the Table III "
                            "twenty-account testbed)")
    batch.add_argument("--engines", nargs="+", metavar="ENGINE",
                       choices=list(ENGINE_NAMES), default=None,
                       help="engine lanes to run (default: all four)")
    batch.add_argument("--slots", type=int, default=2, metavar="K",
                       help="crawler instances per engine lane "
                            "(default: 2)")
    batch.add_argument("--max-followers", type=int, default=20_000,
                       metavar="N",
                       help="follower materialisation cap for the world "
                            "(default: 20000)")
    batch.add_argument("--compare-serial", action="store_true",
                       help="also run the serial baseline and print the "
                            "makespan speedup")
    batch.add_argument("--json-out", metavar="FILE.json", default=None,
                       help="write the deterministic batch report JSON")
    _add_serial_flag(batch)

    sub.add_parser("acquisition", help="whole-base acquisition time model")
    sub.add_parser("burst", help="purchased-fakes head-bias demo (Sec II-D)")
    sub.add_parser("deepdive", help="Fakers vs Deep Dive comparison")
    latency = sub.add_parser(
        "latency", help="detection latency vs purchase size, with the "
                        "delta-vs-full investigation bill")
    latency.add_argument("--quantities", type=int, nargs="+", default=None,
                         metavar="N",
                         help="purchased block sizes to sweep "
                              "(default: 40 500 4000 20000)")
    samplesize = sub.add_parser(
        "samplesize", help="sample-size arithmetic and empirical coverage")
    samplesize.add_argument("--trials", type=int, default=100)

    sub.add_parser("tacharts",
                   help="the three charts of a Twitteraudit report")

    monitor = sub.add_parser(
        "monitor", help="daily growth monitoring with burst detection; "
                        "--ticks switches to the live-telemetry fleet")
    # Demo-only and fleet-only options default to SUPPRESS, so the
    # namespace holds them only when typed; main() rejects any typed in
    # the wrong mode (see _check_monitor_mode).
    monitor.add_argument("--days", type=int, default=argparse.SUPPRESS,
                         help="days of daily polling in the two-account "
                              "demo (default: 21)")
    monitor.add_argument("--ticks", type=int, default=None, metavar="N",
                         help="run the multi-account fleet with streaming "
                              "telemetry for N simulated days instead of "
                              "the demo")
    monitor.add_argument("--accounts", type=int, default=argparse.SUPPRESS,
                         metavar="K",
                         help="fleet size in fleet mode (default: 3)")
    monitor.add_argument("--slo", type=float, default=argparse.SUPPRESS,
                         metavar="OBJECTIVE",
                         help="poll-success SLO objective in fleet mode "
                              "(default: 0.98)")
    monitor.add_argument("--dashboard", action="store_true",
                         default=argparse.SUPPRESS,
                         help="print fleet-health dashboard frames")
    monitor.add_argument("--cadence", type=int, default=argparse.SUPPRESS,
                         metavar="N",
                         help="with --dashboard, print every Nth frame "
                              "(default: 50)")
    monitor.add_argument("--alerts-out", metavar="FILE.jsonl",
                         default=argparse.SUPPRESS,
                         help="write the fleet's alert log as JSON lines")
    monitor.add_argument("--snapshots-out", metavar="FILE.jsonl",
                         default=argparse.SUPPRESS,
                         help="write every dashboard snapshot as JSON lines")
    monitor.add_argument("--provenance", action="store_true",
                         default=argparse.SUPPRESS,
                         help="in fleet mode, record rule-level provenance "
                              "on alert-triggered audits and add rule-drift "
                              "panels to the dashboard")
    monitor.add_argument("--delta", action="store_true",
                         default=argparse.SUPPRESS,
                         help="in fleet mode, audit alerted accounts "
                              "with watermarked delta re-audits instead of "
                              "full audits")
    monitor.add_argument("--reaudit-every", type=int,
                         default=argparse.SUPPRESS,
                         metavar="N", dest="reaudit_every",
                         help="in fleet mode, re-audit every previously "
                              "alerted handle every N ticks (default: 0, "
                              "never)")
    _add_serial_flag(monitor, suppress=True)

    stats = sub.add_parser(
        "stats", help="digest trace JSONL files (tolerates the truncated "
                      "final line of a file copied mid-run)")
    stats.add_argument("files", nargs="+", metavar="FILE.jsonl",
                       help="trace dumps written by --trace-out")

    validate = sub.add_parser(
        "validate", help="self-validate the paper testbed's generators")
    validate.add_argument("--sample", type=int, default=1500,
                          help="followers sampled per target (default: 1500)")

    chaos = sub.add_parser(
        "chaos", help="engine robustness sweep under injected API faults")
    chaos.add_argument("--levels", type=float, nargs="+", metavar="X",
                       default=None,
                       help="fault intensity multipliers; the first must "
                            "be 0 (baseline).  Default: 0 0.5 1 2")
    _add_serial_flag(chaos)

    everything = sub.add_parser("all", help="run the full suite (E1-E8)")
    everything.add_argument("--days", type=int, default=5)
    everything.add_argument("--trials", type=int, default=100)

    perf = sub.add_parser(
        "perf",
        help="record or diff the canonical perf baseline "
             "(BENCH_perf.json); 'diff' exits non-zero on a regression")
    perf.add_argument("action", choices=("record", "diff"),
                      help="record: run the workload and write the "
                           "baseline; diff: compare against one")
    perf.add_argument("baseline", nargs="?", default=None,
                      metavar="BASELINE.json",
                      help="baseline artifact to diff against "
                           "(required by 'diff')")
    perf.add_argument("--out", metavar="FILE.json",
                      default="BENCH_perf.json",
                      help="where 'record' writes the artifact "
                           "(default: BENCH_perf.json)")
    perf.add_argument("--current", metavar="FILE.json", default=None,
                      help="diff this pre-recorded artifact instead of "
                           "re-running the baseline's workload")
    perf.add_argument("--targets", nargs="+", metavar="HANDLE", default=None,
                      help="testbed handles to audit (default: all twenty)")
    perf.add_argument("--slots", type=int, default=2, metavar="K",
                      help="crawler instances per engine lane (default: 2)")
    perf.add_argument("--max-followers", type=int, default=20_000,
                      metavar="N",
                      help="follower materialisation cap (default: 20000)")
    perf.add_argument("--timeline", action="store_true",
                      help="also print the ASCII lane timeline")
    perf.add_argument("--makespan-tol-pct", type=float, default=5.0,
                      metavar="PCT",
                      help="allowed makespan drift (default: 5%%)")
    perf.add_argument("--phase-tol-pct", type=float, default=10.0,
                      metavar="PCT",
                      help="allowed per-phase drift (default: 10%%)")
    perf.add_argument("--counter-tol-pct", type=float, default=10.0,
                      metavar="PCT",
                      help="allowed counter drift (default: 10%%)")
    perf.add_argument("--ratio-tol", type=float, default=0.05,
                      metavar="X",
                      help="allowed absolute hit-ratio drift "
                           "(default: 0.05)")
    perf.add_argument("--delta", action="store_true",
                      help="also measure watermarked delta re-audits: "
                           "API-call and makespan bills of a fleet "
                           "re-audit sweep vs full audits (diff skips "
                           "it when only one side has it)")

    runner = sub.add_parser(
        "run", help="run one experiment by name (e.g. 'repro run chaos')")
    runner.add_argument("experiment",
                        choices=[name for name in sub.choices
                                 if name not in
                                 ("run", "perf", "stats", "explain")],
                        help="the experiment to run")
    _add_serial_flag(runner)
    # Knobs that normally live on individual subparsers, with their
    # defaults, so `repro run <experiment>` dispatches cleanly.
    runner.set_defaults(days=5, trials=100, sample=1500, levels=None,
                        targets=None, engines=None, slots=2,
                        max_followers=20_000, compare_serial=False,
                        json_out=None, ticks=None, accounts=3, slo=0.98,
                        dashboard=False, cadence=50, alerts_out=None,
                        snapshots_out=None, explain=False, provenance=False)

    for subparser in sub.choices.values():
        _add_obs_flags(subparser, suppress=True)
        _add_fault_flags(subparser, suppress=True)
    return parser


def _check_flags(parser: argparse.ArgumentParser, args) -> None:
    """Reject options the selected command would silently ignore."""
    command = args.experiment if args.command == "run" else args.command
    if args.command == "run" and args.serial \
            and command not in _SERIAL_COMMANDS:
        parser.error(f"--serial does not apply to {command}")
    if args.command == "monitor":
        _check_monitor_mode(parser, args)
    if args.faults is not None and command not in _FAULT_COMMANDS:
        parser.error(f"--faults does not apply to {command}; it applies "
                     f"to {', '.join(sorted(_FAULT_COMMANDS))}")
    if args.fault_seed is not None and args.faults is None \
            and command != "chaos":
        parser.error("--fault-seed needs --faults")
    if command == "batch-audit" and args.serial and args.compare_serial:
        parser.error("batch-audit --compare-serial compares the scheduler "
                     "with a serial run; drop --serial")
    if args.fault_seed is None:
        args.fault_seed = _DEFAULT_FAULT_SEED


def _check_writable(parser: argparse.ArgumentParser, path: str,
                    flag: str) -> None:
    """Fail fast on an unwritable output path, before the run starts."""
    parent = pathlib.Path(path).parent
    if not parent.is_dir():
        parser.error(f"{flag}: directory does not exist: {parent}")


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Entry point; returns a process exit code."""
    parser = _build_parser()
    args = parser.parse_args(argv)
    seed = args.seed

    _check_flags(parser, args)
    if args.trace_out:
        _check_writable(parser, args.trace_out, "--trace-out")
    if args.metrics_out:
        _check_writable(parser, args.metrics_out, "--metrics-out")
    obs = None
    if args.trace_out or args.metrics_out:
        obs = activate()
    exit_code = 0
    try:
        rendered = _dispatch(args, seed)
        if isinstance(rendered, tuple):
            rendered, exit_code = rendered
        print(rendered)
        if obs is not None:
            if args.command == "all":
                # `repro stats`: spans, metric series and per-resource
                # API usage of the whole suite (ends with the one-line
                # digest).
                print()
                print(console_summary(obs))
            else:
                print()
                print(stats_line(obs))
            if args.trace_out:
                write_trace_jsonl(obs.tracer, args.trace_out)
            if args.metrics_out:
                write_metrics_prom(obs, args.metrics_out)
    finally:
        if obs is not None:
            deactivate()
    return exit_code


def _mode(args) -> str:
    """The experiment execution mode selected on the command line."""
    return "serial" if getattr(args, "serial", False) else "batch"


def _run_batch_audit(args, seed: int) -> str:
    """The ``batch-audit`` subcommand: schedule a testbed batch."""
    from .experiments.testbed import PAPER_ACCOUNTS, PAPER_ACCOUNTS_BY_HANDLE
    handles = args.targets or [a.handle for a in PAPER_ACCOUNTS]
    unknown = [h for h in handles if h not in PAPER_ACCOUNTS_BY_HANDLE]
    if unknown:
        raise ConfigurationError(
            f"unknown testbed handles: {unknown!r}; choose from "
            f"{sorted(PAPER_ACCOUNTS_BY_HANDLE)}")
    accounts = [PAPER_ACCOUNTS_BY_HANDLE[h] for h in handles]
    tiers = tuple(sorted({a.tier for a in accounts}))
    engines = tuple(args.engines) if args.engines else None
    faults = _fault_plan(args)

    def run_once(serial: bool):
        world = build_paper_world(seed, SimClock().now(), tiers=tiers,
                                  max_followers=args.max_followers)
        clock = SimClock(world.ref_time)
        scheduler = BatchAuditScheduler(
            world, clock, engines=engines, lane_slots=args.slots,
            seed=seed, faults=faults, serial=serial)
        scheduler.submit_batch([AuditRequest(target=h) for h in handles])
        return scheduler.run()

    batch = run_once(serial=args.serial)
    lines = [batch.render()]
    if args.compare_serial and not args.serial:
        baseline = run_once(serial=True)
        speedup = (baseline.makespan_seconds / batch.makespan_seconds
                   if batch.makespan_seconds else float("inf"))
        lines.append("")
        lines.append(
            f"serial baseline makespan: {baseline.makespan_seconds:.0f} s "
            f"-> scheduled makespan: {batch.makespan_seconds:.0f} s "
            f"({speedup:.2f}x speedup)")
    if args.json_out:
        pathlib.Path(args.json_out).write_text(batch.to_json() + "\n",
                                               encoding="utf-8")
        lines.append(f"batch report written to {args.json_out}")
    return "\n".join(lines)


def _run_perf(args, seed: int):
    """The ``perf`` subcommand; returns ``(rendered, exit_code)``.

    ``record`` runs the canonical workload and writes the byte-stable
    baseline; ``diff`` re-runs the workload the baseline recorded (or
    loads ``--current``) and exits 1 on any tolerance breach.
    """
    from .experiments.perf import default_workload, run_perf_workload
    from .obs import (
        PerfTolerances,
        diff_perf,
        load_perf_json,
        render_critical_path,
        render_lane_timeline,
        render_perf_diff,
        render_phase_attribution,
        write_perf_json,
    )
    if args.action == "record":
        workload = default_workload(
            seed=seed, targets=args.targets, lane_slots=args.slots,
            max_followers=args.max_followers)
        doc, obs, __ = run_perf_workload(workload, delta=args.delta)
        write_perf_json(doc, args.out)
        lines = [render_phase_attribution(obs.tracer)]
        if args.timeline:
            lines.extend(["", render_lane_timeline(obs.tracer)])
        lines.extend(["", render_critical_path(obs.tracer), "",
                      f"perf baseline written to {args.out} "
                      f"(makespan {doc['makespan_seconds']:.0f}s, "
                      f"{doc['audits']} audits)"])
        return "\n".join(lines), 0
    if args.baseline is None:
        raise ConfigurationError(
            "perf diff needs a baseline: repro perf diff BASELINE.json")
    baseline = load_perf_json(args.baseline)
    if args.current:
        current = load_perf_json(args.current)
    else:
        workload = baseline.get("workload")
        if not isinstance(workload, dict):
            raise ConfigurationError(
                f"baseline {args.baseline!r} has no workload section; "
                f"re-record it or pass --current")
        current, __, __ = run_perf_workload(workload, delta=args.delta)
    tolerances = PerfTolerances(
        makespan_pct=args.makespan_tol_pct,
        phase_pct=args.phase_tol_pct,
        counter_pct=args.counter_tol_pct,
        ratio_abs=args.ratio_tol)
    breaches, compared = diff_perf(baseline, current, tolerances)
    rendered = render_perf_diff(breaches, compared, args.baseline)
    return rendered, (1 if breaches else 0)


def _run_explain(args, seed: int) -> str:
    """The ``explain`` subcommand: rule-level provenance for one handle.

    Audits the handle with every selected engine (serially, sharing one
    world and clock), then renders the per-engine rule-fire table and
    the cross-engine disagreement drill-down — each disagreement cell
    attributed to the rules that separated the engines.
    """
    from .audit import build_engines
    from .experiments.testbed import PAPER_ACCOUNTS_BY_HANDLE
    from .obs.provenance import (
        ProvenanceCollector,
        build_disagreement,
        render_rule_table,
    )
    handle = args.handle
    account = PAPER_ACCOUNTS_BY_HANDLE.get(handle)
    if account is None:
        raise ConfigurationError(
            f"unknown testbed handle: {handle!r}; choose from "
            f"{sorted(PAPER_ACCOUNTS_BY_HANDLE)}")
    world = build_paper_world(seed, SimClock().now(), tiers=(account.tier,),
                              max_followers=args.max_followers)
    clock = SimClock(world.ref_time)
    collector = ProvenanceCollector()
    engines = build_engines(
        world, clock, seed=seed, faults=_fault_plan(args),
        engines=tuple(args.engines) if args.engines else None,
        sb_daily_quota=10**9, provenance=collector)
    lines = [f"verdict provenance @{handle} "
             f"({account.followers} followers, {account.tier} tier)",
             ""]
    verdict_rows = []
    for name in sorted(engines):
        report = engines[name].audit(
            AuditRequest(target=handle, engine=name))
        inactive = ("-" if report.inactive_pct is None
                    else f"{report.inactive_pct:.1f}%")
        verdict_rows.append(
            f"  {name:<14} fake {report.fake_pct:5.1f}%  "
            f"genuine {report.genuine_pct:5.1f}%  inactive {inactive}")
    lines.extend(verdict_rows)
    lines.append("")
    records = collector.for_target(handle)
    lines.append(render_rule_table(records))
    if len(records) >= 2:
        lines.append("")
        lines.append(build_disagreement(handle, records).render())
    return "\n".join(lines)


def _dispatch(args, seed: int):
    """Run the selected subcommand and return its rendered report.

    Most subcommands return the rendered string; ``perf`` returns a
    ``(rendered, exit_code)`` tuple so regressions can fail the
    process.
    """
    if args.command == "run":
        # Alias form: `repro run <experiment>` == `repro <experiment>`.
        args.command = args.experiment
        return _dispatch(args, seed)
    if args.command == "table1":
        __, rendered = run_table1()
    elif args.command == "ordering":
        world = build_paper_world(seed, SimClock().now(), tiers=(AVERAGE,))
        handles = [account.handle for account in average_accounts()]
        __, rendered = run_ordering_experiment(
            world, handles, days=args.days)
    elif args.command == "table2":
        __, rendered = run_response_time_experiment(
            seed=seed, faults=_fault_plan(args), mode=_mode(args))
    elif args.command == "table3":
        rows, rendered = run_table3(seed=seed, faults=_fault_plan(args),
                                    mode=_mode(args),
                                    explain=getattr(args, "explain", False))
    elif args.command == "explain":
        rendered = _run_explain(args, seed)
    elif args.command == "batch-audit":
        rendered = _run_batch_audit(args, seed)
    elif args.command == "perf":
        return _run_perf(args, seed)
    elif args.command == "chaos":
        scenario = getattr(args, "faults", None) or "bursty"
        kwargs = {}
        if getattr(args, "levels", None):
            kwargs["levels"] = tuple(args.levels)
        __, rendered = run_chaos_experiment(
            seed=seed, scenario=scenario,
            fault_seed=args.fault_seed, mode=_mode(args), **kwargs)
    elif args.command == "acquisition":
        __, __, rendered = run_acquisition_experiment()
    elif args.command == "burst":
        __, rendered = run_purchased_burst_demo(seed=seed)
    elif args.command == "deepdive":
        __, rendered = run_deepdive_comparison(seed=seed)
    elif args.command == "latency":
        __, rendered = run_detection_latency(
            quantities=tuple(args.quantities) if args.quantities
            else (40, 500, 4000, 20000),
            seed=seed)
    elif args.command == "samplesize":
        __, rendered = run_sample_size_experiment(
            trials=args.trials, seed=seed)
    elif args.command == "tacharts":
        __, rendered = run_ta_charts(seed=seed)
    elif args.command == "monitor":
        if getattr(args, "ticks", None):
            rendered = _run_monitor_fleet(args, seed)
        else:
            option = {**_DEMO_DEFAULTS, **vars(args)}
            rendered = _run_monitor_demo(seed=seed, days=option["days"])
    elif args.command == "stats":
        rendered = _run_stats(args)
    elif args.command == "validate":
        world = build_paper_world(seed, SimClock().now())
        __, rendered = validate_world(world, sample=args.sample, seed=seed)
    elif args.command == "all":
        suite = run_all(seed=seed, ordering_days=args.days,
                        coverage_trials=args.trials)
        rendered = suite.report()
    else:  # pragma: no cover - argparse enforces choices
        raise SystemExit(2)
    return rendered


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
