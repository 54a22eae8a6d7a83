"""Host-time benchmark of the reproduction's own commands.

Run from the root of a checkout::

    python3 hostbench/run.py --workload testbed-audit --seed 1 \\
        --seconds 15 --trace 0

One process runs one workload, single-threaded: set-up (repeated, the
median reported), then whole rounds until ``--seconds`` of host time
are spent, then the correctness gates.  The last line of standard
output is the result object; the line before it records the seed, the
host and the library versions.  ``--trace 1`` alternates untraced
rounds with rounds traced by ``layers.py`` and reports per-layer
metrics instead of end-to-end ones.
``--table`` runs every workload traced, each in a fresh process, and
prints the layer-by-workload table.  See ``README.md`` beside this
file.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

from layers import LAYER_METRICS, LayerTrace
from workloads import WORKLOADS

SRC = Path(__file__).resolve().parent.parent / "src"
#: Set-up repetitions per run; set-up metrics report their median.
SETUP_REPEATS = 3
#: What a user's command imports before it can run anything.
IMPORT_STATEMENT = "import repro.experiments, repro.sched, repro.twitter"
#: Largest tolerated gap between the traced phase and the sum of
#: per-layer self times plus unattributed time, as a share.
ATTRIBUTION_TOLERANCE = 0.05


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=tuple(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--table", action="store_true",
                        help="run every workload traced and print the "
                             "layer-by-workload table")
    args = parser.parse_args(argv)
    if not args.table and args.workload is None:
        parser.error("--workload is required unless --table is given")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def _environment(args) -> dict:
    import numpy

    nproc = (len(os.sched_getaffinity(0))
             if hasattr(os, "sched_getaffinity") else os.cpu_count())
    return {"workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace, "nproc": nproc,
            "python": platform.python_version(), "numpy": numpy.__version__}


def _import_seconds() -> float:
    """Median host time of a fresh interpreter importing the package."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    times = []
    for __ in range(SETUP_REPEATS):
        start = perf_counter()
        subprocess.run([sys.executable, "-c", IMPORT_STATEMENT], env=env,
                       check=True, stdout=subprocess.DEVNULL)
        times.append(perf_counter() - start)
    return statistics.median(times)


def _set_up(workload) -> dict:
    """Repeat the workload's set-up; median total and component times."""
    totals, components = [], {}
    for __ in range(SETUP_REPEATS):
        start = perf_counter()
        parts = workload.prepare()
        totals.append(perf_counter() - start)
        for name, seconds in parts.items():
            components.setdefault(name, []).append(seconds)
    return {"total": statistics.median(totals),
            **{name: statistics.median(values)
               for name, values in components.items()}}


def _run_rounds(workload, seconds: float):
    """Run whole rounds until ``seconds`` of host time are spent.

    Returns the round results and each round's host seconds.
    """
    results, times = [], []
    start = perf_counter()
    while not results or perf_counter() - start < seconds:
        round_start = perf_counter()
        results.append(workload.run_round())
        times.append(perf_counter() - round_start)
    return results, times


def _run_traced_pairs(workload, trace, seconds: float):
    """Alternate untraced and traced rounds until ``seconds`` are spent.

    Pairing the two kinds of round, rather than running one phase
    after the other, keeps drift in the host's speed out of the
    tracing overhead.  Returns the results and the untraced seconds.
    """
    results, untraced_s = [], 0.0
    start = perf_counter()
    while not results or perf_counter() - start < seconds:
        round_start = perf_counter()
        results.append(workload.run_round())
        untraced_s += perf_counter() - round_start
        with trace.installed(), trace.root():
            results.append(workload.run_round())
    return results, untraced_s


def _per_layer(trace, rounds: int, untraced_s: float, setup: dict) -> dict:
    """Per-layer metrics of the traced rounds, per round where summed."""
    counts = trace.counts

    def ratio(part, whole):
        return counts.get(part, 0) / counts[whole] if counts.get(whole) else 0.0

    metrics = {}
    for layer, name in LAYER_METRICS:
        metrics[name] = (trace.self_s[layer] / rounds, "s/round")
    for name in ("twitter.tweets", "twitter.accounts", "twitter.rows",
                 "api.requests", "api.retries", "api.faults",
                 "analytics.rows", "fc.rows", "sched.audits",
                 "growth.polls", "obs.observations"):
        metrics[name] = (counts.get(name, 0) / rounds, "count/round")
    metrics["api.acq_hit_ratio"] = (ratio("api.acq_hits", "api.acq_lookups"),
                                    "ratio")
    metrics["sched.delta_fallback_ratio"] = (
        ratio("sched.delta_fallbacks", "sched.delta_requests"), "ratio")
    metrics["growth.poll_loss_ratio"] = (
        1.0 - ratio("growth.answered", "growth.polls")
        if counts.get("growth.polls") else 0.0, "ratio")
    metrics["unattributed_s"] = (trace.unattributed_s / rounds, "s/round")
    metrics["traced_round_s"] = (trace.traced_s / rounds, "s/round")
    metrics["trace_overhead"] = (trace.traced_s / untraced_s - 1.0, "ratio")
    metrics["setup.fc_train_s"] = (setup.get("fc_train", 0.0), "s")
    return {name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items()}


def run(args) -> int:
    """Run one workload and print its context and result lines."""
    sys.path.insert(0, str(SRC))
    workload = WORKLOADS[args.workload](args.seed)
    setup = _set_up(workload)
    context = _environment(args)
    problems = []
    if args.trace:
        trace = LayerTrace()
        results, untraced_s = _run_traced_pairs(workload, trace, args.seconds)
        gap = abs(trace.attributed_s() - trace.traced_s)
        if gap > ATTRIBUTION_TOLERANCE * trace.traced_s:
            problems.append(
                f"layer self times + unattributed = "
                f"{trace.attributed_s():.3f} s, traced {trace.traced_s:.3f} s")
        metrics = _per_layer(trace, len(results) // 2, untraced_s, setup)
        context.update(untraced_s=untraced_s, traced_s=trace.traced_s)
    else:
        results, round_s = _run_rounds(workload, args.seconds)
        peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        completed = sum(result.completed for result in results)
        metrics = {
            "setup_s": {"value": _import_seconds() + setup["total"],
                        "unit": "s"},
            "ops_per_s": {"value": completed / sum(round_s), "unit": "ops/s"},
            "peak_rss_mib": {"value": peak, "unit": "MiB"},
        }
        context.update(round_s=round_s)
    problems += workload.final_gates()
    for result in results:
        problems += result.problems
    attempted = sum(result.attempted for result in results)
    failed = sum(result.failed for result in results)
    for problem in problems:
        print(f"hostbench: {args.workload}: {problem}", file=sys.stderr)
    context.update(rounds=len(results), setup_components=setup,
                   problems=problems)
    print(json.dumps({"hostbench": context}, sort_keys=True))
    print(json.dumps({"correct": not problems and failed == 0,
                      "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


def table(args) -> int:
    """Run every workload traced in a fresh process; print the table."""
    columns = {}
    for name in WORKLOADS:
        child = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()),
             "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", "1"],
            check=True, stdout=subprocess.PIPE, text=True)
        lines = child.stdout.strip().splitlines()
        columns[name] = json.loads(lines[-1])
    print(render_table(columns, args.seed))
    return 0 if all(column["correct"] for column in columns.values()) else 1


def render_table(columns: dict, seed: int) -> str:
    """Markdown layer-by-workload table; self times also as shares."""
    names = list(columns)
    first = columns[names[0]]["metrics"]
    lines = [f"| metric (seed {seed}) | unit | " + " | ".join(names) + " |",
             "|---|---|" + "---|" * len(names)]
    for metric, spec in first.items():
        cells = []
        for name in names:
            value = columns[name]["metrics"][metric]["value"]
            cell = f"{value:.4g}"
            if spec["unit"] == "s/round" and metric != "traced_round_s":
                total = columns[name]["metrics"]["traced_round_s"]["value"]
                cell += f" ({100.0 * value / total:.1f}%)"
            cells.append(cell)
        lines.append(f"| {metric} | {spec['unit']} | " + " | ".join(cells)
                     + " |")
    return "\n".join(lines)


def main(argv=None) -> int:
    """Command-line entry point."""
    args = _parse(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"hostbench: no program source under {SRC}; run from the "
              f"root of a checkout of the repository", file=sys.stderr)
        return 2
    # One process, one thread: keep BLAS pools (and the children's) serial.
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(var, "1")
    return table(args) if args.table else run(args)


if __name__ == "__main__":
    sys.exit(main())
