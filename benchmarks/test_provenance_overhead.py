"""Micro-benchmark: provenance recording must stay within 5% of baseline.

Provenance is a pure observation: the columnar paths hand the sink the
very mask arrays their verdict arithmetic already computed, the scalar
paths re-derive per-account predicates, and aggregation packs bitmaps
once per audit.  This bench times the batch Table III slice with and
without a :class:`~repro.obs.provenance.ProvenanceCollector` attached
and asserts the measured overhead stays under
``PROVENANCE_MAX_OVERHEAD_PCT`` percent (default 5; CI relaxes it —
shared runners are noisy).  It measures CPU time (``process_time``),
which other processes on a shared host disturb less than wall-clock
time, over alternating pairs of runs, and takes the median of the
per-pair overheads.  The measurement is written to
``benchmarks/results/BENCH_provenance_overhead.json``.
"""

from __future__ import annotations

import json
import os
import pathlib
import statistics
import time

from repro.experiments.results import run_table3
from repro.experiments.testbed import average_accounts

RESULTS_DIR = pathlib.Path(__file__).parent / "results"

#: Alternating (baseline, provenance) pairs of runs.
PAIRS = 7


def _cpu(fn) -> float:
    started = time.process_time()
    fn()
    return time.process_time() - started


def _paired_cpu(baseline_fn, enabled_fn, pairs: int = PAIRS):
    """``(baseline, enabled)`` CPU seconds per pair.

    Every other pair runs the provenance side first, so drift over the
    run (a warming heap, a neighbour's load) favours neither side.
    """
    timed = []
    for index in range(pairs):
        if index % 2:
            enabled = _cpu(enabled_fn)
            baseline = _cpu(baseline_fn)
        else:
            baseline = _cpu(baseline_fn)
            enabled = _cpu(enabled_fn)
        timed.append((baseline, enabled))
    return timed


def test_provenance_overhead_is_bounded(detector, save_result):
    limit_pct = float(os.environ.get("PROVENANCE_MAX_OVERHEAD_PCT", "5"))
    kwargs = dict(seed=42, accounts=average_accounts()[:3],
                  detector=detector, max_followers=2_000,
                  truth_sample=500, mode="batch")

    timed = _paired_cpu(lambda: run_table3(**kwargs),
                        lambda: run_table3(explain=True, **kwargs))
    baseline = statistics.median(base for base, __ in timed)
    enabled = statistics.median(on for __, on in timed)
    overhead_pct = statistics.median(
        100.0 * (on - base) / base for base, on in timed)

    report = "\n".join([
        "Provenance overhead on batch Table III (3 average accounts):",
        f"  baseline CPU time     {baseline * 1e3:10.1f} ms (median)",
        f"  provenance CPU time   {enabled * 1e3:10.1f} ms (median)",
        f"  overhead              {overhead_pct:10.2f} %"
        f" (median of {PAIRS} pairs; limit {limit_pct:g}%)",
    ])
    save_result("provenance_overhead", report)
    doc = {
        "bench": "provenance_overhead",
        "workload": "table3 batch, 3 average accounts, "
                    "max_followers=2000, truth_sample=500",
        "clock": "process_time",
        "pairs": PAIRS,
        "baseline_ms": round(baseline * 1e3, 3),
        "provenance_ms": round(enabled * 1e3, 3),
        "overhead_pct": round(overhead_pct, 3),
        "limit_pct": limit_pct,
    }
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / "BENCH_provenance_overhead.json").write_text(
        json.dumps(doc, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    assert overhead_pct < limit_pct, report
