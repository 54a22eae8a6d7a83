"""Micro-benchmark: provenance recording must stay within 5% of the run.

Provenance is a pure observation: the criteria hand a sink the very
mask arrays their verdict arithmetic already computed, each audit's
masks are aggregated and packed once (``ProvenanceCollector.record`` →
``build_stats``), and an explain run joins the engines' records into
the disagreement report (``build_disagreement``, ``render_rule_table``,
``DisagreementReport.render``).  This bench runs the batch Table III
slice with a collector attached and times those provenance functions
*themselves*, in CPU time (``process_time``), counting only the
outermost of nested calls.  The overhead is their CPU time over the
CPU time of the rest of the run they observe, the median over
``RUNS`` runs, and must stay under ``PROVENANCE_MAX_OVERHEAD_PCT``
percent (default 5; CI relaxes it — shared runners are noisy).  What
is not timed: the sink's dict insert per rule and the few boolean
comparisons the criteria make only for the sink.

Timing the provenance code in place, rather than subtracting a run
without provenance from a run with it, keeps the measurement from
drowning in run-to-run noise: on a shared 2-vCPU VM two identical
~2 s runs differ by up to ±30%, far more than the ~2% being bounded.
The measurement is written to
``benchmarks/results/BENCH_provenance_overhead.json``.
"""

from __future__ import annotations

import json
import os
import pathlib
import statistics
import time

from repro.experiments import results as table3_module
from repro.experiments.results import run_table3
from repro.experiments.testbed import average_accounts
from repro.obs import provenance

RESULTS_DIR = pathlib.Path(__file__).parent / "results"

#: Timed explain runs.
RUNS = 5

#: ``(owner, name)``: every provenance function an explain run calls,
#: patched where the run looks it up.
TIMED = (
    (provenance.ProvenanceCollector, "record"),
    (provenance, "build_stats"),
    (provenance.AuditProvenance, "fired_by_user"),
    (table3_module, "build_disagreement"),
    (table3_module, "render_rule_table"),
    (provenance.DisagreementReport, "render"),
)


def _timed(monkeypatch, spent):
    """Patch every :data:`TIMED` function to add its CPU time to
    ``spent[name]``; a call made inside another timed call is not
    counted again."""
    depth = [0]

    def wrap(name, original):
        def timed(*args, **kwargs):
            if depth[0]:
                return original(*args, **kwargs)
            depth[0] += 1
            started = time.process_time()
            try:
                return original(*args, **kwargs)
            finally:
                spent[name] = spent.get(name, 0.0) + (
                    time.process_time() - started)
                depth[0] -= 1
        return timed

    for owner, name in TIMED:
        monkeypatch.setattr(owner, name, wrap(name, getattr(owner, name)))


def test_provenance_overhead_is_bounded(detector, save_result, monkeypatch):
    limit_pct = float(os.environ.get("PROVENANCE_MAX_OVERHEAD_PCT", "5"))
    kwargs = dict(seed=42, accounts=average_accounts()[:3],
                  detector=detector, max_followers=2_000,
                  truth_sample=500, mode="batch", explain=True)
    run_table3(**kwargs)        # warm caches and imports, untimed
    runs = []
    for __ in range(RUNS):
        spent = {}
        with monkeypatch.context() as patch:
            _timed(patch, spent)
            started = time.process_time()
            __, rendered = run_table3(**kwargs)
            total = time.process_time() - started
        assert "disagreement drill-down" in rendered
        runs.append((total, spent))

    def overhead(run):
        total, spent = run
        observed = sum(spent.values())
        return 100.0 * observed / (total - observed)

    run_s = statistics.median(total for total, __ in runs)
    provenance_s = statistics.median(sum(spent.values())
                                     for __, spent in runs)
    overhead_pct = statistics.median(overhead(run) for run in runs)
    by_function = {name: round(1e3 * statistics.median(
        spent.get(name, 0.0) for __, spent in runs), 3)
        for __, name in TIMED}

    report = "\n".join([
        "Provenance overhead on batch Table III (3 average accounts):",
        f"  explain run CPU time  {run_s * 1e3:10.1f} ms (median)",
        f"  provenance CPU time   {provenance_s * 1e3:10.1f} ms (median,"
        " timed in place)",
        *(f"    {name:20s}{ms:10.1f} ms" for name, ms in by_function.items()),
        f"  overhead              {overhead_pct:10.2f} %"
        f" (median of {RUNS} runs; limit {limit_pct:g}%)",
    ])
    save_result("provenance_overhead", report)
    doc = {
        "bench": "provenance_overhead",
        "workload": "table3 batch explain, 3 average accounts, "
                    "max_followers=2000, truth_sample=500",
        "clock": "process_time",
        "method": "provenance functions timed in place, over the rest "
                  "of the run",
        "runs": RUNS,
        "run_ms": round(run_s * 1e3, 3),
        "provenance_ms": round(provenance_s * 1e3, 3),
        "provenance_ms_by_function": by_function,
        "overhead_pct": round(overhead_pct, 3),
        "limit_pct": limit_pct,
    }
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / "BENCH_provenance_overhead.json").write_text(
        json.dumps(doc, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    assert overhead_pct < limit_pct, report
