"""Memory-bound smoke: an Obama-scale audit in a fixed RSS budget.

The lazy world's headline claim is that audit memory is a function of
the *sample*, not the population: a 10M-follower FC audit must complete
end-to-end — lazy world, follower-id cursoring, users/lookup as row
blocks, detector inference — without ever materializing the
population.  The workload runs in a subprocess so the peak-RSS reading
is the workload's own high-water mark, untouched by pytest, prior
benchmarks, or the parent's caches.  The subprocess also counts every
follower account it generates, which must not exceed the sample size.

``COLUMNAR_SMOKE_FOLLOWERS`` scales the population down for constrained
runners (CI's ``memory-smoke`` job exports 1_000_000); the documented
budget stays the same because peak RSS is population-size independent
(measured ~131 MB at 10M followers).  Results land in
``benchmarks/results/BENCH_columnar_memory.json``.
"""

from __future__ import annotations

import json
import os
import pathlib
import subprocess
import sys

RESULTS_DIR = pathlib.Path(__file__).parent / "results"
SRC_DIR = pathlib.Path(__file__).resolve().parents[1] / "src"

#: Peak-RSS ceiling for the audit subprocess, in MiB.  Measured peak at
#: 10M followers is ~131 MiB (interpreter + numpy + detector + sample);
#: the budget leaves ~3.5x headroom for allocator and platform noise
#: while still catching any accidental O(population) materialization,
#: which would cost hundreds of MiB at 10M followers.
MEMORY_BUDGET_MB = 512

DEFAULT_FOLLOWERS = 10_000_000

_CHILD = r"""
import json
import resource
import sys
import time

from repro.audit import AuditRequest
from repro.core import PAPER_EPOCH, SimClock
from repro.fc.engine import FakeClassifierEngine, default_detector
from repro.twitter import FollowerPopulation, add_simple_target, build_world

followers = int(sys.argv[1])

t0 = time.perf_counter()
world = build_world(seed=99, ref_time=PAPER_EPOCH)
add_simple_target(world, "bigone", followers, 0.35, 0.15, 0.50, tilt=0.5)
detector = default_detector(seed=5)
setup_s = time.perf_counter() - t0

generated = 0
follower_columns = FollowerPopulation.follower_columns


def counting_follower_columns(self, positions, now):
    global generated
    generated += len(positions)
    return follower_columns(self, positions, now)


FollowerPopulation.follower_columns = counting_follower_columns

t0 = time.perf_counter()
engine = FakeClassifierEngine(world, SimClock(PAPER_EPOCH), detector)
report = engine.audit(AuditRequest(target="bigone"))
audit_s = time.perf_counter() - t0

peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
print(json.dumps({
    "followers": followers,
    "setup_seconds": round(setup_s, 3),
    "audit_seconds": round(audit_s, 3),
    "peak_rss_mb": round(peak_kb / 1024.0, 1),
    "fake_pct": round(report.fake_pct, 2),
    "sample_size": report.sample_size,
    "accounts_generated": generated,
}))
"""


def test_columnar_audit_stays_in_memory_budget(save_result):
    followers = int(
        os.environ.get("COLUMNAR_SMOKE_FOLLOWERS", DEFAULT_FOLLOWERS))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC_DIR), env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-c", _CHILD, str(followers)],
        env=env, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(proc.stdout)

    assert doc["followers"] == followers
    assert doc["sample_size"] > 0
    # The audit must have sampled, not swept: at most one generated
    # follower account per sampled follower, never O(population).
    assert doc["accounts_generated"] <= doc["sample_size"]

    doc["budget_mb"] = MEMORY_BUDGET_MB
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / "BENCH_columnar_memory.json").write_text(
        json.dumps(doc, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    save_result("columnar_memory",
                "\n".join(f"{key}: {doc[key]}" for key in sorted(doc)))

    assert doc["peak_rss_mb"] <= MEMORY_BUDGET_MB, (
        f"audit subprocess peaked at {doc['peak_rss_mb']} MiB, over the "
        f"{MEMORY_BUDGET_MB} MiB budget — the world is materializing "
        f"population-sized state")
