"""Wall-clock benchmark: per-row oracle vs columnar FC classification.

The claim of the columnar prediction path, measured at the paper's own
scale: classifying a full 9604-follower sample (Section III's
statistically mandated size) through the production class-A detector.
The per-row side is the test oracle (``tests/fc/feature_oracle.py``
feature by feature, then ``tests/fc/tree_oracle.py``'s recursive
descent of every tree).  Asserts bit parity first -- a fast wrong answer
is worthless -- then the speedup floor, and writes the measured numbers
to ``benchmarks/results/BENCH_fc_columnar.json``.  It also records the
forest's per-call inference time at the two shapes audits classify: a
delta census (the ~30 new followers of a daily re-audit) and a full
sample; those two figures carry no floor.

The floor defaults to the local target (5x) and is relaxed via
``FC_COLUMNAR_MIN_SPEEDUP`` on noisy shared runners (CI exports 2).
"""

from __future__ import annotations

import json
import os
import pathlib

import numpy as np

from repro.fc import FC_SAMPLE_SIZE, FeatureCache, batch_classifier, \
    build_gold_standard
from repro.obs import measure_wallclock
from tests.fc import feature_oracle, tree_oracle

RESULTS_DIR = pathlib.Path(__file__).parent / "results"

#: Local target; CI relaxes to 2x for noisy runners.
MIN_SPEEDUP = float(os.environ.get("FC_COLUMNAR_MIN_SPEEDUP", "5"))

REPEATS = 3

#: Rows of a delta census: the new followers a daily re-audit classifies.
DELTA_CENSUS_ROWS = 30

#: Rows classified per timing: 100 calls at 30 rows, one at a full sample.
CALL_ROWS = 3_000


def test_columnar_speedup_on_a_full_sample(detector, save_result):
    rows = FC_SAMPLE_SIZE
    population = build_gold_standard(
        n_fake=rows - rows // 2, n_genuine=rows // 2, seed=11,
        timeline_depth=1)
    users = population.users()
    objects = list(users)       # the oracle reads user objects
    now = population.now
    assert len(users) == rows

    classifier = batch_classifier(detector)

    def per_row():
        X = feature_oracle.extract_matrix(
            detector.feature_set, objects, None, now)
        return tree_oracle.predict(detector.model, X)

    # Parity before speed: the fast path must be numerically identical.
    scalar_matrix = feature_oracle.extract_matrix(
        detector.feature_set, users, None, now)
    batch_matrix = detector.feature_set.extract_matrix(users, None, now)
    assert np.array_equal(scalar_matrix, batch_matrix)
    scalar_verdicts = per_row()
    batch_verdicts = classifier.predict(users, None, now)
    assert np.array_equal(scalar_verdicts, batch_verdicts)

    model = detector.model
    inference_ms = {}
    for shape in (DELTA_CENSUS_ROWS, rows):
        X = batch_matrix[:shape]
        assert model.predict_proba(X).tobytes() == \
            tree_oracle.predict_proba(model, X).tobytes()
        calls = max(1, CALL_ROWS // shape)
        seconds = measure_wallclock(
            lambda: [model.predict_proba(X) for _ in range(calls)], REPEATS)
        inference_ms[shape] = seconds / calls * 1e3

    scalar_seconds = measure_wallclock(per_row, REPEATS)
    batch_seconds = measure_wallclock(
        lambda: classifier.predict(users, None, now), REPEATS)
    speedup = scalar_seconds / batch_seconds

    # Warm-cache pass: every row served from the feature cache.
    cache = FeatureCache()
    cached = batch_classifier(detector, feature_cache=cache)
    cached.predict(users, None, now)
    assert np.array_equal(cached.predict(users, None, now), scalar_verdicts)
    hit_rate = cache.hits / (cache.hits + cache.misses)
    cached_seconds = measure_wallclock(
        lambda: cached.predict(users, None, now), REPEATS)

    doc = {
        "rows": rows,
        "repeats": REPEATS,
        "scalar_seconds": round(scalar_seconds, 6),
        "batch_seconds": round(batch_seconds, 6),
        "warm_cache_seconds": round(cached_seconds, 6),
        "speedup": round(speedup, 2),
        "scalar_rows_per_s": round(rows / scalar_seconds, 1),
        "batch_rows_per_s": round(rows / batch_seconds, 1),
        "cache_hit_rate": round(hit_rate, 4),
        "delta_census_rows": DELTA_CENSUS_ROWS,
        "infer_ms_delta_census": round(inference_ms[DELTA_CENSUS_ROWS], 4),
        "infer_ms_full_sample": round(inference_ms[rows], 4),
        "min_speedup": MIN_SPEEDUP,
    }
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / "BENCH_fc_columnar.json").write_text(
        json.dumps(doc, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    save_result(
        "fc_columnar",
        "\n".join(f"{key}: {value}" for key, value in sorted(doc.items())))

    assert hit_rate >= 0.5  # second pass fully cached
    assert speedup >= MIN_SPEEDUP, (
        f"columnar speedup {speedup:.1f}x below the "
        f"{MIN_SPEEDUP:g}x floor "
        f"(scalar {scalar_seconds:.3f}s vs batch {batch_seconds:.3f}s)")
