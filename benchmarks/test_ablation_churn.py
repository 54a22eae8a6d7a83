"""Ablation A6 — Section IV-B's no-churn assumption, stress-tested.

At zero churn, the paper's "new entries always at the end" result
reproduces exactly on a generative-world target growing by a steady
trickle.  With daily unfollow pressure (counter-based draws applied as
explicit unfollows), the suffix check starts failing — quantifying how
sensitive the published protocol is to the assumption it never states.
The table depends on no NumPy build, so CI runs this bench on both
tier-1 Pythons and requires a byte-identical result file.
"""

import pytest

from repro.experiments import run_churn_sensitivity


@pytest.mark.benchmark(group="ablation-a6")
def test_ablation_churn_sensitivity(once, save_result):
    rows, rendered = once(run_churn_sensitivity, seed=42)
    save_result("ablation_a6_churn", rendered)
    print("\n" + rendered)

    by_level = {row.daily_churn: row for row in rows}
    # The paper's setting: no churn observed, ordering fully confirmed.
    assert by_level[0.0].violations == 0
    assert by_level[0.0].new_followers > 0
    # Any real churn breaks the clean suffix structure on most days.
    assert by_level[0.25].violation_rate >= 0.8
    # Violation rates do not decrease as churn grows.
    rates = [row.violation_rate for row in rows]
    assert rates == sorted(rates)
