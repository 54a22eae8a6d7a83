"""Ablation A4 — crawling cost vs detection quality.

Reproduces [12]'s "optimized classifier" selection (paper, Section
III): feature sets are priced by their API cost, and the production
detector is the best classifier whose crawl fits the audit's time
budget.  With 9604 sampled followers and a 4-minute budget, only
profile-feature (class A) candidates qualify, for a crawl 250x cheaper
(3.1 min against 13.1 h).  The selection costs no MCC: forest[A] and
forest[B] both read MCC 1.000 (``ablation_a4_cost.txt``), because the
gold standard comes from the same six personas as the populations and
those separate on profile features alone.  So the table shows the cost
side of the trade; it cannot rank the feature classes.
"""

import pytest

from repro.core import format_duration
from repro.experiments import TextTable
from repro.fc import (
    FULL_FEATURE_SET,
    PROFILE_FEATURE_SET,
    build_gold_standard,
    rank_by_cost,
    select_under_budget,
    train_detector,
)

ACCOUNTS = 9604
BUDGET_SECONDS = 240.0


def build_candidates():
    train = build_gold_standard(n_fake=400, n_genuine=400, seed=42)
    held_out = build_gold_standard(n_fake=200, n_genuine=200, seed=43)
    candidates = [
        train_detector(train, feature_set=PROFILE_FEATURE_SET,
                       model="tree", seed=1),
        train_detector(train, feature_set=PROFILE_FEATURE_SET,
                       model="forest", seed=1),
        train_detector(train, feature_set=FULL_FEATURE_SET,
                       model="tree", seed=1),
        train_detector(train, feature_set=FULL_FEATURE_SET,
                       model="forest", seed=1),
    ]
    return candidates, held_out


@pytest.mark.benchmark(group="ablation-a4")
def test_ablation_cost(once, save_result):
    candidates, held_out = build_candidates()
    rows = once(rank_by_cost, candidates, held_out, ACCOUNTS)

    table = TextTable(
        ["detector", "MCC", "lookup reqs", "timeline reqs", "crawl time"],
        title=f"A4: quality vs crawl cost for {ACCOUNTS} sampled followers",
    )
    for row in rows:
        table.add_row(row.name, f"{row.mcc:.3f}",
                      row.cost.lookup_requests, row.cost.timeline_requests,
                      format_duration(row.cost.seconds))
    chosen = select_under_budget(
        candidates, held_out, ACCOUNTS, BUDGET_SECONDS)
    rendered = table.render() + (
        f"\n\nselected under a {BUDGET_SECONDS:.0f}s budget: {chosen.name} "
        f"(MCC {chosen.mcc:.3f}, crawl {format_duration(chosen.cost.seconds)})")
    save_result("ablation_a4_cost", rendered)
    print("\n" + rendered)

    by_name = {row.name: row for row in rows}
    class_a = [row for row in rows if row.cost.timeline_requests == 0]
    class_b = [row for row in rows if row.cost.timeline_requests > 0]
    assert class_a and class_b
    # Class B crawls are orders of magnitude slower.
    assert min(row.cost.seconds for row in class_b) > \
        100 * max(row.cost.seconds for row in class_a)
    # The budget forces a class-A detector, and it is still excellent.
    assert chosen.cost.timeline_requests == 0
    assert chosen.mcc > 0.85
    # The quality sacrifice for the cheap crawl is small (< 0.1 MCC).
    best_overall = max(row.mcc for row in rows)
    assert best_overall - chosen.mcc < 0.1
