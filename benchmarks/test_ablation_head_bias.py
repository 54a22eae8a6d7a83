"""Ablation A2 — head-of-list bias vs frame depth and gradient strength.

The design choice under test: the FC engine samples the *whole*
follower list, the commercial tools the newest-k head.  Over a
population with the paper's recency gradient (long-term followers more
often inactive), the sweep measures the inactive-rate bias of head
frames of increasing depth and compares it against the closed-form
prediction of ``repro.stats.gradient_head_bias``.
"""

import math
from itertools import combinations

import pytest

from repro.core import PAPER_EPOCH
from repro.experiments import TextTable
from repro.stats import gradient_head_bias, head_sampling_bias
from repro.twitter import Label, add_simple_target, build_world

BASE = 50_000
HEADS = (1000, 2000, 5000, 15_000, 35_000, 50_000)
TILT = 0.6
INACTIVE = 0.4
PIECES = 8
#: Followers per arrival cohort: heads of 1,000, 2,000 and 5,000 all lie
#: in the newest cohort, so they share its expected inactive rate.
COHORT = BASE // PIECES


def sweep_head_bias():
    world = build_world(seed=42)
    add_simple_target(world, "tilted", BASE, INACTIVE, 0.1, 0.5,
                      tilt=TILT, pieces=PIECES)
    population = world.population("tilted")
    labels = [population.true_label_at(p) is Label.INACTIVE
              for p in range(population.size_at(PAPER_EPOCH))]

    rows = []
    for head in HEADS:
        report = head_sampling_bias(
            lambda p: labels[p], BASE, head)
        predicted = gradient_head_bias(INACTIVE, TILT, head / BASE)
        rows.append((head, report.whole_rate, report.head_rate,
                     report.absolute_bias, predicted))
    return rows


@pytest.mark.benchmark(group="ablation-a2")
def test_ablation_head_bias(once, save_result):
    rows = once(sweep_head_bias)

    table = TextTable(
        ["head size", "whole inactive", "head inactive",
         "measured bias", "closed-form bias"],
        title=f"A2: head-frame inactive-rate bias "
              f"(base {BASE}, tilt {TILT})",
    )
    for head, whole, head_rate, bias, predicted in rows:
        table.add_row(head, f"{100 * whole:.1f}%", f"{100 * head_rate:.1f}%",
                      f"{100 * bias:+.1f}pp", f"{100 * predicted:+.1f}pp")
    rendered = table.render()
    save_result("ablation_a2_head_bias", rendered)
    print("\n" + rendered)

    # Head frames underestimate inactivity; the full frame doesn't.
    for head, __w, __h, bias, predicted in rows:
        if head < BASE:
            assert bias < -0.02, head
        else:
            assert bias == pytest.approx(0.0, abs=0.005)
        # Discrete cohorts approximate the linear gradient: closed form
        # within a few points.
        assert bias == pytest.approx(predicted, abs=0.06)

    # Bias shrinks (to ~0) as the frame deepens into older cohorts.
    # Heads within one cohort share its expected rate, so their order is
    # sampling noise: a shallower head may read above a deeper one by at
    # most three binomial standard errors of its closed-form rate (which
    # bound the error of the difference of two nested heads).
    for (head, whole, __h, bias, predicted), (deeper, __w, __d, deeper_bias,
                                              __p) in combinations(rows, 2):
        if (head - 1) // COHORT < (deeper - 1) // COHORT:
            assert bias < deeper_bias, (head, deeper)
        else:
            rate = whole + predicted
            error = 3 * math.sqrt(rate * (1 - rate) / head)
            assert bias <= deeper_bias + error, (head, deeper)
