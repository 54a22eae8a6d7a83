"""Experiment E8 — the FC sample size and the tools' error margins.

The paper (Section IV-C): "to be statistically sound, the sample size
is always 9604, to guarantee a confidence level of 95%, with a
confidence interval of 1%."  This experiment verifies the arithmetic,
tabulates the margin each surveyed tool's sample size actually buys,
and checks the claim *empirically*: across repeated uniform samples of
9604 from a synthetic base, ~95 % of estimates must fall within ±1 % of
the true proportion.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

from ..core.rng import make_rng
from ..core.timeutil import PAPER_EPOCH
from ..stats.estimation import (
    ProportionEstimate,
    achieved_margin,
    required_sample_size,
)
from ..stats.sampling import uniform_sample
from ..twitter.account import Label
from ..twitter.generator import add_simple_target, build_world
from .report import TextTable

#: (tool, documented sample size) — the paper's Section II survey.
TOOL_SAMPLE_SIZES: Tuple[Tuple[str, int], ...] = (
    ("StatusPeople Fakers", 700),
    ("Socialbakers FFC", 2000),
    ("Twitteraudit", 5000),
    ("Fake Project FC", 9604),
)


@dataclass(frozen=True)
class CoverageResult:
    """Empirical confidence-interval coverage of the FC sample size."""

    true_proportion: float
    sample_size: int
    trials: int
    within_margin: int
    margin: float

    @property
    def coverage(self) -> float:
        """Fraction of trials landing within the margin."""
        return self.within_margin / self.trials


def empirical_coverage(*, population: int = 60_000, sample_size: int = 9604,
                       trials: int = 200, margin: float = 0.01,
                       seed: int = 17) -> CoverageResult:
    """Repeatedly estimate an inactive-rate from uniform samples.

    The property measured is ground-truth inactivity of a synthetic
    base; with n = 9604 and an unbiased sample, at least ~95 % of the
    estimates must land within ±1 % of the truth.
    """
    world = build_world(seed=seed)
    add_simple_target(world, "coverage", population, 0.42, 0.1, 0.48)
    pop = world.population("coverage")
    now = PAPER_EPOCH
    size = pop.size_at(now)

    # Exact truth over the whole base, one persona column.
    inactive = [label is Label.INACTIVE for label in pop.labels_at(range(size))]
    truth = sum(inactive) / size

    rng = make_rng(seed, "coverage-trials")
    within = 0
    for __ in range(trials):
        positions = uniform_sample(rng, size, sample_size)
        hits = sum(1 for position in positions if inactive[position])
        estimate = ProportionEstimate(hits, sample_size)
        if abs(estimate.p_hat - truth) <= margin:
            within += 1
    return CoverageResult(
        true_proportion=truth,
        sample_size=sample_size,
        trials=trials,
        within_margin=within,
        margin=margin,
    )


def run_sample_size_experiment(*, trials: int = 200,
                               seed: int = 17) -> Tuple[CoverageResult, str]:
    """Verify n = 9604 analytically and empirically; tabulate margins."""
    table = TextTable(
        ["tool", "sample size", "worst-case margin (95%)"],
        title="E8: what each tool's sample size buys "
              "(assuming an unbiased sample — which only FC draws)",
    )
    for tool, n in TOOL_SAMPLE_SIZES:
        table.add_row(tool, n, f"+/-{100 * achieved_margin(n):.2f}%")
    required = required_sample_size(0.01, 0.95)
    coverage = empirical_coverage(trials=trials, seed=seed)
    lines = [
        table.render(),
        "",
        f"required n for 95% +/-1% (p=0.5): {required} (paper: 9604)",
        f"empirical coverage over {coverage.trials} uniform samples of "
        f"{coverage.sample_size}: {100 * coverage.coverage:.1f}% within "
        f"+/-1% of truth ({100 * coverage.true_proportion:.2f}%)",
    ]
    return coverage, "\n".join(lines)
