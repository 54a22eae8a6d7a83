"""Ablation A6 — Section IV-B's hidden assumption, stress-tested.

The paper's ordering experiment concludes that "all the new entries in
all the lists of followers were always added at the end".  That check
implicitly assumes nobody *unfollows* during the observation window —
an unfollow removes an entry from the middle of the list and breaks the
suffix structure the diff relies on.

This experiment reruns the daily-snapshot protocol on a target of the
generative world that grows by a steady trickle and loses followers to
daily churn, at increasing churn levels, and reports how often the
day-pair check fails.  At zero churn the paper's result reproduces
exactly; with realistic churn the protocol still *detects* that
something moved (a feature: silent corruption would be worse), but the
clean "always at the end" phrasing no longer holds.

Churn is counter-based: day ``d``'s draws are the uniforms of the
stream at :func:`~repro.twitter.streams.churn_state` ``(seed, target,
d)``.  The first picks a Poisson count (mean ``churn`` times the listed
followers) by inverse CDF, the rest pick that many listed followers
without replacement, and each unfollows at that day's instant, so the
table is the same bytes on every NumPy build.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

from ..core.errors import ConfigurationError
from ..core.rng import poisson_quantile
from ..core.timeutil import DAY, PAPER_EPOCH, YEAR
from ..twitter.draws import stream_uniforms
from ..twitter.population import (
    FollowerPopulation,
    FollowerSegmentSpec,
    SyntheticWorld,
    TargetSpec,
    target_id,
)
from ..twitter.streams import churn_state
from .ordering import check_head_growth
from .report import TextTable

#: The fresh audience of a public figure: mostly active humans, some
#: newcomers, a few dormant and fake accounts.
ORGANIC_MIX = {
    "genuine_active": 0.7,
    "genuine_newbie": 0.2,
    "genuine_abandoned": 0.05,
    "fake_classic": 0.05,
}


@dataclass(frozen=True)
class ChurnSensitivityRow:
    """Ordering-check outcome at one churn level."""

    daily_churn: float
    days: int
    day_pairs: int
    violations: int
    new_followers: int

    @property
    def violation_rate(self) -> float:
        """Fraction of day pairs failing the suffix check."""
        if self.day_pairs == 0:
            return 0.0
        return self.violations / self.day_pairs


def _check_churn(churn: float) -> None:
    """Reject a daily churn fraction outside ``[0, 1)`` (NaN included)."""
    if not 0.0 <= churn < 1.0:
        raise ConfigurationError(
            f"churn levels must be in [0, 1): {churn!r}")


def daily_churn(world: SyntheticWorld, population: FollowerPopulation,
                churn: float, day: int, at: float) -> int:
    """Day ``day``'s unfollows of ``population``'s target at ``at``.

    A Poisson count with mean ``churn`` times the followers listed at
    ``at`` (at most all of them), picked without replacement by a
    partial Fisher-Yates shuffle of the list; returns the count.
    """
    _check_churn(churn)
    listed = population.size_at(at)
    state = churn_state(world.seed, population.ordinal, day)
    count = min(listed, poisson_quantile(
        churn * listed, float(stream_uniforms(state, 1)[0])))
    if not count:
        return 0
    entries = list(range(listed))
    for index, uniform in enumerate(
            stream_uniforms(state, 1 + count)[1:].tolist()):
        pick = index + int(uniform * (listed - index))
        entries[index], entries[pick] = entries[pick], entries[index]
    target = target_id(population.ordinal)
    for position in population.schedule.positions(entries[:count], at):
        world.unfollow(population.follower_id_at(position), target, at)
    return count


def _snapshots(world: SyntheticWorld, population: FollowerPopulation,
               churn: float, days: int, start: float
               ) -> List[Tuple[int, ...]]:
    """Daily newest-first snapshots of the target's follower list, from
    ``start``; each day after the first loses its churn first."""
    target = target_id(population.ordinal)
    snapshots: List[Tuple[int, ...]] = []
    for day in range(days):
        now = start + day * DAY
        if day and churn > 0:
            daily_churn(world, population, churn, day, now)
        ids = world.follower_ids(
            target, 0, world.follower_count(target, now), now)
        snapshots.append(tuple(ids[::-1].tolist()))
    return snapshots


def run_churn_sensitivity(
        *,
        churn_levels: Sequence[float] = (0.0, 0.02, 0.08, 0.25),
        days: int = 8,
        growth_per_day: float = 120.0,
        warmup_days: int = 5,
        seed: int = 42,
) -> Tuple[List[ChurnSensitivityRow], str]:
    """Measure ordering-check violations across churn levels.

    Each level gets a fresh world whose target starts with no
    followers and gains ``growth_per_day`` a day; snapshots start after
    ``warmup_days``.  Churn levels must lie in ``[0, 1)``.
    """
    if days < 2:
        raise ConfigurationError(f"days must be >= 2: {days!r}")
    if growth_per_day <= 0:
        raise ConfigurationError(
            f"growth_per_day must be > 0: {growth_per_day!r}")
    if warmup_days < 0:
        raise ConfigurationError(
            f"warmup_days must be >= 0: {warmup_days!r}")
    for level in churn_levels:
        _check_churn(level)
    rows: List[ChurnSensitivityRow] = []
    for level in churn_levels:
        world = SyntheticWorld(seed=seed, ref_time=PAPER_EPOCH)
        population = world.add_target(TargetSpec(
            screen_name="ordered", followers=0,
            segments=[FollowerSegmentSpec(1.0, ORGANIC_MIX)],
            created_at=PAPER_EPOCH - YEAR,
            daily_new_followers=growth_per_day, statuses_count=200))
        snapshots = _snapshots(world, population, level, days,
                               PAPER_EPOCH + warmup_days * DAY)
        new_total, violations = check_head_growth(snapshots)
        rows.append(ChurnSensitivityRow(
            daily_churn=level,
            days=days,
            day_pairs=days - 1,
            violations=violations,
            new_followers=new_total,
        ))

    table = TextTable(
        ["daily churn", "day pairs", "suffix violations",
         "violation rate", "clean arrivals counted"],
        title="A6: Section IV-B's ordering check vs audience churn",
    )
    for row in rows:
        table.add_row(
            f"{row.daily_churn:.0%}",
            row.day_pairs,
            row.violations,
            f"{row.violation_rate:.0%}",
            row.new_followers,
        )
    return rows, table.render()
