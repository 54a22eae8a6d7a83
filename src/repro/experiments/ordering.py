"""Experiment E2 — Section IV-B: follower-list ordering.

The paper's hypothesis: ``GET followers/ids`` "reports the followers in
the reverse order with respect to 'following time'" — the first ids
returned are the *latest* accounts to have followed.  The authors
verified it by saving each testbed account's full follower list once a
day and diffing consecutive snapshots: every new follower appeared at
one fixed end of the list, never in the middle.

This experiment does exactly that against the simulator: daily full
crawls over a window of days, then a structural check that each day's
(newest-first) list equals ``new_arrivals + yesterday's list``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

from ..api.client import TwitterApiClient
from ..api.crawler import Crawler
from ..core.clock import SimClock
from ..core.errors import ConfigurationError
from ..core.timeutil import DAY
from ..twitter.population import SyntheticWorld
from .report import TextTable


@dataclass(frozen=True)
class OrderingResult:
    """Outcome of the daily-snapshot diff for one target."""

    handle: str
    days: int
    initial_followers: int
    final_followers: int
    new_followers_total: int
    #: Number of day-pairs where yesterday's list was NOT a suffix of
    #: today's (i.e. an arrival appeared anywhere but the head).
    violations: int

    @property
    def ordering_confirmed(self) -> bool:
        """True iff every arrival entered at the head of the listing."""
        return self.violations == 0


def daily_snapshots(world: SyntheticWorld, handle: str, days: int,
                    clock: SimClock) -> List[Tuple[int, ...]]:
    """Crawl the full (newest-first) follower list once per simulated day.

    Each crawl pays real API costs against ``clock``; a fresh budget is
    used per day, as a daily cron job would have.
    """
    if days < 2:
        raise ConfigurationError(f"need >= 2 daily snapshots: {days!r}")
    client = TwitterApiClient(world, clock)
    crawler = Crawler(client)
    snapshots: List[Tuple[int, ...]] = []
    for day in range(days):
        day_start = clock.now()
        client.reset_budgets()
        snapshots.append(tuple(crawler.fetch_all_follower_ids(handle)))
        # Sleep until the same time tomorrow.
        clock.advance_to(day_start + DAY)
    return snapshots


def check_head_growth(snapshots: Sequence[Tuple[int, ...]]) -> Tuple[int, int]:
    """Diff consecutive newest-first snapshots.

    Returns ``(new_followers_total, violations)``.  A day-pair is a
    violation unless yesterday's list is exactly the tail of today's —
    which is equivalent to "all new entries were appended at the
    (chronological) end", the property the paper confirms.

    Unfollows also break the suffix property; the paper's observation
    window showed none, so on a world without departures a violation
    here means an ordering bug (ablation A6,
    :mod:`repro.experiments.live_ordering`, adds unfollows).
    """
    new_total = 0
    violations = 0
    for yesterday, today in zip(snapshots, snapshots[1:]):
        growth = len(today) - len(yesterday)
        if growth < 0 or today[growth:] != yesterday:
            violations += 1
            continue
        new_ids = set(today[:growth])
        if len(new_ids) != growth or new_ids & set(yesterday):
            violations += 1
            continue
        new_total += growth
    return new_total, violations


def run_ordering_experiment(world: SyntheticWorld, handles: Sequence[str],
                            *, days: int = 7,
                            clock: SimClock = None
                            ) -> Tuple[List[OrderingResult], str]:
    """Run the Section IV-B experiment over the given targets."""
    results: List[OrderingResult] = []
    for handle in handles:
        local_clock = SimClock(world.ref_time) if clock is None else clock
        snapshots = daily_snapshots(world, handle, days, local_clock)
        new_total, violations = check_head_growth(snapshots)
        results.append(OrderingResult(
            handle=handle,
            days=days,
            initial_followers=len(snapshots[0]),
            final_followers=len(snapshots[-1]),
            new_followers_total=new_total,
            violations=violations,
        ))
    table = TextTable(
        ["Twitter profile", "days", "followers (day 1)",
         "followers (last)", "new arrivals", "arrivals at head only"],
        title="Section IV-B: follower lists are returned newest-first",
    )
    for result in results:
        table.add_row(
            "@" + result.handle,
            result.days,
            result.initial_followers,
            result.final_followers,
            result.new_followers_total,
            "yes" if result.ordering_confirmed else "NO",
        )
    return results, table.render()
