"""Experiment E5 — acquisition time for very large follower bases.

The paper (Section IV-B): "collecting data of accounts with a very
large numbers of followers can be extremely time consuming.  For
example, for our tests we gathered data from the whole set of followers
of President Obama.  This required a total time of around 27 days."

The experiment has two halves:

* an **analytic** prediction for each high-tier target at its real
  scale (Obama: 41 M followers -> ~5.7 days of ``followers/ids`` paging
  plus ~23.7 days of ``users/lookup``);
* an **empirical validation** of the model: a full crawl of a mid-sized
  synthetic base is actually executed against the rate-limited client
  and compared to the prediction.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

from ..api.client import TwitterApiClient
from ..api.crawler import AcquisitionEstimate, Crawler, estimate_acquisition_time
from ..core.clock import SimClock
from ..core.timeutil import format_duration
from ..twitter.generator import add_simple_target, build_world
from .report import TextTable
from .testbed import HIGH, accounts_in_tiers


@dataclass(frozen=True)
class EmpiricalCrawl:
    """Measured vs predicted full-crawl time for one synthetic base."""

    followers: int
    measured_seconds: float
    predicted_seconds: float

    @property
    def relative_error(self) -> float:
        """|measured - predicted| / predicted."""
        if self.predicted_seconds == 0:
            return 0.0
        return abs(self.measured_seconds - self.predicted_seconds) \
            / self.predicted_seconds


def validate_model(followers: int = 60_000, seed: int = 3) -> EmpiricalCrawl:
    """Crawl a synthetic base end to end and compare to the estimator.

    The crawl fetches the full id list and looks up every follower —
    the same acquisition the paper performed for Obama, at a size that
    simulates in well under a second of wall time.
    """
    world = build_world(seed=seed)
    add_simple_target(world, "bigone", followers, 0.4, 0.1, 0.5)
    clock = SimClock()
    client = TwitterApiClient(world, clock)
    crawler = Crawler(client)
    start = clock.now()
    ids = crawler.fetch_all_follower_ids("bigone")
    crawler.lookup_users_block(ids)
    measured = clock.now() - start
    predicted = estimate_acquisition_time(followers).seconds
    return EmpiricalCrawl(
        followers=followers,
        measured_seconds=measured,
        predicted_seconds=predicted,
    )


def run_acquisition_experiment() -> Tuple[List[AcquisitionEstimate],
                                          EmpiricalCrawl, str]:
    """Predict high-tier crawl times and validate the model empirically."""
    estimates = [
        estimate_acquisition_time(account.followers)
        for account in accounts_in_tiers(HIGH)
    ]
    table = TextTable(
        ["Twitter profile", "followers", "followers/ids pages",
         "users/lookup requests", "predicted crawl time"],
        title="Whole-base acquisition cost under Table I limits "
              "(paper: Obama took 'around 27 days')",
    )
    for account, estimate in zip(accounts_in_tiers(HIGH), estimates):
        table.add_row(
            "@" + account.handle,
            account.followers,
            estimate.follower_pages,
            estimate.lookup_requests,
            format_duration(estimate.seconds),
        )
    empirical = validate_model()
    table.add_row(
        "(synthetic validation)",
        empirical.followers,
        "-",
        "-",
        f"measured {format_duration(empirical.measured_seconds)} vs "
        f"predicted {format_duration(empirical.predicted_seconds)} "
        f"({100 * empirical.relative_error:.1f}% error)",
    )
    return estimates, empirical, table.render()
