"""Ablation A5 — seller delivery strategy vs the growth monitor.

The market's answer to follower-count watchdogs is *drip delivery*:
spread the purchased block thinly enough and no single day stands out.
This ablation buys the same quantity from each preset seller on
identical generative worlds (the order is a post-reference block with
hourly tranches and daily attrition) and measures what a daily-polling
monitor sees — quantifying the detectability/price trade-off and the
monitor's blind spot (which is exactly why the paper's FC engine audits
*composition*, not growth).
"""

import pytest

from repro.core import DAY, PAPER_EPOCH, SimClock
from repro.experiments import TextTable
from repro.growth import BurstDetector, GrowthMonitor, series_from_observations
from repro.market import PRESET_SELLERS
from repro.twitter import add_simple_target, build_world

QUANTITY = 6000
ORGANIC_PER_DAY = 150.0
WATCH_DAYS = 20
PURCHASE_DAY = 8
#: The order goes in an hour after that day's poll.
PURCHASE_AT_DAYS = PURCHASE_DAY + 1 / 24


def run_scenario(seller, seed=42):
    """Grow organically, buy on day 8, poll daily for 20 days."""
    world = build_world(seed=seed, ref_time=PAPER_EPOCH)
    add_simple_target(world, "watched", 0, 0.05, 0.05, 0.90,
                      daily_new_followers=ORGANIC_PER_DAY,
                      post_ref_bursts=(
                          seller.order(PURCHASE_AT_DAYS, QUANTITY),))
    clock = SimClock(PAPER_EPOCH)
    monitor = GrowthMonitor(world, clock)
    observations = []
    for day in range(WATCH_DAYS):
        clock.advance_to(PAPER_EPOCH + day * DAY)
        observations.append(monitor.poll("watched"))
    series = series_from_observations(observations)
    events = BurstDetector().detect(series)
    top_z = events[0].z_score if events else 0.0
    return events, top_z


@pytest.mark.benchmark(group="ablation-a5")
def test_ablation_seller_evasion(once, save_result):
    def sweep():
        return [(seller, *run_scenario(seller)) for seller in PRESET_SELLERS]

    rows = once(sweep)

    table = TextTable(
        ["seller", "$ for 6000", "delivery span", "attrition/day",
         "monitor verdict", "top z-score"],
        title=f"A5: seller strategy vs a daily growth monitor "
              f"(organic baseline {ORGANIC_PER_DAY:.0f}/day)",
    )
    results = {}
    for seller, events, top_z in rows:
        results[seller.name] = (events, top_z)
        table.add_row(
            seller.name,
            f"${seller.price(QUANTITY):.0f}",
            f"{seller.delivery_hours(QUANTITY):.1f}h",
            f"{seller.daily_attrition:.1%}",
            "DETECTED" if events else "evaded",
            f"{top_z:.1f}",
        )
    rendered = table.render()
    save_result("ablation_a5_sellers", rendered)
    print("\n" + rendered)

    # Bulk and standard deliveries concentrate thousands of arrivals in
    # hours: unmissable.
    assert results["cheap-bulk"][0], "bulk purchase must be detected"
    assert results["standard"][0], "standard purchase must be detected"
    # The premium drip (60/hour = 1440/day on a 150/day baseline over
    # ~4 days) still shows, but far less starkly than the bulk spike.
    assert results["cheap-bulk"][1] > 3 * results["premium-drip"][1]
    # Price buys stealth: z-scores fall monotonically with price.
    zs = [results[s.name][1] for s in PRESET_SELLERS]
    assert zs == sorted(zs, reverse=True)
