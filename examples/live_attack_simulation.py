#!/usr/bin/env python
"""Live attack simulation: buy followers, watch every detector react.

A scenario on the generative world, where the purchase is part of the
target's arrival schedule:

* day 0-9    — @rising_star (2000 followers) grows organically
               (200 followers/day);
* day 10     — an hour after the day's poll, 8000 followers are
               bought from the cheap-bulk seller (delivered in two
               hourly tranches);
* day 10-24  — attrition quietly erodes the purchased block while
               organic growth continues.

Three instruments watch the same account:

1. the **growth monitor** (daily counter polling, burst detection);
2. the **StatusPeople engine** (head-of-list sampler) audited before
   and after the purchase;
3. the **FC engine** (uniform sampler) at the same instants.

Run::

    python examples/live_attack_simulation.py
"""

from repro.analytics import StatusPeopleFakers
from repro.audit import AuditRequest
from repro.core import DAY, PAPER_EPOCH, SimClock, isoformat
from repro.fc import FakeClassifierEngine, default_detector
from repro.growth import BurstDetector, GrowthMonitor, series_from_observations
from repro.market import CHEAP_BULK
from repro.twitter import add_simple_target, build_world

QUANTITY = 8000
PURCHASE_DAY = 10
WATCH_DAYS = 15


def build_scenario():
    """A 2000-follower account growing 200/day that buys on day 10."""
    world = build_world(seed=7, ref_time=PAPER_EPOCH)
    add_simple_target(
        world, "rising_star", 2000, 0.10, 0.05, 0.85,
        daily_new_followers=200.0,
        post_ref_bursts=(
            CHEAP_BULK.order(PURCHASE_DAY + 1 / 24, QUANTITY),))
    return world


def audit(world, clock, detector, moment_label):
    sp = StatusPeopleFakers(world, clock, seed=4)
    fc = FakeClassifierEngine(world, clock, detector, seed=4)
    request = AuditRequest(target="rising_star")
    sp_report = sp.audit(request)
    fc_report = fc.audit(request)
    print(f"\n--- audit {moment_label} "
          f"({fc_report.followers_count} followers, "
          f"{isoformat(clock.now())[:10]}) ---")
    print(f"  StatusPeople: {sp_report.inactive_pct}% inactive, "
          f"{sp_report.fake_pct}% fake, {sp_report.genuine_pct}% genuine")
    print(f"  Fake Project: {fc_report.inactive_pct}% inactive, "
          f"{fc_report.fake_pct}% fake, {fc_report.genuine_pct}% genuine")


def main() -> None:
    world = build_scenario()
    detector = default_detector(seed=99)
    clock = SimClock(PAPER_EPOCH + PURCHASE_DAY * DAY)

    audit(world, clock, detector, "BEFORE the purchase")

    print(f"\nday {PURCHASE_DAY}: placing an order with the cheap-bulk "
          f"seller ...")
    print(f"  {QUANTITY} followers for ${CHEAP_BULK.price(QUANTITY):.2f}, "
          f"delivery within {CHEAP_BULK.delivery_hours(QUANTITY):.1f}h")

    # The watchdog keeps polling daily through the attack.
    monitor = GrowthMonitor(world, clock)
    observations = []
    for __ in range(WATCH_DAYS):
        observations.append(monitor.poll("rising_star"))
        clock.advance_to(clock.now() + DAY)
    events = BurstDetector().detect(series_from_observations(observations))
    print(f"\ngrowth monitor over days {PURCHASE_DAY}-"
          f"{PURCHASE_DAY + WATCH_DAYS - 1}: {'ALERT' if events else 'quiet'}")
    if events:
        event = events[0]
        print(f"  burst on {isoformat(event.start_time)[:10]}: "
              f"{event.arrivals} arrivals vs baseline "
              f"{event.baseline:.0f}/day (z={event.z_score:.0f})")

    audit(world, clock, detector,
          f"AFTER the purchase (day {PURCHASE_DAY + WATCH_DAYS})")
    population = world.population("rising_star")
    departed = (population.arrived_at(clock.now())
                - population.size_at(clock.now()))
    print(f"\nattrition so far: {departed} of the {QUANTITY} purchased "
          f"followers already unfollowed "
          f"({CHEAP_BULK.daily_attrition:.0%}/day).")
    print("\nNote the asymmetry the paper predicts: the purchased block "
          "sits at the head of the follower list, so the head-sampling "
          "tool's numbers jump far more than the base truly changed, "
          "while FC moves by exactly the purchased share.")


if __name__ == "__main__":
    main()
