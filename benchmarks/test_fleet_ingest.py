"""Host cost of a fleet round's two per-tick steps, whole-fleet against
per-handle.

A ``repro monitor`` fleet reads every target's follower count on each
tick (``SyntheticWorld.target_sizes``, for the ``followers.fleet``
gauge and for every ``users/lookup`` page that names targets) and
hands each answered page of 100 readings to the live plane
(``LiveTelemetry.observe_page``).  The world counts every target whose
schedule only trickles with one array expression, and the detector
bridge ingests a page with array operations, running the exact
per-handle detector only for handles whose largest day clears
``min_excess`` over their median.  This bench times, in one run:

* one ``target_sizes`` call over a 1,000-target fleet (one buyer with
  a purchased block, the rest trickling) against a loop of
  ``FollowerPopulation.size_at``, asserting equal counts;
* one 100-reading ``observe_page`` against 100 ``observe_followers``
  calls, on twin planes that carry the same 20 days of history, each
  day ticked on both, asserting equal fired flags and alert logs (a
  purchase on day 25 pages on both).

It records the per-call costs and their ratios in
``benchmarks/results/BENCH_fleet_ingest.json`` and sets no timing
threshold: the numbers are machine-local (CI compares the two costs
of one run).
"""

from __future__ import annotations

import json
import pathlib
import time

from repro.core.timeutil import DAY, PAPER_EPOCH
from repro.obs.live import DetectorBridge, LiveTelemetry
from repro.twitter import add_simple_target, build_world, fake_purchase_burst

RESULTS_DIR = pathlib.Path(__file__).parent / "results"

TARGETS = 1_000
PAGE = 100
#: Days of history before the timed days, and the timed days.
HISTORY_DAYS = 20
TIMED_DAYS = 10
PURCHASE_DAY = 25
REPEATS = 7


def _fleet_world():
    world = build_world(seed=1, ref_time=PAPER_EPOCH)
    for index in range(TARGETS):
        bursts = (fake_purchase_burst(12.0, 4_000),) if index == 1 else ()
        add_simple_target(world, f"fleet_{index}", 1_000 + 37 * (index % 13),
                          0.25, 0.10, 0.65, daily_new_followers=100.0,
                          post_ref_bursts=bursts)
    return world


def _best_seconds(fn, repeats=REPEATS):
    best = float("inf")
    for __ in range(repeats):
        start = time.process_time()
        fn()
        best = min(best, time.process_time() - start)
    return best


def _plane():
    live = LiveTelemetry(origin=PAPER_EPOCH, pane_width=DAY)
    live.attach_bridge(DetectorBridge(live.alerts, origin=PAPER_EPOCH))
    return live


def _page(day):
    """Day ``day``'s readings of ``PAGE`` handles: steady growth, and
    one handle buying a block on ``PURCHASE_DAY``."""
    counts = [1_000 + (100 + index % 7) * day for index in range(PAGE)]
    if day >= PURCHASE_DAY:
        counts[3] += 6_000
    return PAPER_EPOCH + day * DAY + 60.0, counts


def _target_costs():
    world = _fleet_world()
    populations = world.targets()
    ordinals = list(range(TARGETS))
    now = PAPER_EPOCH + 14.5 * DAY

    def loop():
        return [population.size_at(now) for population in populations]

    assert world.target_sizes(ordinals, now).tolist() == loop()
    array_seconds = _best_seconds(lambda: world.target_sizes(ordinals, now))
    loop_seconds = _best_seconds(loop)
    return array_seconds, loop_seconds


def _ingest_costs():
    handles = [f"h{index}" for index in range(PAGE)]
    paged, single = _plane(), _plane()
    for day in range(HISTORY_DAYS):
        t, counts = _page(day)
        paged.observe_page(t, handles, counts)
        for handle, count in zip(handles, counts):
            single.observe_followers(handle, t, count)
        for live in (paged, single):
            live.tick(t + 3_600.0)
    page_seconds = one_seconds = 0.0
    for day in range(HISTORY_DAYS, HISTORY_DAYS + TIMED_DAYS):
        t, counts = _page(day)
        start = time.process_time()
        fired = paged.observe_page(t, handles, counts)
        page_seconds += time.process_time() - start
        start = time.process_time()
        one_by_one = [single.observe_followers(handle, t, count)
                      for handle, count in zip(handles, counts)]
        one_seconds += time.process_time() - start
        assert fired == one_by_one
        for live in (paged, single):
            live.tick(t + 3_600.0)
    assert paged.alerts.counts()[0] == 1
    assert paged.alerts.to_jsonl() == single.alerts.to_jsonl()
    return page_seconds / TIMED_DAYS, one_seconds / TIMED_DAYS


def test_fleet_ingest_costs():
    array_seconds, loop_seconds = _target_costs()
    page_seconds, one_seconds = _ingest_costs()
    doc = {
        "history_days": HISTORY_DAYS,
        "observe_followers_x100_us": round(one_seconds * 1e6, 2),
        "observe_page_ratio": round(page_seconds / one_seconds, 4),
        "observe_page_us": round(page_seconds * 1e6, 2),
        "page": PAGE,
        "repeats": REPEATS,
        "size_at_loop_us": round(loop_seconds * 1e6, 2),
        "target_sizes_ratio": round(array_seconds / loop_seconds, 4),
        "target_sizes_us": round(array_seconds * 1e6, 2),
        "targets": TARGETS,
        "timed_days": TIMED_DAYS,
    }
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / "BENCH_fleet_ingest.json").write_text(
        json.dumps(doc, indent=2, sort_keys=True) + "\n", encoding="utf-8")
