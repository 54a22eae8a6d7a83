"""Host cost of one follower profile through ``users/lookup`` and of one
timeline through ``statuses/user_timeline``.

Every audit resolves its sample through ``users/lookup`` in batches of
100 ids (Table I), and each id is a follower the lazy world generates
from scratch: one batch of follower columns per target, rendered
either as user objects (:meth:`SyntheticWorld.user_objects`) or as
rows of a structured block (:meth:`SyntheticWorld.user_row_block`).
A timeline is fetched one id at a time, so
:meth:`SyntheticWorld.timeline` generates its follower as a batch of
one row before synthesising the tweets.  This bench resolves the same
ids in production-sized batches through both lookup forms, fetches
their 200-tweet timelines one by one, on a tilted population (the
shape every testbed target has), and records the per-row and per-call
host cost in ``benchmarks/results/BENCH_materialise.json``.  It
asserts that both lookup forms answer the same followers and sets no
timing threshold: the numbers are machine-local.
"""

from __future__ import annotations

import json
import pathlib

from repro.api.ratelimit import DEFAULT_POLICIES
from repro.core.timeutil import PAPER_EPOCH
from repro.obs import measure_wallclock
from repro.twitter import add_simple_target, build_world

RESULTS_DIR = pathlib.Path(__file__).parent / "results"

BATCH = DEFAULT_POLICIES["users/lookup"].elements_per_request
FOLLOWERS = 50_000
ROWS = 5_000
REPEATS = 5
TIMELINES = 1_000
TIMELINE_DEPTH = 200


def test_materialise_per_row_cost():
    world = build_world(seed=1)
    add_simple_target(world, "tilted", FOLLOWERS, 0.4, 0.2, 0.4)
    population = world.population("tilted")
    now = PAPER_EPOCH
    ids = population.follower_ids(0, FOLLOWERS, now)[::FOLLOWERS // ROWS].tolist()
    batches = [ids[start:start + BATCH] for start in range(0, ROWS, BATCH)]

    def objects():
        return [world.user_objects(batch, now) for batch in batches]

    def rows():
        return [world.user_row_block(batch, now) for batch in batches]

    def timelines():
        return [world.timeline(user_id, TIMELINE_DEPTH, now)
                for user_id in ids[:TIMELINES]]

    # Both forms answer the same followers before either is timed.
    assert [list(block) for block in rows()] == objects()

    object_seconds = measure_wallclock(objects, REPEATS)
    row_seconds = measure_wallclock(rows, REPEATS)
    timeline_seconds = measure_wallclock(timelines, REPEATS)
    doc = {
        "batch": BATCH,
        "population": FOLLOWERS,
        "repeats": REPEATS,
        "rows": ROWS,
        "timeline_depth": TIMELINE_DEPTH,
        "timeline_us_per_call": round(timeline_seconds / TIMELINES * 1e6, 2),
        "timelines": TIMELINES,
        "user_objects_us_per_row": round(object_seconds / ROWS * 1e6, 2),
        "user_row_block_us_per_row": round(row_seconds / ROWS * 1e6, 2),
    }
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / "BENCH_materialise.json").write_text(
        json.dumps(doc, indent=2, sort_keys=True) + "\n", encoding="utf-8")
