"""Host cost of one follower profile through ``users/lookup`` and of
one timeline through ``statuses/user_timeline``.

Every audit resolves its sample through ``users/lookup`` in batches of
100 ids (Table I), and each id is a follower the lazy world generates
from scratch: one batch of follower columns per target, rendered
either as user objects (:meth:`SyntheticWorld.user_objects`) or as
rows of a structured block (:meth:`SyntheticWorld.user_row_block`).
A timeline page is one request per id, but the world can answer a
sample's pages one id at a time (:meth:`SyntheticWorld.timeline`,
which generates its follower as a batch of one row) or all at once
(:meth:`SyntheticWorld.timelines`, one batch of follower columns per
target and the tweets drawn in array passes).  A pinned batch audit
reads a sample at one instant; an unpinned (serial) crawl reads each
id at the instant its request completed, and the world answers it in
the same one call, each row at its own instant.  This bench resolves
the same ids in production-sized batches through both lookup forms and
fetches their 200-tweet timelines one at a time, in one call at one
instant and in one call at 1,000 distinct instants, on a tilted
population (the shape every testbed target has), and records the
per-row, per-call and per-user host cost in
``benchmarks/results/BENCH_materialise.json``.  It asserts that both
lookup forms answer the same followers and every timeline form the
same tweets as the one-id loop at the same instants, and sets no
timing threshold: the numbers are machine-local (CI compares the
timeline costs of one run).
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
#: One second apart, as an unpinned crawl's request completions are.
INSTANT_STEP = 1.0


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

    def batched_timelines():
        return world.timelines(ids[:TIMELINES], TIMELINE_DEPTH, now)

    instants = [now + index * INSTANT_STEP for index in range(TIMELINES)]

    def timelines_at_instants():
        return world.timelines(ids[:TIMELINES], TIMELINE_DEPTH, instants)

    # Every form of each answer agrees before any is timed.
    assert [list(block) for block in rows()] == objects()
    assert batched_timelines() == timelines()
    assert timelines_at_instants() == [
        world.timeline(user_id, TIMELINE_DEPTH, at)
        for user_id, at in zip(ids[:TIMELINES], instants)]

    object_seconds = measure_wallclock(objects, REPEATS)
    row_seconds = measure_wallclock(rows, REPEATS)
    timeline_seconds = measure_wallclock(timelines, REPEATS)
    batched_seconds = measure_wallclock(batched_timelines, REPEATS)
    instants_seconds = measure_wallclock(timelines_at_instants, REPEATS)
    doc = {
        "batch": BATCH,
        "population": FOLLOWERS,
        "repeats": REPEATS,
        "rows": ROWS,
        "timeline_depth": TIMELINE_DEPTH,
        "timeline_us_per_call": round(timeline_seconds / TIMELINES * 1e6, 2),
        "timelines": TIMELINES,
        "timelines_instants_us_per_user": round(
            instants_seconds / TIMELINES * 1e6, 2),
        "timelines_us_per_user": round(batched_seconds / TIMELINES * 1e6, 2),
        "user_objects_us_per_row": round(object_seconds / ROWS * 1e6, 2),
        "user_row_block_us_per_row": round(row_seconds / ROWS * 1e6, 2),
    }
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / "BENCH_materialise.json").write_text(
        json.dumps(doc, indent=2, sort_keys=True) + "\n", encoding="utf-8")
