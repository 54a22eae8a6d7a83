"""Host cost of one follower profile through ``users/lookup`` and of
one timeline through ``statuses/user_timeline``.

Every audit resolves its sample through ``users/lookup`` in batches of
100 ids (Table I), and each id is a follower the lazy world generates
from scratch, a target's followers in passes of columns, rendered
either as user objects (:meth:`SyntheticWorld.user_objects`) or as
rows of a structured block (:meth:`SyntheticWorld.user_row_block`).
A crawl charges each batch as its own request but has the world
answer all of them in one ``user_row_block`` call, at one instant when
the audit is pinned and at each request's completion when it is not.
A timeline page is one request per id, but the world can answer a
sample's pages one id at a time (:meth:`SyntheticWorld.timeline`,
which generates its follower as a batch of one row) or all at once
(:meth:`SyntheticWorld.timelines`, one pass of follower columns per
target and the tweets drawn in array passes), each row at its own
instant too.  This bench resolves the same 5,000 ids of a tilted
population (the shape every testbed target has) as production-sized
batches through both lookup forms, as one ``user_row_block`` call at
one instant and as one call at 5,000 distinct instants, and fetches
1,000 of their 200-tweet timelines one at a time, in one call at one
instant and in one call at 1,000 distinct instants.  It records the
per-row, per-call and per-user host cost in
``benchmarks/results/BENCH_materialise.json``.  It asserts that both
lookup forms answer the same followers, that each one-call lookup
answers the bytes of the per-100 blocks at the same instants, and that
every timeline form answers the same tweets as the one-id loop at the
same instants; it sets no timing threshold: the numbers are
machine-local (CI compares the batched costs of one run with the
per-100 and one-id costs of the same run).
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

    def rows_in_one_call():
        return world.user_row_block(ids, now)

    row_instants = [now + index * INSTANT_STEP for index in range(ROWS)]

    def rows_at_instants():
        return world.user_row_block(ids, row_instants)

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
    assert rows_in_one_call().rows.tobytes() == b"".join(
        block.rows.tobytes() for block in rows())
    assert rows_at_instants().rows.tobytes() == b"".join(
        world.user_row_block(ids[start:start + BATCH],
                             row_instants[start:start + BATCH]).rows.tobytes()
        for start in range(0, ROWS, BATCH))
    assert batched_timelines() == timelines()
    assert timelines_at_instants() == [
        world.timeline(user_id, TIMELINE_DEPTH, at)
        for user_id, at in zip(ids[:TIMELINES], instants)]

    object_seconds = measure_wallclock(objects, REPEATS)
    row_seconds = measure_wallclock(rows, REPEATS)
    one_call_seconds = measure_wallclock(rows_in_one_call, REPEATS)
    row_instants_seconds = measure_wallclock(rows_at_instants, REPEATS)
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
        "user_row_block_instants_us_per_row": round(
            row_instants_seconds / ROWS * 1e6, 2),
        "user_row_block_one_call_us_per_row": round(
            one_call_seconds / ROWS * 1e6, 2),
        "user_row_block_us_per_row": round(row_seconds / ROWS * 1e6, 2),
    }
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / "BENCH_materialise.json").write_text(
        json.dumps(doc, indent=2, sort_keys=True) + "\n", encoding="utf-8")
