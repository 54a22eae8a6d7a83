"""Host cost of one follower profile through ``users/lookup``.

Every audit resolves its sample through ``users/lookup`` in batches of
100 ids (Table I), and each id is a follower the lazy world generates
from scratch: persona and account streams, one ``Account``, then
either a user object (:meth:`SyntheticWorld.user_objects`) or one row
of a structured block (:meth:`SyntheticWorld.user_row_block`).  This
bench resolves the same ids in production-sized batches through both
forms, on a tilted population (the shape every testbed target has),
and records the per-row host cost in
``benchmarks/results/BENCH_materialise.json``.  It asserts that both
forms answer the same followers and sets no timing threshold: the
numbers are machine-local.
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

    # Both forms answer the same followers before either is timed.
    assert [list(block) for block in rows()] == objects()

    object_seconds = measure_wallclock(objects, REPEATS)
    row_seconds = measure_wallclock(rows, REPEATS)
    doc = {
        "batch": BATCH,
        "population": FOLLOWERS,
        "repeats": REPEATS,
        "rows": ROWS,
        "user_objects_us_per_row": round(object_seconds / ROWS * 1e6, 2),
        "user_row_block_us_per_row": round(row_seconds / ROWS * 1e6, 2),
    }
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / "BENCH_materialise.json").write_text(
        json.dumps(doc, indent=2, sort_keys=True) + "\n", encoding="utf-8")
