"""A crawl's ``users/lookup`` batches against the per-request protocol.

``Crawler.lookup_users_block`` charges each batch of 100 ids as its own
request but reads every row in one world call
(``TwitterApiClient.users_lookup_batches``).  The oracle below is the
crawl one request at a time, written out: profile-cache split, each
batch of misses charged with retries, each id then read alone at its
batch's instant (a cache hit at the pin), a batch whose retries ran out
dropping its own positions, and the ids resolved noted in the cache.
A crawl and the oracle, run on twin clients, must leave the same call
log, simulated clock, request and retry counters, fault count,
profile-cache hits, misses and fetched ids, and return the same row
bytes: pinned and unpinned, with a shared cache whose hits fall between
misses, unknown and duplicate ids, and under a fault plan that exhausts
one batch's retries while an id of that batch also sits in a batch that
is answered.
"""

from __future__ import annotations

import gc

import numpy as np
import pytest

from repro.api import Crawler, TwitterApiClient
from repro.core import DAY, PAPER_EPOCH, ConfigurationError, SimClock
from repro.core.errors import RetryableApiError
from repro.faults.plan import FaultPlan, InjectorSpec
from repro.faults.retry import RetryPolicy
from repro.obs.runtime import observed
from repro.sched import AcquisitionCache
from repro.twitter import add_simple_target, build_world
from repro.twitter.columnar.schema import ACCOUNT_DTYPE
from repro.twitter.population import AMBIENT_POOL_SIZE, ambient_id, target_id

RESOURCE = "users/lookup"
BATCH = 100
PIN = PAPER_EPOCH + DAY


def _world():
    world = build_world(seed=3, ref_time=PAPER_EPOCH)
    add_simple_target(world, "alpha", 1500, 0.3, 0.4, 0.3,
                      daily_new_followers=100_000.0)
    add_simple_target(world, "beta", 600, 0.2, 0.5, 0.3)
    return world


def _ids(world):
    """Followers of both targets, followers that arrive while an
    unpinned crawl runs, targets, ambient and unknown ids, duplicates,
    and one id (``shared``) repeated in every batch."""
    alpha, beta = world.targets()
    frontier = alpha.size_at(PAPER_EPOCH)
    base = alpha.follower_ids(0, frontier, PAPER_EPOCH)[::7].tolist()
    base += beta.follower_ids(0, 600, PAPER_EPOCH)[::5].tolist()
    base += [alpha.follower_id_at(frontier + k) for k in range(0, 40, 4)]
    base += [target_id(0), target_id(1), ambient_id(3),
             ambient_id(AMBIENT_POOL_SIZE), target_id(9), 2**70]
    base += [base[2], base[2], base[-9]]
    shared = base[5]
    ids = []
    for start in range(0, len(base), 45):
        ids += base[start:start + 45] + [shared]
    return ids, shared


def _per_request(client, user_ids):
    """The crawl one request at a time, written out."""
    cache = client.profile_cache
    pin = client.observed_at
    fetched = ([False] * len(user_ids) if cache is None
               else cache.fetched_mask(user_ids))
    instants = [pin if hit else None for hit in fetched]
    misses = [index for index, hit in enumerate(fetched) if not hit]
    for start in range(0, len(misses), BATCH):
        batch = misses[start:start + BATCH]
        try:
            completed, __ = client._request(RESOURCE, len(batch))
        except RetryableApiError:
            continue
        for index in batch:
            instants[index] = pin if pin is not None else completed
    rows = np.concatenate([np.empty(0, dtype=ACCOUNT_DTYPE)] + [
        client._world.user_row_block([user_id], at).rows
        for user_id, at in zip(user_ids, instants) if at is not None])
    if cache is not None:
        cache.note_fetched(rows["user_id"].tolist())
    return rows


def _crawl(client, user_ids):
    return Crawler(client).lookup_users_block(user_ids).rows


def _run(lookup, *, pinned, cached, faults):
    world = _world()
    cache = AcquisitionCache() if cached else None
    ids, shared = _ids(world)
    with observed() as obs:
        client = TwitterApiClient(
            world, SimClock(PAPER_EPOCH), faults=faults,
            retry=RetryPolicy(max_attempts=2) if faults else None,
            acquisition_cache=cache)
        if pinned:
            client.pin_observation(PIN)
        # The first crawl fills a shared cache; the second then finds
        # its hits between misses, and every copy of ``shared`` a miss.
        first = lookup(client, [uid for uid in ids[::3] if uid != shared])
        second = lookup(client, ids)
    return {
        "rows": (first.tobytes(), second.tobytes()),
        "shared_rows": int((second["user_id"] == shared).sum()),
        "calls": client.call_log.calls(),
        "clock": client.clock.now(),
        "requests": obs.registry.value("api_requests_total",
                                       resource=RESOURCE),
        "retries": client.retries_total,
        "faults": client.faults_seen,
        "cache": None if cache is None else cache.stats(),
        "fetched": None if cache is None else sorted(cache._profiles),
    }


#: Seed 2 exhausts the retries of some batches and answers others.
FLAKY = FaultPlan(seed=2, injectors=(InjectorSpec(
    kind="transient_503", probability=0.5, resources=(RESOURCE,)),))


@pytest.mark.parametrize("pinned", [True, False])
@pytest.mark.parametrize("cached", [True, False])
@pytest.mark.parametrize("faults", [None, FLAKY], ids=["calm", "flaky"])
def test_crawl_accounts_like_the_per_request_protocol(pinned, cached,
                                                      faults):
    crawl = _run(_crawl, pinned=pinned, cached=cached, faults=faults)
    oracle = _run(_per_request, pinned=pinned, cached=cached, faults=faults)
    assert crawl == oracle
    ids, shared = _ids(_world())
    if faults is None:
        assert crawl["shared_rows"] == ids.count(shared)
    else:
        # A failed batch drops its own copies of the shared id, not
        # the copies an answered batch resolved.
        assert 0 < crawl["shared_rows"] < ids.count(shared)
    if cached and pinned:
        assert 0 < crawl["cache"]["hits"] < crawl["cache"]["misses"]


def test_unpinned_crawl_reads_the_world_once():
    """Every request of a live client completes at its own instant, and
    some followers arrive during the crawl, yet the world answers the
    crawl in one call."""
    world = _world()
    calls = []
    read = world.user_row_block

    def counted(user_ids, now):
        calls.append(len(set(np.broadcast_to(now, len(user_ids)))))
        return read(user_ids, now)

    world.user_row_block = counted
    ids, __ = _ids(world)
    client = TwitterApiClient(world, SimClock(PAPER_EPOCH))
    rows = Crawler(client).lookup_users_block(ids).rows
    batches = -(-len(ids) // BATCH)
    assert calls == [batches]
    alpha = world.targets()[0]
    late = [alpha.follower_id_at(alpha.size_at(PAPER_EPOCH) + k)
            for k in range(0, 40, 4)]
    assert 0 < np.isin(rows["user_id"], late).sum() < len(late)


def test_users_lookup_block_is_the_one_batch_case():
    world = _world()
    ids = _ids(world)[0][:BATCH]
    client = TwitterApiClient(world, SimClock(PAPER_EPOCH))
    twin = TwitterApiClient(_world(), SimClock(PAPER_EPOCH))
    block, failures = twin.users_lookup_batches(ids)
    assert client.users_lookup_block(ids).rows.tobytes() == \
        block.rows.tobytes()
    assert failures == []
    assert client.call_log.calls() == twin.call_log.calls()


def test_exhausted_retries_raise_from_users_lookup_block():
    plan = FaultPlan(seed=1, injectors=(InjectorSpec(
        kind="transient_503", probability=1.0, resources=(RESOURCE,)),))
    world = _world()
    client = TwitterApiClient(world, SimClock(PAPER_EPOCH), faults=plan,
                              retry=RetryPolicy(max_attempts=2))
    with pytest.raises(RetryableApiError):
        client.users_lookup_block(_ids(world)[0][:10])


def test_cached_profiles_need_a_pin():
    world = _world()
    ids = _ids(world)[0][:3]
    client = TwitterApiClient(world, SimClock(PAPER_EPOCH))
    with pytest.raises(ConfigurationError, match="pin"):
        client.users_lookup_batches(ids, [False, True, False])
    assert client.call_log.count(RESOURCE) == 0


def test_exhausted_retries_leave_no_world_in_cyclic_garbage():
    """A kept error must not hold the client and its world in a cycle
    through a frame of its traceback: dropping them frees the world by
    reference counting, whether the crawl kept the error or
    ``users_lookup_block`` raised it."""
    plan = FaultPlan(seed=1, injectors=(InjectorSpec(
        kind="transient_503", probability=1.0, resources=(RESOURCE,)),))
    was_enabled, flags = gc.isenabled(), gc.get_debug()
    gc.collect()
    gc.disable()
    try:
        gc.garbage.clear()
        gc.set_debug(gc.DEBUG_SAVEALL)
        world = _world()
        ids = _ids(world)[0][:150]
        client = TwitterApiClient(world, SimClock(PAPER_EPOCH), faults=plan,
                                  retry=RetryPolicy(max_attempts=2))
        assert len(Crawler(client).lookup_users_block(ids)) == 0
        with pytest.raises(RetryableApiError):
            client.users_lookup_block(ids[:10])
        del world, client
        gc.collect()
        leaked = {type(obj).__name__ for obj in gc.garbage} \
            & {"FollowerPopulation", "SyntheticWorld"}
    finally:
        gc.set_debug(flags)
        gc.garbage.clear()
        if was_enabled:
            gc.enable()
    assert not leaked
