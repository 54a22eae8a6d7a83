"""``TwitterApiClient.user_timelines`` against the per-id fetch it batches.

The batch form reads the world in one call, each id at its own
observation instant, but each id must still be its own request, made
exactly as a lone fetch makes it.  The oracle below is that lone fetch written out (cache check,
charge with retries, world read at the request's instant, cache fill);
a batch and the oracle, run on twin clients, must leave the same call
log, simulated clock, request and retry counters, fault count and
acquisition-cache hits and misses, and return the same timelines —
pinned and unpinned, with repeated ids, and under a fault plan that
exhausts the retries of some requests.
"""

from __future__ import annotations

import gc

import pytest

from repro.api import Crawler, TwitterApiClient
from repro.core import DAY, PAPER_EPOCH, SimClock, UnknownAccountError
from repro.core.errors import RetryableApiError
from repro.faults.plan import FaultPlan, InjectorSpec
from repro.faults.retry import RetryPolicy
from repro.obs.runtime import observed
from repro.sched import AcquisitionCache
from repro.twitter import add_simple_target, build_world
from repro.twitter.population import ambient_id, target_id

RESOURCE = "statuses/user_timeline"
PIN = PAPER_EPOCH + DAY


def _world():
    world = build_world(seed=3, ref_time=PAPER_EPOCH)
    add_simple_target(world, "alpha", 1500, 0.3, 0.4, 0.3,
                      daily_new_followers=30.0)
    add_simple_target(world, "beta", 600, 0.2, 0.5, 0.3)
    return world


def _ids(world):
    ids = []
    for handle in ("alpha", "beta"):
        population = world.population(handle)
        ids += population.follower_ids(
            0, population.size_at(PAPER_EPOCH), PAPER_EPOCH)[::23].tolist()
    return ids + [target_id(1), ambient_id(3), ids[2], ids[2], ids[-4]]


def _lone_fetches(client, user_ids, count):
    """One request per id, read at once: the per-id fetch written out."""
    cache = client.acquisition_cache
    results = []
    for user_id in user_ids:
        if cache is not None:
            hit = cache.get_timeline(user_id, count)
            if hit is not None:
                client._acq_hit(RESOURCE)
                results.append(hit)
                continue
        try:
            completed, fault = client._request(RESOURCE, count)
        except RetryableApiError as error:
            results.append(error)
            continue
        now = client.observed_at if client.observed_at is not None \
            else completed
        timeline = client._world.timeline(user_id, count, now)
        if cache is not None and fault is None:
            cache.put_timeline(user_id, count, timeline)
        results.append(timeline)
    return results


def _run(fetch, *, pinned, cached, faults):
    world = _world()
    cache = AcquisitionCache() if cached else None
    with observed() as obs:
        client = TwitterApiClient(
            world, SimClock(PAPER_EPOCH), faults=faults,
            retry=RetryPolicy(max_attempts=2) if faults else None,
            acquisition_cache=cache)
        if pinned:
            client.pin_observation(PIN)
        results = fetch(client, _ids(world), 200)
        # A second pass over a few ids: hits when a cache is shared.
        results += fetch(client, _ids(world)[:6], 200)
    return {
        "results": [type(result).__name__
                    if isinstance(result, Exception) else
                    (result.user_id, result.created_at.tobytes(),
                     result.tweet_id.tobytes(), result.flags.tobytes(),
                     result.body_key.tobytes(), result.duplicated)
                    for result in results],
        "calls": client.call_log.calls(),
        "clock": client.clock.now(),
        "requests": obs.registry.value("api_requests_total",
                                       resource=RESOURCE),
        "retries": client.retries_total,
        "faults": client.faults_seen,
        "cache": None if cache is None else cache.stats(),
    }


FLAKY = FaultPlan(seed=4, injectors=(InjectorSpec(
    kind="transient_503", probability=0.4, resources=(RESOURCE,)),))


@pytest.mark.parametrize("pinned", [True, False])
@pytest.mark.parametrize("cached", [True, False])
@pytest.mark.parametrize("faults", [None, FLAKY], ids=["calm", "flaky"])
def test_batch_accounts_like_lone_fetches(pinned, cached, faults):
    batch = _run(lambda client, ids, count: client.user_timelines(ids, count),
                 pinned=pinned, cached=cached, faults=faults)
    lone = _run(_lone_fetches, pinned=pinned, cached=cached, faults=faults)
    assert batch == lone
    if faults is not None:
        assert "TransientServerError" in batch["results"]
    if cached:
        assert batch["cache"]["hits"] > 0


def test_unpinned_crawl_reads_the_world_once():
    """Every request of a live client completes at its own instant, yet
    the world answers the crawl in one call."""
    world = _world()
    calls = []
    read = world.timelines

    def counted(user_ids, count, now):
        calls.append(len(set(now)))
        return read(user_ids, count, now)

    world.timelines = counted
    ids = _ids(world)
    TwitterApiClient(world, SimClock(PAPER_EPOCH)).user_timelines(ids, 200)
    assert calls == [len(ids)]


def test_user_timeline_is_the_one_id_case():
    world = _world()
    ids = _ids(world)[:5]
    client = TwitterApiClient(world, SimClock(PAPER_EPOCH))
    twin = TwitterApiClient(_world(), SimClock(PAPER_EPOCH))
    assert [client.user_timeline(uid, 50) for uid in ids] == \
        twin.user_timelines(ids, 50)
    assert client.call_log.calls() == twin.call_log.calls()


def test_exhausted_retries_raise_from_user_timeline():
    plan = FaultPlan(seed=1, injectors=(InjectorSpec(
        kind="transient_503", probability=1.0, resources=(RESOURCE,)),))
    world = _world()
    client = TwitterApiClient(world, SimClock(PAPER_EPOCH), faults=plan,
                              retry=RetryPolicy(max_attempts=2))
    with pytest.raises(RetryableApiError):
        client.user_timeline(_ids(world)[0])


def test_exhausted_retries_leave_no_world_in_cyclic_garbage():
    """A kept error must not hold the client and its world in a cycle
    through a frame of its traceback: dropping them frees the world by
    reference counting, whether the crawl kept the errors or
    ``user_timeline`` raised one."""
    plan = FaultPlan(seed=1, injectors=(InjectorSpec(
        kind="transient_503", probability=1.0, resources=(RESOURCE,)),))
    was_enabled, flags = gc.isenabled(), gc.get_debug()
    gc.collect()
    gc.disable()
    try:
        gc.garbage.clear()
        gc.set_debug(gc.DEBUG_SAVEALL)
        world = _world()
        ids = (_ids(world) * 3)[:50]
        client = TwitterApiClient(world, SimClock(PAPER_EPOCH), faults=plan,
                                  retry=RetryPolicy(max_attempts=2))
        timelines = Crawler(client).fetch_timelines(ids)
        assert all(len(timeline) == 0 for timeline in timelines.values())
        with pytest.raises(RetryableApiError):
            client.user_timeline(ids[0])
        del world, client, timelines
        gc.collect()
        leaked = {type(obj).__name__ for obj in gc.garbage} \
            & {"FollowerPopulation", "SyntheticWorld"}
    finally:
        gc.set_debug(flags)
        gc.garbage.clear()
        if was_enabled:
            gc.enable()
    assert not leaked


def test_unknown_id_raises_and_caches_nothing():
    world = _world()
    cache = AcquisitionCache()
    client = TwitterApiClient(world, SimClock(PAPER_EPOCH),
                              acquisition_cache=cache)
    client.pin_observation(PIN)
    ids = _ids(world)[:4]
    with pytest.raises(UnknownAccountError):
        client.user_timelines(ids + [ambient_id(10**6)], 200)
    assert all(cache.get_timeline(uid, 200) is None for uid in ids)
