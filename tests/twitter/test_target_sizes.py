"""``SyntheticWorld.target_sizes`` against a loop of ``size_at``.

A target whose schedule only trickles after its reference instant is
counted by one array expression; one with bursts or departures, or a
read before its schedule's reference instant, asks its population.
Both must give every target's ``FollowerPopulation.size_at`` exactly,
also once a departure reaches a schedule after the first array call,
by ``SyntheticWorld.unfollow`` or by ``ArrivalSchedule.depart`` called
directly, and once a target is registered after it.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.core import DAY, PAPER_EPOCH
from repro.twitter import add_simple_target, build_world, fake_purchase_burst
from repro.twitter.population import PostRefBurst, target_id
from repro.twitter.personas import persona_mix_from_labels

#: Registration order of :func:`_world`'s targets, by kind.
STATIC, TRICKLE, SLOW_TRICKLE, TRANCHES, ATTRITION, LATE = range(6)


def _world():
    world = build_world(seed=4, ref_time=PAPER_EPOCH)
    add_simple_target(world, "static", 900, 0.2, 0.1, 0.7)
    add_simple_target(world, "trickle", 1200, 0.3, 0.2, 0.5,
                      daily_new_followers=37.5)
    add_simple_target(world, "slow", 400, 0.1, 0.1, 0.8,
                      daily_new_followers=0.3)
    add_simple_target(world, "tranches", 700, 0.2, 0.2, 0.6,
                      daily_new_followers=12.0,
                      post_ref_bursts=(fake_purchase_burst(2.5, 500),))
    add_simple_target(world, "eroding", 800, 0.2, 0.2, 0.6,
                      daily_new_followers=5.0,
                      post_ref_bursts=(PostRefBurst(
                          days_after=1.0, count=3000,
                          personas=persona_mix_from_labels(0.0, 1.0, 0.0),
                          delivery_per_hour=400, daily_attrition=0.05),))
    return world


def _add_late_target(world):
    add_simple_target(world, "late", 650, 0.3, 0.3, 0.4,
                      daily_new_followers=21.0)


def _loop(world, ordinals, now):
    instants = np.broadcast_to(np.asarray(now, dtype=np.float64),
                               (len(ordinals),)).tolist()
    targets = world.targets()
    return [targets[ordinal].size_at(at)
            for ordinal, at in zip(ordinals, instants)]


def _assert_equal(world, ordinals, now):
    sizes = world.target_sizes(ordinals, now)
    assert sizes.dtype == np.int64
    assert sizes.tolist() == _loop(world, ordinals, now)


def _special_instants(world):
    """Each schedule's reference instant, a float either side of it,
    and the world's own."""
    instants = [PAPER_EPOCH]
    for population in world.targets():
        ref = population.schedule.ref_time
        instants += [ref, np.nextafter(ref, -np.inf),
                     np.nextafter(ref, np.inf)]
    return instants


_INSTANT = st.one_of(
    st.floats(-3.0, 40.0).map(lambda days: PAPER_EPOCH + days * DAY),
    st.integers(0, 15))  # an index into _special_instants


def _resolve(world, instant):
    if isinstance(instant, int):
        return float(_special_instants(world)[instant])
    return instant


@settings(max_examples=80, deadline=None)
@given(rows=st.lists(st.tuples(st.integers(STATIC, ATTRITION), _INSTANT),
                     max_size=30),
       one_instant=st.booleans(),
       departure=st.sampled_from([None, "unfollow", "depart"]),
       leaver=st.sampled_from([STATIC, TRICKLE, SLOW_TRICKLE]),
       late=st.booleans())
def test_equals_a_loop_of_size_at(rows, one_instant, departure, leaver,
                                  late):
    world = _world()
    ordinals = [ordinal for ordinal, __ in rows]
    instants = [_resolve(world, instant) for __, instant in rows]
    now = (instants[0] if instants else PAPER_EPOCH) if one_instant \
        else instants
    _assert_equal(world, ordinals, now)
    if departure is not None:
        population = world.targets()[leaver]
        at = PAPER_EPOCH + 0.25 * DAY
        if departure == "unfollow":
            world.unfollow(population.follower_id_at(3),
                           target_id(leaver), at)
        else:
            population.schedule.depart(5, at)
    if late:
        _add_late_target(world)
        ordinals = ordinals + [LATE] * 3
        extra = [PAPER_EPOCH - DAY, PAPER_EPOCH + 3.3 * DAY,
                 PAPER_EPOCH + 9 * DAY]
        now = now if one_instant else list(now) + extra
    _assert_equal(world, ordinals, now)


def test_departures_by_either_route_are_seen_after_the_first_call():
    world = _world()
    every = list(range(ATTRITION + 1))
    now = PAPER_EPOCH + 2 * DAY
    before = world.target_sizes(every, now)
    trickle = world.targets()[TRICKLE]
    world.unfollow(trickle.follower_id_at(10), target_id(TRICKLE),
                   PAPER_EPOCH + DAY)
    after_unfollow = world.target_sizes(every, now)
    world.targets()[STATIC].schedule.depart(7, PAPER_EPOCH + DAY)
    after_depart = world.target_sizes(every, now)
    assert (after_unfollow - before).tolist() == [0, -1, 0, 0, 0]
    assert (after_depart - after_unfollow).tolist() == [-1, 0, 0, 0, 0]
    _assert_equal(world, every, now)


def test_duplicate_ordinals_and_a_target_added_later():
    world = _world()
    now = [PAPER_EPOCH + day * DAY for day in (0.5, 3.0, 3.0, 7.25)]
    _assert_equal(world, [TRICKLE, TRANCHES, TRANCHES, TRICKLE], now)
    _add_late_target(world)
    _assert_equal(world, [LATE, TRICKLE, LATE, ATTRITION], now)
    assert world.target_sizes([], PAPER_EPOCH).tolist() == []
