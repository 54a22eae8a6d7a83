"""Unfollows and burst attrition against a brute-force list oracle.

A target's follower list at ``t`` is every position arrived by ``t``
minus every position departed by ``t``, in arrival order.  The oracle
here builds that list the slow way, as a plain Python list: each
position's departure instant is the earlier of its attrition (the
integer rule of an eroding bought block, replayed day by day: ``alive
* ppm // 1_000_000`` leave, earliest delivered first, from one day
after the last tranche) and its explicit ``unfollow``, and the list at
``t`` keeps, in position order, the arrived positions not departed by
``t``.  ``count_at``, ``departed_at``, ``positions``, ``follower_ids``
and ``composition`` must match it at random instants.  Then every
``unfollow`` rejection, and the serde round trip of a target's
departures.
"""

from __future__ import annotations

import json

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import (
    DAY,
    HOUR,
    PAPER_EPOCH,
    ConfigurationError,
    GraphError,
    UnknownAccountError,
)
from repro.serde import world_from_dict, world_to_dict
from repro.twitter import (
    Label,
    PostRefBurst,
    add_simple_target,
    ambient_id,
    build_world,
    follower_id,
    target_id,
)

REF = PAPER_EPOCH


def _world(base, trickle, burst):
    world = build_world(seed=11, ref_time=REF)
    bursts = () if burst is None else (burst,)
    add_simple_target(world, "listed", base, 0.3, 0.2, 0.5,
                      daily_new_followers=trickle, post_ref_bursts=bursts)
    return world, world.population("listed")


def _attrition(population, burst, horizon):
    """``{position: instant}`` of the block's attrition, by the rule."""
    schedule = population.schedule
    block = len(schedule.segments) + 1
    arrived = schedule.size_at(horizon)
    members = [p for p in range(schedule.base_count, arrived)
               if schedule.segment_of(p)[0] == block]
    if burst is None or len(members) < burst.count:
        return {}
    per_hour = burst.delivery_per_hour or burst.count
    last = REF + burst.days_after * DAY + (-(-burst.count // per_hour) - 1) * HOUR
    ppm = round(burst.daily_attrition * 1_000_000)
    gone, alive, day = {}, burst.count, 1
    while ppm and last + day * DAY <= horizon:
        leaving = alive * ppm // 1_000_000
        if not leaving:
            break
        for position in members[burst.count - alive:
                                burst.count - alive + leaving]:
            gone[position] = last + day * DAY
        alive -= leaving
        day += 1
    return gone


class ListOracle:
    """The follower list replayed as a plain Python list."""

    def __init__(self, population, attrition):
        self._schedule = population.schedule
        self._departs = dict(attrition)
        self._unfollowed = set()

    def unfollow(self, position, at):
        self._unfollowed.add(position)
        self._departs[position] = min(at, self._departs.get(position, at))

    def listed(self, now):
        # Arrivals are the schedule's own count: ``size_at`` is what a
        # list holds, departed or not.
        return [p for p in range(self._schedule.size_at(now))
                if self._departs.get(p, now + 1) > now]

    def candidates(self, now):
        """Listed at ``now`` and never unfollowed: valid to unfollow."""
        return [p for p in self.listed(now) if p not in self._unfollowed]


bursts = st.one_of(st.none(), st.builds(
    PostRefBurst,
    days_after=st.floats(0.0, 2.0),
    count=st.integers(1, 40),
    personas=st.just({"fake_classic": 1.0}),
    delivery_per_hour=st.one_of(st.none(), st.integers(1, 15)),
    daily_attrition=st.sampled_from([0.0, 0.1, 0.35, 0.6])))


@settings(max_examples=60, deadline=None)
@given(base=st.integers(0, 60), trickle=st.sampled_from([0.0, 7.0, 25.0]),
       burst=bursts,
       unfollows=st.lists(st.tuples(st.floats(-3.0, 8.0),
                                    st.floats(0.0, 0.999)), max_size=25),
       probes=st.lists(st.floats(-3.0, 9.0), min_size=1, max_size=8))
def test_list_matches_the_oracle(base, trickle, burst, unfollows, probes):
    world, population = _world(base, trickle, burst)
    oracle = ListOracle(population,
                        _attrition(population, burst, REF + 10 * DAY))
    target = target_id(population.ordinal)
    for day, pick in unfollows:
        at = REF + day * DAY
        candidates = oracle.candidates(at)
        if not candidates:
            continue
        position = candidates[int(pick * len(candidates))]
        world.unfollow(follower_id(population.ordinal, position), target, at)
        oracle.unfollow(position, at)
    schedule = population.schedule
    for day in probes + [day for day, __ in unfollows]:
        now = REF + day * DAY
        listed = oracle.listed(now)
        assert schedule.count_at(now) == population.size_at(now) == len(listed)
        assert schedule.departed_at(now) == \
            population.arrived_at(now) - len(listed)
        assert world.follower_count(target, now) == len(listed)
        assert list(schedule.positions(list(range(len(listed))), now)) == listed
        assert population.follower_ids(0, len(listed), now).tolist() == \
            [follower_id(population.ordinal, p) for p in listed]
        composition = population.composition(now)
        for label in Label:
            expected = (sum(population.true_label_at(p) is label
                            for p in listed) / len(listed)) if listed else 0.0
            assert composition[label] == pytest.approx(expected)
    # Every departed follower still resolves through users/lookup.
    now = REF + 9 * DAY
    gone = sorted(set(range(population.arrived_at(now)))
                  - set(oracle.listed(now)))
    ids = [follower_id(population.ordinal, p) for p in gone]
    assert [user.user_id for user in world.user_objects(ids, now)] == ids


def test_without_departures_positions_pass_through():
    __, population = _world(50, 10.0, None)
    indices = [0, 3, 49]
    assert population.schedule.positions(indices, REF + DAY) is indices
    assert population.schedule.departures == ()


def test_unfollowed_account_leaves_count_and_listing_but_resolves():
    world, population = _world(40, 0.0, None)
    target = target_id(population.ordinal)
    gone = follower_id(population.ordinal, 12)
    world.unfollow(gone, target, REF + DAY)
    assert world.follower_count(target, REF + DAY - 1) == 40
    assert world.follower_count(target, REF + DAY) == 39
    assert gone in world.follower_ids(target, 0, 40, REF).tolist()
    listing = world.follower_ids(target, 0, 40, REF + DAY).tolist()
    assert gone not in listing and len(listing) == 39
    assert world.account_by_id(target, REF + DAY).followers_count == 39
    assert world.account_by_id(gone, REF + 2 * DAY).user_id == gone
    assert len(world.user_row_block([gone], REF + 2 * DAY)) == 1
    assert population.schedule.departures == ((12, REF + DAY),)


class TestUnfollowRejections:
    @pytest.fixture
    def world(self):
        world, __ = _world(30, 5.0, PostRefBurst(
            0.5, 10, {"fake_classic": 1.0}, daily_attrition=0.5))
        add_simple_target(world, "other", 20, 0.3, 0.2, 0.5)
        return world

    def _count(self, world):
        return world.follower_count(target_id(0), REF + 5 * DAY)

    @pytest.mark.parametrize("follower,target", [
        (12345, target_id(0)),
        (follower_id(0, 3), target_id(7)),
        (follower_id(9, 3), target_id(0)),
        (ambient_id(10 ** 9), target_id(0)),
    ], ids=["no-namespace", "unregistered-target", "unregistered-ordinal",
            "past-the-ambient-pool"])
    def test_unknown_ids(self, world, follower, target):
        before = self._count(world)
        with pytest.raises(UnknownAccountError):
            world.unfollow(follower, target, REF)
        assert self._count(world) == before

    def test_not_yet_arrived(self, world):
        arriving = world.population("listed").arrived_at(REF + DAY)
        with pytest.raises(GraphError, match="not arrived"):
            world.unfollow(follower_id(0, arriving), target_id(0), REF + DAY)
        world.unfollow(follower_id(0, arriving), target_id(0), REF + 2 * DAY)

    def test_gone_to_attrition(self, world):
        schedule = world.population("listed").schedule
        block = [p for p in range(schedule.size_at(REF + 3 * DAY))
                 if schedule.segment_of(p)[0] == len(schedule.segments) + 1]
        first = follower_id(0, block[0])   # the first to leave, at 1.5 d
        with pytest.raises(GraphError, match="attrition"):
            world.unfollow(first, target_id(0), REF + 2 * DAY)
        later = schedule.departed_at(REF + 5 * DAY)
        earlier = schedule.departed_at(REF + 1.2 * DAY)
        world.unfollow(first, target_id(0), REF + DAY)
        assert schedule.departed_at(REF + 1.2 * DAY) == earlier + 1
        # Its attrition comes later and does not take it off twice.
        assert schedule.departed_at(REF + 5 * DAY) == later

    @pytest.mark.parametrize("again", [0.0, 1.0, -0.5])
    def test_already_unfollowed(self, world, again):
        world.unfollow(follower_id(0, 4), target_id(0), REF)
        before = self._count(world)
        with pytest.raises(GraphError, match="already departed"):
            world.unfollow(follower_id(0, 4), target_id(0),
                           REF + again * DAY)
        assert self._count(world) == before

    @pytest.mark.parametrize("follower,target", [
        (follower_id(1, 3), target_id(0)),
        (ambient_id(3), target_id(0)),
        (target_id(1), target_id(0)),
        (target_id(0), target_id(0)),
        (follower_id(0, 3), ambient_id(3)),
        (follower_id(0, 3), follower_id(0, 4)),
    ], ids=["follows-another-target", "ambient", "a-target", "itself",
            "ambient-has-no-list", "follower-has-no-list"])
    def test_not_a_follower(self, world, follower, target):
        with pytest.raises(GraphError) as caught:
            world.unfollow(follower, target, REF)
        assert not isinstance(caught.value, UnknownAccountError)


class TestDeparturesSerde:
    def test_round_trip(self):
        world, population = _world(30, 5.0, PostRefBurst(
            0.5, 10, {"fake_classic": 1.0}, daily_attrition=0.5))
        for position, day in ((3, 0.0), (31, 1.25), (0, 4.0)):
            world.unfollow(follower_id(0, position), target_id(0),
                           REF + day * DAY)
        payload = world_to_dict(world)
        assert payload["targets"][0]["departures"] == [
            [0, REF + 4 * DAY], [3, REF], [31, REF + 1.25 * DAY]]
        rebuilt = world_from_dict(json.loads(json.dumps(payload)))
        again = rebuilt.population("listed")
        assert again.schedule.departures == population.schedule.departures
        for day in (0.0, 1.0, 2.0, 5.0):
            now = REF + day * DAY
            size = population.size_at(now)
            assert again.size_at(now) == size
            assert again.follower_ids(0, size, now).tolist() == \
                population.follower_ids(0, size, now).tolist()

    def test_no_departures_no_key(self):
        world, __ = _world(30, 5.0, None)
        assert "departures" not in world_to_dict(world)["targets"][0]


def test_follower_ids_past_the_list_rejected():
    """A static 100-follower base has no index 100."""
    world = build_world(seed=3)
    add_simple_target(world, "static", 100, 0.3, 0.2, 0.5)
    population = world.population("static")
    assert len(population.follower_ids(0, 100, REF)) == 100
    with pytest.raises(ConfigurationError):
        population.follower_ids(0, 150, REF)
    # The world clamps first, so the API answer is unchanged.
    assert len(world.follower_ids(target_id(0), 0, 150, REF)) == 100
    world.unfollow(follower_id(0, 7), target_id(0), REF)
    with pytest.raises(ConfigurationError):
        population.follower_ids(0, 100, REF)
