"""Unit tests for lazy follower populations and the synthetic world."""

import pytest

from repro.core import (
    DAY,
    DuplicateAccountError,
    PAPER_EPOCH,
    UnknownAccountError,
)
from repro.twitter import (
    AMBIENT_POOL_SIZE,
    Label,
    add_simple_target,
    ambient_id,
    build_world,
    decode_follower,
    follower_id,
    namespace_of,
    target_id,
)

NOW = PAPER_EPOCH


@pytest.fixture(scope="module")
def world():
    w = build_world(seed=5)
    add_simple_target(w, "first", 8000, 0.4, 0.1, 0.5,
                      daily_new_followers=100)
    add_simple_target(w, "second", 3000, 0.1, 0.0, 0.9)
    return w


class TestIdNamespaces:
    def test_follower_roundtrip(self):
        fid = follower_id(3, 123456)
        assert decode_follower(fid) == (3, 123456)

    def test_namespaces_disjoint(self):
        tags = {namespace_of(target_id(1)),
                namespace_of(follower_id(1, 1)),
                namespace_of(ambient_id(1))}
        assert len(tags) == 3

    def test_decode_rejects_foreign_namespace(self):
        with pytest.raises(UnknownAccountError):
            decode_follower(target_id(1))


class TestFollowerPopulation:
    def test_size_at_reference(self, world):
        assert world.population("first").size_at(NOW) == 8000

    def test_growth_after_reference(self, world):
        pop = world.population("first")
        assert pop.size_at(NOW + DAY) == 8100

    def test_follower_ids_slice_chronological(self, world):
        pop = world.population("first")
        ids = list(pop.follower_ids(10, 15, NOW))
        assert ids == [pop.follower_id_at(p) for p in range(10, 15)]

    def test_arrival_times_monotone(self, world):
        pop = world.population("first")
        times = [pop.followed_at(p) for p in range(0, 8000, 501)]
        assert times == sorted(times)

    def test_account_deterministic(self, world):
        pop = world.population("first")
        first = pop.account_at(17, NOW)
        second = pop.account_at(17, NOW)
        assert first == second

    def test_account_creation_precedes_follow(self, world):
        pop = world.population("first")
        for position in range(0, 8000, 997):
            account = pop.account_at(position, NOW)
            assert account.created_at <= pop.followed_at(position)

    def test_capped_creation_builds_one_account(self, world, monkeypatch):
        from repro.twitter import columns, population

        built = []
        real = columns.Account

        def counting(*args, **kwargs):
            account = real(*args, **kwargs)
            built.append(account.user_id)
            return account

        monkeypatch.setattr(columns, "Account", counting)
        monkeypatch.setattr(population, "Account", counting)
        pop = world.population("first")
        positions = range(0, 8000, 97)
        capped = sum(pop.account_at(p, NOW).created_at == pop.followed_at(p)
                     for p in positions)
        assert capped >= 10
        assert len(built) == len(positions)

    def test_targets_with_the_same_mix_share_persona_tables(self):
        fleet = build_world(seed=5)
        for handle in ("a", "b"):
            add_simple_target(fleet, handle, 500, 0.4, 0.1, 0.5,
                              daily_new_followers=10)
        add_simple_target(fleet, "c", 500, 0.1, 0.0, 0.9)
        a, b, c = (fleet.population(h)._persona_tables for h in "abc")
        assert all(x is y for x, y in zip(a, b))
        assert not {id(t) for t in a} & {id(t) for t in c}

    def test_registering_a_fleet_hashes_no_persona(self, monkeypatch):
        """Tables are keyed by persona identity, so registering targets
        hashes no :class:`Persona`'s fields (a 1,000-target fleet once
        hashed 90,032 of them)."""
        from repro.twitter import fake_purchase_burst, personas

        hashed = []
        original = personas.Persona.__hash__

        def counted(persona):
            hashed.append(persona.name)
            return original(persona)

        monkeypatch.setattr(personas.Persona, "__hash__", counted)
        fleet = build_world(seed=5)
        for index in range(40):
            add_simple_target(
                fleet, f"t{index}", 500 + 37 * (index % 13),
                0.25, 0.10, 0.65, daily_new_followers=10,
                post_ref_bursts=[fake_purchase_burst(3.0, 100)]
                if index == 7 else ())
        assert hashed == []
        tables = [fleet.population(f"t{index}")._persona_tables
                  for index in (0, 7, 39)]
        assert all(x is y for x, y in zip(tables[0], tables[2]))
        assert tables[1][-1] not in tables[0]

    def test_re_registered_persona_gets_its_own_table(self, monkeypatch):
        from repro.twitter import personas

        fleet = build_world(seed=5)
        add_simple_target(fleet, "before", 500, 0.4, 0.1, 0.5)
        spammer = personas.PERSONAS["fake_spammer"]

        def sampler(*args):
            return spammer.sampler(*args)

        replacement = personas.Persona("fake_spammer", spammer.label, sampler)
        monkeypatch.setitem(personas.PERSONAS, "fake_spammer", replacement)
        add_simple_target(fleet, "after", 500, 0.4, 0.1, 0.5)
        before, after = (fleet.population(h) for h in ("before", "after"))
        assert before._persona_tables[0] is not after._persona_tables[0]
        picked = {after.persona_at(p) for p in range(500)}
        assert replacement in picked and spammer not in picked

    def test_composition_matches_spec(self, world):
        comp = world.population("first").composition(NOW)
        assert comp[Label.INACTIVE] == pytest.approx(0.4, abs=0.03)
        assert comp[Label.FAKE] == pytest.approx(0.1, abs=0.02)
        assert comp[Label.GENUINE] == pytest.approx(0.5, abs=0.03)

    def test_recency_tilt_head_less_inactive(self, world):
        pop = world.population("first")
        head = [pop.true_label_at(p) for p in range(7000, 8000)]
        tail = [pop.true_label_at(p) for p in range(0, 1000)]
        head_inactive = sum(1 for l in head if l is Label.INACTIVE) / 1000
        tail_inactive = sum(1 for l in tail if l is Label.INACTIVE) / 1000
        assert head_inactive < tail_inactive

    def test_labels_match_behaviour(self, world):
        pop = world.population("first")
        for position in range(0, 8000, 397):
            account = pop.account_at(position, NOW)
            age = account.last_tweet_age(NOW)
            behaviourally_inactive = age is None or age > 90 * DAY
            assert behaviourally_inactive == (
                account.true_label is Label.INACTIVE)


class TestSyntheticWorld:
    def test_duplicate_target_rejected(self, world):
        with pytest.raises(DuplicateAccountError):
            add_simple_target(world, "FIRST", 10, 0.0, 0.0, 1.0)

    def test_unknown_target_lookup(self, world):
        with pytest.raises(UnknownAccountError):
            world.population("nobody")
        with pytest.raises(UnknownAccountError):
            world.account_by_name("nobody", NOW)

    def test_target_account_counts_live(self, world):
        account = world.account_by_name("first", NOW)
        assert account.followers_count == 8000
        later = world.account_by_name("first", NOW + 2 * DAY)
        assert later.followers_count == 8200

    def test_account_by_id_for_follower(self, world):
        pop = world.population("second")
        fid = pop.follower_id_at(5)
        assert world.account_by_id(fid, NOW).user_id == fid

    def test_unborn_follower_not_resolvable(self, world):
        pop = world.population("first")
        fid = pop.follower_id_at(8050)  # arrives within the next day
        with pytest.raises(UnknownAccountError):
            world.account_by_id(fid, NOW)
        assert world.account_by_id(fid, NOW + DAY).user_id == fid

    def test_follower_ids_clamped(self, world):
        assert len(world.follower_ids(target_id(0), 7990, 9999, NOW)) == 10

    def test_leaf_follower_list_empty(self, world):
        pop = world.population("first")
        assert world.follower_ids(pop.follower_id_at(0), 0, 10, NOW) == []

    def test_friend_ids_resolve_to_ambient_accounts(self, world):
        pop = world.population("first")
        fid = pop.follower_id_at(3)
        total = world.friend_count(fid, NOW)
        friends = world.friend_ids(fid, 0, 10, total)
        assert len(friends) == min(total, 10)
        for friend in friends:
            account = world.account_by_id(friend, NOW)
            assert account.user_id == friend

    def test_ambient_pool_bounded(self, world):
        with pytest.raises(UnknownAccountError):
            world.account_by_id(ambient_id(AMBIENT_POOL_SIZE), NOW)

    def test_timeline_consistent_with_account(self, world):
        pop = world.population("first")
        for position in (1, 100, 4000):
            account = pop.account_at(position, NOW)
            tweets = world.timeline(account.user_id, 10, NOW)
            if account.statuses_count == 0:
                assert tweets == []
            else:
                assert tweets[0].created_at == account.last_tweet_at

    def test_targets_listing(self, world):
        assert [p.spec.screen_name for p in world.targets()] == [
            "first", "second"]

    def test_user_row_block_matches_user_objects(self, world):
        first = world.population("first")
        second = world.population("second")
        ids = [
            second.follower_id_at(7),
            first.follower_id_at(0),
            second.follower_id_at(7),   # duplicate: answered twice
            first.follower_id_at(8050),  # not yet followed: omitted
            follower_id(9, 0),          # no such target: omitted
            first.follower_id_at(7999),
        ]
        block = world.user_row_block(ids, NOW)
        expected = world.user_objects(ids, NOW)
        assert [user.user_id for user in expected] == [ids[0], ids[1],
                                                       ids[2], ids[5]]
        assert list(block) == expected
        assert list(world.user_row_block([], NOW)) == []
        assert world.user_objects(ids + [2**70], NOW) == expected

    def test_mixed_lookup_rows_follow_input_order(self, world):
        """Followers, targets, ambient accounts and unknown ids in one
        batch: one row per resolvable id, in input order, with the
        omissions of ``user_objects``."""
        first = world.population("first")
        ids = [
            ambient_id(3),
            first.follower_id_at(0),
            target_id(1),
            2**70,                           # no int64: omitted
            first.follower_id_at(8050),      # not yet followed: omitted
            target_id(9),                    # no such target: omitted
            ambient_id(AMBIENT_POOL_SIZE),   # outside the pool: omitted
            target_id(0),
            first.follower_id_at(7999),
            target_id(1),                    # duplicate: answered twice
        ]
        block = world.user_row_block(ids, NOW)
        assert block.rows["user_id"].tolist() == [
            ids[0], ids[1], ids[2], ids[7], ids[8], ids[9]]
        assert list(block) == world.user_objects(ids, NOW)

    @pytest.mark.parametrize("field, text", [
        ("screen_name", "h" * 21),
        ("display_name", "n" * 25),
        ("description", "d" * 49),
        ("description", "ends in NUL\x00"),
    ])
    def test_target_text_must_fit_its_row(self, world, field, text):
        """A target's lookup row holds its texts, so a spec whose text
        the row cannot round-trip is refused when it is built."""
        from dataclasses import replace

        from repro.core import ConfigurationError

        with pytest.raises(ConfigurationError):
            replace(world.population("first").spec, **{field: text})

    def test_lookup_asks_validity_once_per_target(self, world, monkeypatch):
        """A past snapshot's lookup batch asks each target's arrivals once,
        not once per id (a pre-reference ``size_at`` bisects the
        schedule)."""
        from repro.twitter.workload import ArrivalSchedule

        calls = []
        real = ArrivalSchedule.size_at

        def counting(self, now):
            calls.append(now)
            return real(self, now)

        monkeypatch.setattr(ArrivalSchedule, "size_at", counting)
        past = NOW - 200 * DAY
        population = world.population("first")
        ids = [population.follower_id_at(p) for p in range(0, 8000, 80)]
        assert len(ids) == 100
        block = world.user_row_block(ids, past)
        assert len(calls) == 1
        assert 0 < len(block) < len(ids)
        assert list(block) == world.user_objects(ids, past)


class TestPostRefBurstSpec:
    def test_fake_purchase_burst_is_all_fake(self):
        from repro.twitter import PERSONAS, fake_purchase_burst

        burst = fake_purchase_burst(0.5, 40)
        assert burst.days_after == 0.5
        assert burst.count == 40
        for name, weight in burst.personas.items():
            if weight > 0:
                assert PERSONAS[name].label is Label.FAKE

    @pytest.mark.parametrize("kwargs", [
        dict(days_after=-0.1, count=5, personas={"bot_dormant": 1.0}),
        dict(days_after=1.0, count=0, personas={"bot_dormant": 1.0}),
        dict(days_after=1.0, count=5, personas={}),
        dict(days_after=1.0, count=5, personas={"no_such_persona": 1.0}),
        dict(days_after=1.0, count=5, personas={"bot_dormant": -1.0}),
        dict(days_after=1.0, count=5, personas={"bot_dormant": 0.0}),
    ])
    def test_invalid_burst_rejected(self, kwargs):
        from repro.core import ConfigurationError
        from repro.twitter import PostRefBurst

        with pytest.raises(ConfigurationError):
            PostRefBurst(**kwargs)


class TestBurstPopulation:
    BURST_AT_DAYS = 0.55
    BURST_COUNT = 40
    BASE = 200

    @pytest.fixture(scope="class")
    def pop(self):
        from repro.twitter import fake_purchase_burst

        world = build_world(seed=17)
        add_simple_target(
            world, "bursty", self.BASE, 0.3, 0.2, 0.5,
            daily_new_followers=10.0,
            post_ref_bursts=(
                fake_purchase_burst(self.BURST_AT_DAYS, self.BURST_COUNT),))
        return world.population("bursty")

    def test_size_steps_by_burst_count(self, pop):
        at = NOW + self.BURST_AT_DAYS * DAY
        assert pop.size_at(at - 1.0) == self.BASE + 5  # 5 trickle by then
        assert pop.size_at(at) == self.BASE + 5 + self.BURST_COUNT

    def test_burst_members_are_ground_truth_fakes(self, pop):
        first = self.BASE + 5
        for position in range(first, first + self.BURST_COUNT):
            assert pop.true_label_at(position) is Label.FAKE, position
            assert pop.followed_at(position) == \
                NOW + self.BURST_AT_DAYS * DAY

    def test_burst_members_are_materialisable_accounts(self, pop):
        at = NOW + DAY
        first = self.BASE + 5
        account = pop.account_at(first + 7, at)
        assert account.true_label is Label.FAKE
        assert account.created_at <= pop.followed_at(first + 7)

    def test_burst_free_population_bit_identical(self):
        """A burst never perturbs the base or the trickle around it."""
        from repro.twitter import fake_purchase_burst

        plain = build_world(seed=17)
        add_simple_target(plain, "bursty", self.BASE, 0.3, 0.2, 0.5,
                          daily_new_followers=10.0)
        bursty = build_world(seed=17)
        add_simple_target(
            bursty, "bursty", self.BASE, 0.3, 0.2, 0.5,
            daily_new_followers=10.0,
            post_ref_bursts=(
                fake_purchase_burst(self.BURST_AT_DAYS, self.BURST_COUNT),))
        a, b = plain.population("bursty"), bursty.population("bursty")
        at = NOW + 2 * DAY
        for position in range(0, self.BASE + 5, 23):
            # Everything that arrived before the burst is untouched.
            assert a.account_at(position, at) == b.account_at(position, at)
            assert a.followed_at(position) == b.followed_at(position)


class TestDepartures:
    """A departed burst member acts like an account that unfollowed."""

    BASE = 300
    #: 200 fakes an hour apart in tranches of 50 from ref + 0.5 d, 10%
    #: leaving daily from ref + 1.5 d + 3 h; a trickle of 4/day.
    BLOCK_AT_DAYS = 0.5

    @pytest.fixture(scope="class")
    def eroding(self):
        from repro.twitter import PostRefBurst

        world = build_world(seed=17)
        add_simple_target(
            world, "eroding", self.BASE, 0.3, 0.2, 0.5,
            daily_new_followers=4.0,
            post_ref_bursts=(PostRefBurst(
                self.BLOCK_AT_DAYS, 200, {"fake_classic": 1.0},
                delivery_per_hour=50, daily_attrition=0.1),))
        return world

    def test_departed_ids_leave_count_and_listing(self, eroding):
        population = eroding.population("eroding")
        now = NOW + 4 * DAY
        arrived = population.arrived_at(now)
        departed = population.schedule.departed_at(now)
        assert departed == 20 + 18 + 16  # three attrition days so far
        count = eroding.follower_count(target_id(0), now)
        assert count == population.size_at(now) == arrived - departed
        ids = list(eroding.follower_ids(target_id(0), 0, arrived, now))
        assert len(ids) == count
        assert ids == sorted(ids)  # still chronological
        first = self.BASE + 2  # two trickle arrivals before the block
        gone = [population.follower_id_at(first + k) for k in range(50)]
        assert not set(gone) & set(ids)
        assert eroding.account_by_id(target_id(0), now).followers_count \
            == count

    def test_departed_ids_still_resolve(self, eroding):
        population = eroding.population("eroding")
        now = NOW + 4 * DAY
        first = self.BASE + 2
        gone = [population.follower_id_at(first + k) for k in range(3)]
        users = eroding.user_objects(gone, now)
        assert [user.user_id for user in users] == gone
        assert len(eroding.user_row_block(gone, now)) == 3
        # Validity is arrivals, not the net count: the newest arrival
        # resolves, one past it does not.
        arrived = population.arrived_at(now)
        newest = population.follower_id_at(arrived - 1)
        assert eroding.account_by_id(newest, now).user_id == newest
        with pytest.raises(UnknownAccountError):
            eroding.account_by_id(population.follower_id_at(arrived), now)

    def test_composition_on_a_shrinking_day(self, eroding):
        population = eroding.population("eroding")
        day1, day2 = NOW + 2 * DAY, NOW + 3 * DAY
        assert population.size_at(day2) < population.size_at(day1)
        listed = [decode_follower(user_id)[1] for user_id in
                  population.follower_ids(0, population.size_at(day2), day2)]
        fake = sum(population.true_label_at(p) is Label.FAKE
                   for p in listed)
        composition = population.composition(day2)
        assert composition[Label.FAKE] == pytest.approx(fake / len(listed))
        sampled = population.composition(day2, sample=100, seed=3)
        assert sum(sampled.values()) == pytest.approx(1.0)
