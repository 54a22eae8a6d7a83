"""Bulk ``users/lookup`` row packing against the per-field oracle.

``SyntheticWorld.user_row_block`` packs followers from record tuples
rendered from their columns, and takes a target's row from the static
row packed on its first lookup, filling only ``followers_count`` and
``last_tweet_at``; ``row_oracle`` writes every field of every row by
name.  Both must produce the same bytes.  A text value a fixed-width column cannot
round-trip is refused: by ``UserRowBlock.from_users`` for user
objects, and for generated rows when a persona's vocabulary is built.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.api import UserObject
from repro.core import ConfigurationError, DAY, PAPER_EPOCH, UnknownAccountError
from repro.twitter import add_simple_target, build_world, fake_purchase_burst
from repro.twitter.account import Label
from repro.twitter.columnar.schema import (
    ACCOUNT_DTYPE,
    STRING_WIDTHS,
    UserRowBlock,
)
from repro.twitter.personas import PERSONAS, Persona
from repro.twitter.population import (
    AMBIENT_POOL_SIZE,
    FOLLOWER_PASS,
    TargetSpec,
    ambient_id,
    follower_id,
    target_id,
    uniform_segments,
)

from .row_oracle import pack_accounts

BURST_DAYS = 2.5

#: Before the reference instant, after it with trickle arrivals, and at
#: the instant a post-reference burst lands.
INSTANTS = {
    "before-ref": PAPER_EPOCH - 30 * DAY,
    "trickle": PAPER_EPOCH + 1.5 * DAY,
    "burst": PAPER_EPOCH + BURST_DAYS * DAY,
}


def make_world(seed):
    world = build_world(seed=seed)
    add_simple_target(world, "tilted", 3000, 0.4, 0.2, 0.4,
                      daily_new_followers=120,
                      post_ref_bursts=[fake_purchase_burst(BURST_DAYS, 200)])
    add_simple_target(world, "steady", 800, 0.1, 0.1, 0.8)
    return world


def lookup_ids(world, now):
    """Ids spanning both targets' followers, the targets themselves and
    an ambient account, with duplicates, positions not yet followed at
    ``now``, and ids no account has."""
    tilted, steady = world.targets()
    size = tilted.size_at(now)
    ids = [tilted.follower_id_at(p) for p in range(0, size, 97)]
    ids += [tilted.follower_id_at(p) for p in range(size - 40, size)]
    ids += [steady.follower_id_at(p) for p in (0, 5, 799)]
    ids += ids[:5] + ids[-3:]                       # duplicates
    ids += [target_id(1), ambient_id(3), target_id(0)]  # not followers
    ids += [tilted.follower_id_at(size), tilted.follower_id_at(size + 500),
            follower_id(9, 0), target_id(9), ambient_id(AMBIENT_POOL_SIZE),
            2**70]                                  # unknown: omitted
    return ids


def resolvable_accounts(world, ids, now):
    accounts = []
    for user_id in ids:
        try:
            accounts.append(world.account_by_id(user_id, now))
        except UnknownAccountError:
            continue
    return accounts


@pytest.mark.parametrize("seed", [0, 1, 7])
@pytest.mark.parametrize("instant", sorted(INSTANTS))
def test_row_block_bytes_match_the_field_oracle(seed, instant):
    world = make_world(seed)
    now = INSTANTS[instant]
    ids = lookup_ids(world, now)
    expected = resolvable_accounts(world, ids, now)
    assert 0 < len(expected) < len(ids)
    block = world.user_row_block(ids, now)
    assert block.rows.tobytes() == pack_accounts(expected).tobytes()


def test_burst_instant_covers_burst_members():
    world = make_world(0)
    tilted = world.targets()[0]
    before = tilted.size_at(INSTANTS["burst"] - 1.0)
    assert tilted.size_at(INSTANTS["burst"]) - before >= 200


def test_empty_lookup_packs_no_rows():
    world = make_world(0)
    assert world.user_row_block([], PAPER_EPOCH).rows.tobytes() == \
        pack_accounts([]).tobytes()


def add_quiet_target(world, name, created_at):
    """A target that never tweeted, created at ``created_at``."""
    world.add_target(TargetSpec(
        screen_name=name, followers=50, segments=uniform_segments(0, 0, 1),
        created_at=created_at, statuses_count=0, daily_new_followers=3))


#: When the ``Newcomer`` target was created: an hour after the first
#: instant of ``TARGET_INSTANTS``.
NEWCOMER_CREATED = PAPER_EPOCH - 30 * DAY + 3600.0


def target_world(seed):
    """``make_world`` plus a never-tweeting target and one created an
    hour after the first instant looked at, so ``last_tweet_at`` takes
    its NaN and its ``created_at`` branches."""
    world = make_world(seed)
    add_quiet_target(world, "quiet", PAPER_EPOCH - 400 * DAY)
    world.add_target(TargetSpec(
        screen_name="Newcomer", followers=10,
        segments=uniform_segments(0, 0, 1), created_at=NEWCOMER_CREATED,
        statuses_count=1, display_name="Just Joined", description=""))
    return world


def assert_rows_match_oracle(world, ids, now):
    block = world.user_row_block(ids, now)
    assert block.rows.tobytes() == pack_accounts(
        resolvable_accounts(world, ids, now)).tobytes()
    return block


#: Before the newcomer's creation (its ``last_tweet_at`` is clamped to
#: ``created_at``), and around the tilted target's burst.
TARGET_INSTANTS = [
    PAPER_EPOCH - 30 * DAY,
    PAPER_EPOCH + 1.5 * 3600.0,
    PAPER_EPOCH + BURST_DAYS * DAY - 1.0,
    PAPER_EPOCH + BURST_DAYS * DAY,
    PAPER_EPOCH + (BURST_DAYS + 3) * DAY,
]


class TestTargetPages:
    """Targets come from their packed rows with two columns filled per
    lookup; every byte must equal the per-field oracle."""

    @pytest.mark.parametrize("seed", [0, 3])
    def test_pages_of_targets_at_instants_around_a_burst(self, seed):
        world = target_world(seed)
        ids = [target_id(ordinal) for ordinal in (2, 0, 3, 1, 0)]
        for now in TARGET_INSTANTS:
            block = assert_rows_match_oracle(world, ids, now)
            assert len(block) == 5
        # The burst lands in the tilted target's count between the two
        # instants that bracket it.
        before, at = (world.user_row_block([target_id(0)], now).rows
                      for now in TARGET_INSTANTS[2:4])
        assert at["followers_count"][0] - before["followers_count"][0] >= 200

    @pytest.mark.parametrize("now", TARGET_INSTANTS[:2])
    def test_the_two_moving_columns(self, now):
        world = target_world(0)
        rows = world.user_row_block(
            [target_id(ordinal) for ordinal in range(4)], now).rows
        assert rows["last_tweet_at"][0] == now - 2 * 3600.0
        assert rows["last_tweet_at"][2] != rows["last_tweet_at"][2]  # NaN
        assert rows["last_tweet_at"][3] == max(NEWCOMER_CREATED,
                                               now - 2 * 3600.0)
        assert list(rows["followers_count"]) == [
            population.size_at(now) for population in world.targets()]

    def test_after_an_unfollow(self):
        world = target_world(1)
        steady = world.population("steady")
        leaver = steady.follower_id_at(17)
        at = PAPER_EPOCH + 0.5 * DAY
        ids = [target_id(1), leaver, target_id(1)]
        before = assert_rows_match_oracle(world, ids, at).rows
        world.unfollow(leaver, target_id(1), at)
        after = assert_rows_match_oracle(world, ids, at).rows
        assert list(after["followers_count"][[0, 2]]) == \
            [before["followers_count"][0] - 1] * 2
        assert after[1].tobytes() == before[1].tobytes()  # still resolves

    def test_a_target_added_after_the_first_lookup(self):
        world = target_world(2)
        now = PAPER_EPOCH + DAY
        ids = [target_id(0), target_id(3), target_id(4)]
        assert len(assert_rows_match_oracle(world, ids, now)) == 2
        add_quiet_target(world, "latecomer", PAPER_EPOCH - 10 * DAY)
        ids = [target_id(4), target_id(0), target_id(3), target_id(5)]
        assert len(assert_rows_match_oracle(world, ids, now)) == 3

    @pytest.mark.parametrize("instant", TARGET_INSTANTS)
    def test_mixed_pages(self, instant):
        """Targets, followers, ambient, unknown and duplicate ids."""
        world = target_world(7)
        tilted, steady = world.targets()[:2]
        size = tilted.size_at(instant)
        ids = [target_id(3), tilted.follower_id_at(size - 1),
               ambient_id(11), target_id(0), target_id(99), 2**70,
               steady.follower_id_at(4), target_id(2), ambient_id(11),
               target_id(0), tilted.follower_id_at(size + 10), -5]
        block = assert_rows_match_oracle(world, ids, instant)
        assert len(block) == 8


def one_instant_rows(world, ids, instants):
    """The lookup of each id alone at its own instant, concatenated."""
    return np.concatenate([np.empty(0, dtype=ACCOUNT_DTYPE)] + [
        world.user_row_block([user_id], at).rows
        for user_id, at in zip(ids, instants)])


def assert_per_row_instants(world, ids, instants):
    """One call at per-row instants equals a loop of one-instant calls."""
    block = world.user_row_block(ids, instants)
    assert block.rows.tobytes() == \
        one_instant_rows(world, ids, instants).tobytes()
    return block


class TestPerRowInstants:
    """``user_row_block`` reads id ``i`` at ``now[i]``."""

    def test_a_follower_arriving_between_two_instants(self):
        world = make_world(0)
        tilted = world.targets()[0]
        now = INSTANTS["trickle"]
        size = tilted.size_at(now)
        newcomer = tilted.follower_id_at(size)
        ids = [newcomer, tilted.follower_id_at(size - 1), newcomer]
        block = assert_per_row_instants(world, ids, [now, now, now + DAY])
        assert list(block.rows["user_id"]) == ids[1:]

    @pytest.mark.parametrize("seed", [0, 3])
    def test_targets_before_around_and_after_a_burst(self, seed):
        world = target_world(seed)
        ids = [target_id(ordinal) for ordinal in (0, 2, 0, 3, 0, 1)]
        instants = TARGET_INSTANTS + [PAPER_EPOCH]
        block = assert_per_row_instants(world, ids, instants)
        counts = block.rows["followers_count"]
        assert counts[4] - counts[2] >= 200        # the burst, in one call

    def test_ambient_unknown_and_duplicate_ids(self):
        world = target_world(7)
        tilted, steady = world.targets()[:2]
        size = tilted.size_at(TARGET_INSTANTS[0])
        ids = [ambient_id(11), tilted.follower_id_at(size - 1), 2**70,
               target_id(99), steady.follower_id_at(4), ambient_id(11),
               tilted.follower_id_at(size - 1), target_id(3),
               ambient_id(AMBIENT_POOL_SIZE), follower_id(9, 0),
               steady.follower_id_at(4), -5]
        instants = [TARGET_INSTANTS[index % len(TARGET_INSTANTS)]
                    for index in range(len(ids))]
        assert len(assert_per_row_instants(world, ids, instants)) == 7

    @pytest.mark.parametrize("count", [1, FOLLOWER_PASS, FOLLOWER_PASS + 1])
    def test_pass_boundaries_across_two_targets(self, count, monkeypatch):
        """``count`` ids of each target, interleaved, read at three
        instants after the reference one in turn (so every id
        resolves); a target is drawn in passes of at most
        ``FOLLOWER_PASS`` rows."""
        world = make_world(1)
        tilted, steady = world.targets()
        ids = []
        for index in range(count):
            ids += [tilted.follower_id_at(index),
                    steady.follower_id_at(index % 800)]
        stamps = (INSTANTS["trickle"], INSTANTS["burst"],
                  INSTANTS["burst"] + DAY)
        instants = [stamps[index % 3] for index in range(len(ids))]
        passes = {}
        for population in (tilted, steady):
            draw = population.follower_columns

            def counted(positions, now, draw=draw,
                        name=population.spec.screen_name):
                passes.setdefault(name, []).append(len(positions))
                return draw(positions, now)

            monkeypatch.setattr(population, "follower_columns", counted)
        assert len(world.user_row_block(ids, instants)) == len(ids)
        full, rest = divmod(count, FOLLOWER_PASS)
        assert passes == {name: [FOLLOWER_PASS] * full + [rest] * (rest > 0)
                          for name in ("tilted", "steady")}
        monkeypatch.undo()
        assert_per_row_instants(world, ids, instants)


def make_user(**overrides):
    fields = dict(
        user_id=1, screen_name="ab", name="A B", created_at=PAPER_EPOCH,
        description="", location="", url="", default_profile_image=False,
        verified=False, followers_count=1, friends_count=2,
        statuses_count=0, last_status_at=None)
    fields.update(overrides)
    return UserObject(**fields)


class TestLossyText:
    @pytest.mark.parametrize("field", sorted(STRING_WIDTHS))
    def test_from_users_refuses_a_trailing_nul(self, field):
        with pytest.raises(ConfigurationError, match=field):
            UserRowBlock.from_users([make_user(**{field: "ab\x00"})])

    @pytest.mark.parametrize("field", sorted(STRING_WIDTHS))
    def test_from_users_refuses_an_overlong_value(self, field):
        too_long = "x" * (STRING_WIDTHS[field] + 1)
        with pytest.raises(ConfigurationError, match=field):
            UserRowBlock.from_users([make_user(**{field: too_long})])

    @pytest.mark.parametrize("vocabulary,text", [
        ("descriptions", "x" * (STRING_WIDTHS["description"] + 1)),
        ("locations", "ab\x00"),
        ("urls", "http://example.org/" + "x" * STRING_WIDTHS["url"]),
    ], ids=["description", "location", "url"])
    def test_persona_refuses_text_its_column_cannot_hold(self, vocabulary,
                                                         text):
        """Generated rows are never checked one by one: a persona's
        vocabularies are, when it is built."""
        spammer = PERSONAS["fake_spammer"]
        with pytest.raises(ConfigurationError, match="does not fit"):
            Persona("fake_wordy", Label.FAKE, spammer.sampler,
                    **{vocabulary: ("", text)})

    @pytest.mark.parametrize("vocabulary,column", [
        ("descriptions", "description"), ("locations", "location")])
    @pytest.mark.parametrize("braces", ["I love {python}", "{0}", "{}"])
    def test_persona_takes_braces_in_plain_text_literally(
            self, vocabulary, column, braces):
        """Only a url embeds the handle: a brace elsewhere is text, and
        a text of exactly its column's width fits as written."""
        text = braces + "x" * (STRING_WIDTHS[column] - len(braces))
        spammer = PERSONAS["fake_spammer"]
        persona = Persona("fake_braces", Label.FAKE, spammer.sampler,
                          **{vocabulary: ("", braces, text)})
        assert getattr(persona, vocabulary) == ("", braces, text)

    def test_values_that_fit_round_trip(self):
        users = [make_user(screen_name="a\x00b"),
                 make_user(user_id=2, url="u" * STRING_WIDTHS["url"],
                           statuses_count=3,
                           last_status_at=PAPER_EPOCH - DAY)]
        assert list(UserRowBlock.from_users(users)) == users
