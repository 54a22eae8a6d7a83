"""Bulk ``users/lookup`` row packing against the per-field oracle.

``SyntheticWorld.user_row_block`` packs a whole answer with one
``np.array`` call over record tuples rendered from follower columns;
``row_oracle`` writes every field of every row by name.  Both must
produce the same bytes.  A text value a fixed-width column cannot
round-trip is refused: by ``UserRowBlock.from_users`` for user
objects, and for generated rows when a persona's vocabulary is built.
"""

from __future__ import annotations

import pytest

from repro.api import UserObject
from repro.core import ConfigurationError, DAY, PAPER_EPOCH, UnknownAccountError
from repro.twitter import add_simple_target, build_world, fake_purchase_burst
from repro.twitter.account import Label
from repro.twitter.columnar.schema import STRING_WIDTHS, UserRowBlock
from repro.twitter.personas import PERSONAS, Persona
from repro.twitter.population import (
    AMBIENT_POOL_SIZE,
    ambient_id,
    follower_id,
    target_id,
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
