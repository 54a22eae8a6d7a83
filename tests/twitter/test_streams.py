"""Regression pin for the synthetic-world random stream split.

The columnar substrate's bit-identity contract rests on both substrates
consuming *identical* random streams.  These tests pin the derived
seeds and the first draws of every stream in
:mod:`repro.twitter.streams` to hard-coded values; if anyone re-keys a
stream (renames a path component, reorders arguments, changes the
derivation hash), the pins fail loudly instead of the two substrates
silently drifting apart.
"""

from __future__ import annotations

import random

import numpy as np
import pytest

from repro.core.rng import derive_seed
from repro.twitter import streams
from repro.twitter.population import _POSITION_MASK

from ..core import rng_oracle

SEED = 42

# (stream name, derivation path, derived 64-bit seed,
#  first random(), first 32-bit draw after it)
PINNED = [
    ("persona", ("persona", 0, 5),
     7287446852499807581, 0.24291493706446465, 3627706456),
    ("account", ("account", 0, 5),
     15956665559216444968, 0.610817433916283, 231015833),
    ("composition", ("composition", 0),
     335957543461836668, 0.37697574039301773, 3174415877),
    ("ambient", ("ambient", 17),
     1357053309217810847, 0.1338688106234711, 453824421),
    ("friends", ("friends", 12345),
     11770962636459208692, 0.21545607123394583, 3870747768),
    ("timeline", ("timeline", 12345),
     5942430987252212878, 0.35016177984113017, 583628289),
    ("graph", ("graph", "obama"),
     9275016577232206654, 0.684028112766414, 264432056),
]

STREAM_FACTORIES = {
    "persona": lambda: streams.follower_persona_rng(SEED, 0, 5),
    "account": lambda: streams.follower_account_rng(SEED, 0, 5),
    "composition": lambda: streams.composition_rng(SEED, 0),
    "ambient": lambda: streams.ambient_rng(SEED, 17),
    "friends": lambda: streams.friends_rng(SEED, 12345),
    "timeline": lambda: streams.timeline_generator(SEED, 12345),
    "graph": lambda: streams.graph_rng(SEED, "obama"),
}


@pytest.mark.parametrize(
    "name,path,seed64,first_random,first_bits", PINNED,
    ids=[row[0] for row in PINNED])
def test_stream_pins(name, path, seed64, first_random, first_bits):
    assert derive_seed(SEED, *path) == seed64
    rng = STREAM_FACTORIES[name]()
    assert rng.random() == first_random
    if isinstance(rng, np.random.Generator):
        assert int(rng.integers(0, 1 << 32)) == first_bits
    else:
        assert rng.getrandbits(32) == first_bits


def test_streams_are_independent():
    """Different paths yield different streams (no accidental aliasing)."""
    seeds = {derive_seed(SEED, *path) for _, path, *_ in PINNED}
    assert len(seeds) == len(PINNED)


def test_follower_streams_keyed_by_ordinal_and_position():
    a = streams.follower_account_rng(SEED, 0, 5).random()
    b = streams.follower_account_rng(SEED, 1, 5).random()
    c = streams.follower_account_rng(SEED, 0, 6).random()
    assert len({a, b, c}) == 3
    # ... and are self-consistent across calls (pure function of the key).
    assert streams.follower_account_rng(SEED, 0, 5).random() == a


def test_population_draws_from_documented_streams():
    """The object substrate's account generation consumes exactly the
    persona/account streams — pinned end-to-end, not just at the RNG."""
    from repro.core.timeutil import PAPER_EPOCH
    from repro.twitter.generator import make_target_spec
    from repro.twitter.population import SyntheticWorld

    world = SyntheticWorld(seed=SEED, ref_time=PAPER_EPOCH)
    world.add_target(make_target_spec(
        "pinned_target", 100, 0.3, 0.2, 0.5, ref_time=PAPER_EPOCH))
    population = world.population("pinned_target")
    account = population.account_at(5, PAPER_EPOCH)
    rng = streams.follower_account_rng(SEED, 0, 5)
    replayed = population.persona_at(5).sample(
        rng, population.follower_id_at(5), "u0_5", PAPER_EPOCH)
    # account_at may re-anchor created_at to the follow instant, but the
    # raw sample must come off the documented stream.
    assert replayed.screen_name == account.screen_name
    assert replayed.statuses_count == account.statuses_count
    assert replayed.followers_count == account.followers_count


# -- follower seeds: the streams are seeded by derive_seed ------------------

@pytest.mark.parametrize("master", [0, SEED, 2**63, -17])
@pytest.mark.parametrize("ordinal,position", [
    (0, 0), (0, _POSITION_MASK), (3, 12345),
    (np.int64(2), np.int64(77)), (np.int64(0), np.int64(_POSITION_MASK)),
])
def test_follower_seeds_equal_derive_seed(master, ordinal, position):
    for stream, factory in (("persona", streams.follower_persona_rng),
                            ("account", streams.follower_account_rng)):
        expected = derive_seed(master, stream, ordinal, position)
        assert factory(master, ordinal, position).getstate() == \
            random.Random(expected).getstate()


# -- persona tables: same pick as weighted_choice over sorted(mix) ------------

def _reference_persona(seed, population, mix, position):
    rng = streams.follower_persona_rng(seed, population.ordinal, position)
    names = sorted(mix)
    return rng_oracle.weighted_choice(rng, names, [mix[name] for name in names])


def _segment_kind_world():
    from repro.core.timeutil import DAY, PAPER_EPOCH
    from repro.twitter.generator import make_target_spec
    from repro.twitter.population import (
        FollowerSegmentSpec,
        PostRefBurst,
        SyntheticWorld,
        TargetSpec,
    )

    world = SyntheticWorld(seed=SEED, ref_time=PAPER_EPOCH)
    world.add_target(make_target_spec(
        "tilted", 600, 0.4, 0.2, 0.4, ref_time=PAPER_EPOCH,
        daily_new_followers=40,
        post_ref_bursts=[PostRefBurst(2.0, 30, {"fake_classic": 0.6,
                                                "fake_spammer": 0.4})]))
    world.add_target(TargetSpec(
        screen_name="zero_weight", followers=300,
        created_at=PAPER_EPOCH - 400 * DAY,
        segments=[FollowerSegmentSpec(1.0, {"genuine_active": 0.0,
                                            "fake_classic": 1,
                                            "genuine_newbie": 2.5})]))
    return world, PAPER_EPOCH + 3 * DAY


def _mix_of(population, position):
    spec = population.spec
    index, __ = population.schedule.segment_of(position)
    segments = len(spec.segments)
    if index > segments:
        bursts = sorted(spec.post_ref_bursts,
                        key=lambda burst: (burst.days_after, burst.count))
        return "burst", bursts[index - segments - 1].personas
    if index == segments:
        return "trickle", spec.segments[-1].personas
    return "segment", spec.segments[index].personas


def test_persona_table_matches_weighted_choice_on_every_segment_kind():
    world, now = _segment_kind_world()
    kinds = set()
    for population in world.targets():
        for position in range(population.size_at(now)):
            kind, mix = _mix_of(population, position)
            kinds.add(kind)
            expected = _reference_persona(world.seed, population, mix,
                                          position)
            assert population.persona_at(position).name == expected
            assert population.true_label_at(position) is \
                population.persona_at(position).label
    assert kinds == {"segment", "trickle", "burst"}


def test_zero_weight_persona_is_never_picked():
    world, now = _segment_kind_world()
    population = world.population("zero_weight")
    picked = {population.persona_at(p).name
              for p in range(population.size_at(now))}
    assert picked == {"fake_classic", "genuine_newbie"}
