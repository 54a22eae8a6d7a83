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

import numpy as np
import pytest

from repro.core.rng import derive_seed
from repro.twitter import streams

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
