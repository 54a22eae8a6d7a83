"""Regression pin for the synthetic-world random stream split.

Every golden rests on each generated account consuming *identical*
draws.  These tests pin the derived seeds and the first draws of every
stream in :mod:`repro.twitter.streams` (and of the counter-based
follower keys of :mod:`repro.twitter.draws`) to hard-coded values; if
anyone re-keys a stream (renames a path component, reorders
arguments, changes the derivation hash), the pins fail loudly instead
of the goldens silently drifting.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.rng import derive_seed
from repro.twitter import streams
from repro.twitter.draws import (
    draw_matrix,
    follower_keys,
    persona_uniforms,
    stream_uniforms,
)
from repro.twitter.population import _POSITION_MASK

from ..core import rng_oracle

SEED = 42

# (stream name, derivation path, derived 64-bit seed,
#  first random(), first 32-bit draw after it; for the timeline and the
#  churn, the second uniform scaled to 32 bits).  The follower rows pin
#  the key of position 5 of target 0: its persona draw (slot 0) and the
#  top half of the key, then its first sampler draw (slot 1) and the top
#  half of that slot's bits.
PINNED = [
    ("persona", ("follower", 0),
     8463409462019532482, 0.4574315207419076, 666984273),
    ("account", ("follower", 0),
     8463409462019532482, 0.45953813911346986, 1973701278),
    ("composition", ("composition", 0),
     335957543461836668, 0.37697574039301773, 3174415877),
    ("ambient", ("ambient", 17),
     1357053309217810847, 0.1338688106234711, 453824421),
    ("friends", ("friends", 12345),
     11770962636459208692, 0.21545607123394583, 3870747768),
    ("timeline", ("timeline", 12345),
     5942430987252212878, 0.7505366027294688, 306095661),
    ("churn", ("churn", 0, 3),
     16241904232018036395, 0.36488782737665404, 2078929767),
]

def _first_draws(rng):
    if isinstance(rng, np.random.Generator):
        return rng.random(), int(rng.integers(0, 1 << 32))
    return rng.random(), rng.getrandbits(32)


def _column_draws(state):
    uniforms = stream_uniforms(state, 2)
    return float(uniforms[0]), int(uniforms[1] * (1 << 32))


def _follower_slot(slot):
    keys = follower_keys(SEED, 0, [5])
    bits, uniforms = draw_matrix(keys)
    return float(uniforms[0, slot]), int(bits[0, slot]) >> 32


FIRST_DRAWS = {
    "persona": lambda: (float(persona_uniforms(follower_keys(SEED, 0, [5]))[0]),
                        int(follower_keys(SEED, 0, [5])[0]) >> 32),
    "account": lambda: _follower_slot(1),
    "composition": lambda: _first_draws(streams.composition_rng(SEED, 0)),
    "ambient": lambda: _first_draws(streams.ambient_rng(SEED, 17)),
    "friends": lambda: _first_draws(streams.friends_rng(SEED, 12345)),
    "timeline": lambda: _column_draws(streams.timeline_state(SEED, 12345)),
    "churn": lambda: _column_draws(streams.churn_state(SEED, 0, 3)),
}


@pytest.mark.parametrize(
    "name,path,seed64,first_random,first_bits", PINNED,
    ids=[row[0] for row in PINNED])
def test_stream_pins(name, path, seed64, first_random, first_bits):
    assert derive_seed(SEED, *path) == seed64
    assert FIRST_DRAWS[name]() == (first_random, first_bits)


def test_streams_are_independent():
    """Different paths yield different streams (no accidental aliasing)."""
    paths = {path for _, path, *_ in PINNED}
    seeds = {derive_seed(SEED, *path) for path in paths}
    assert len(seeds) == len(paths)


def test_follower_streams_keyed_by_ordinal_and_position():
    a, b, c = (int(follower_keys(SEED, ordinal, [position])[0])
               for ordinal, position in ((0, 5), (1, 5), (0, 6)))
    assert len({a, b, c}) == 3
    # ... and are self-consistent across calls (pure function of the key).
    assert int(follower_keys(SEED, 0, [5])[0]) == a


def test_population_draws_from_documented_streams():
    """A population's follower is its key's draw matrix, run through its
    persona's sampler with its arrival as the creation cap — pinned
    end to end, not just at the key."""
    from repro.core.timeutil import PAPER_EPOCH
    from repro.twitter.columns import sample_columns
    from repro.twitter.generator import make_target_spec
    from repro.twitter.population import SyntheticWorld

    world = SyntheticWorld(seed=SEED, ref_time=PAPER_EPOCH)
    world.add_target(make_target_spec(
        "pinned_target", 100, 0.3, 0.2, 0.5, ref_time=PAPER_EPOCH))
    population = world.population("pinned_target")
    bits, uniforms = draw_matrix(follower_keys(SEED, 0, [5, 6]))
    replayed = sample_columns(
        bits, uniforms, [population.persona_at(5), population.persona_at(6)],
        np.array([0, 1]), PAPER_EPOCH,
        np.array([population.followed_at(5), population.followed_at(6)]),
        np.array([population.follower_id_at(5), population.follower_id_at(6)]))
    assert replayed.accounts() == [population.account_at(5, PAPER_EPOCH),
                                   population.account_at(6, PAPER_EPOCH)]


# -- follower keys: SplitMix64 from a derive_seed state ---------------------

_MASK64 = (1 << 64) - 1


def _splitmix64(state, step):
    """Reference SplitMix64: the output at ``step`` (1-based) from ``state``."""
    value = (state + step * 0x9E3779B97F4A7C15) & _MASK64
    value = ((value ^ (value >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    value = ((value ^ (value >> 27)) * 0x94D049BB133111EB) & _MASK64
    return value ^ (value >> 31)


@pytest.mark.parametrize("master", [0, SEED, 2**63, -17])
@pytest.mark.parametrize("ordinal,position", [
    (0, 0), (0, _POSITION_MASK), (3, 12345),
    (np.int64(2), np.int64(77)), (np.int64(0), np.int64(_POSITION_MASK)),
])
def test_follower_seeds_equal_derive_seed(master, ordinal, position):
    """A follower's key is SplitMix64 step ``position + 1`` from the
    ``derive_seed(master, "follower", ordinal)`` state, alone or in a
    batch."""
    state = derive_seed(master, "follower", ordinal)
    assert streams.follower_key_state(master, ordinal) == state
    expected = _splitmix64(state, int(position) + 1)
    assert int(follower_keys(master, ordinal, [position])[0]) == expected
    batch = follower_keys(master, ordinal, [position, 0, position])
    assert [int(key) for key in batch] == \
        [expected, _splitmix64(state, 1), expected]


# -- persona tables: same pick as weighted_choice over sorted(mix) ------------

class _FixedDraw:
    """A stand-in rng whose one ``random()`` is a follower's persona draw."""

    def __init__(self, value):
        self._value = value

    def random(self):
        return self._value


def _reference_persona(seed, population, mix, position):
    keys = follower_keys(seed, population.ordinal, [position])
    rng = _FixedDraw(float(persona_uniforms(keys)[0]))
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
