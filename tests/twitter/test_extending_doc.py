"""The persona example of docs/extending.md runs as documented.

The guide's code block is the advertised way to add a persona, so it
is executed verbatim here, sampled with and without a creation cap,
and generated as the followers of a target that the population
validator checks.
"""

import math
import pathlib
import random
import re

import numpy as np
import pytest

from repro.core import DAY, PAPER_EPOCH, ConfigurationError
from repro.experiments import validate_population
from repro.twitter.account import Label
from repro.twitter.columns import sample_columns
from repro.twitter.draws import draw_matrix
from repro.twitter.names import human_handles
from repro.twitter.personas import PERSONAS, Persona
from repro.twitter.population import (
    FollowerSegmentSpec,
    SyntheticWorld,
    TargetSpec,
)

GUIDE = pathlib.Path(__file__).resolve().parents[2] / "docs" / "extending.md"


def sample_capped(persona, rng, user_id, now, latest_created=math.inf):
    """One account of ``persona`` keyed off ``rng``, created no later than
    ``latest_created``: the path a follower takes, with its arrival as
    the cap."""
    bits, uniforms = draw_matrix(
        np.array([rng.getrandbits(64)], dtype=np.uint64))
    return sample_columns(bits, uniforms, [persona], np.array([0]), now,
                          np.array([latest_created]),
                          np.array([user_id])).accounts()[0]


def persona_example() -> str:
    """The first python block of the guide's persona section."""
    text = GUIDE.read_text(encoding="utf-8")
    section = text.split("## Adding a persona", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)


@pytest.fixture
def lurker():
    """Run the example; unregister its persona afterwards."""
    assert "genuine_lurker" not in PERSONAS
    namespace = {}
    try:
        exec(compile(persona_example(), str(GUIDE), "exec"), namespace)
        yield PERSONAS["genuine_lurker"]
    finally:
        PERSONAS.pop("genuine_lurker", None)


def test_example_samples_with_and_without_the_cap(lurker):
    now = PAPER_EPOCH
    free = lurker.sample(random.Random(3), 7, now)
    assert sample_capped(lurker, random.Random(3), 7, now) == free
    assert now - 5 * 365 * DAY <= free.created_at <= now
    cap = free.created_at - 30 * DAY
    capped = sample_capped(lurker, random.Random(3), 7, now, cap)
    assert capped.created_at == pytest.approx(cap, abs=1e-6)
    assert capped.last_tweet_at == free.last_tweet_at
    assert (capped.followers_count, capped.friends_count,
            capped.statuses_count) == \
        (free.followers_count, free.friends_count, free.statuses_count)
    assert capped.true_label is Label.GENUINE


def test_example_persona_generates_valid_followers(lurker):
    world = SyntheticWorld(seed=5, ref_time=PAPER_EPOCH)
    world.add_target(TargetSpec(
        screen_name="quietly", followers=400,
        created_at=PAPER_EPOCH - 200 * DAY,
        segments=[FollowerSegmentSpec(
            1.0, {"genuine_lurker": 0.5, "fake_classic": 0.5})]))
    population = world.population("quietly")
    report = validate_population(population, PAPER_EPOCH)
    assert report.ok, report
    picked = {population.account_at(p, PAPER_EPOCH).description
              for p in range(population.size_at(PAPER_EPOCH))}
    assert "just here to read" in picked


def test_sampler_without_latest_created_is_refused():
    def two_arguments(draws, now) -> dict:
        raise AssertionError("never sampled")

    with pytest.raises(ConfigurationError, match="latest_created"):
        Persona("genuine_old_style", Label.GENUINE, two_arguments)


def test_sampler_creating_after_the_cap_is_refused():
    def uncapped(draws, now, latest_created):
        columns = human_handles(draws)
        columns.update(created_at=now - draws.uniform(0, 10 * DAY),
                       last_tweet_at=math.nan, statuses_count=0)
        return columns

    rash = Persona("genuine_rash", Label.GENUINE, uncapped)
    with pytest.raises(ConfigurationError, match="latest_created"):
        sample_capped(rash, random.Random(1), 7, PAPER_EPOCH,
                      PAPER_EPOCH - 30 * DAY)
