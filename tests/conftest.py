"""Shared fixtures for the test suite.

Expensive artefacts (the trained detector, a reusable small world) are
session-scoped; tests must not mutate them.
"""

from __future__ import annotations

import copy

import pytest

from repro.core import PAPER_EPOCH, SimClock
from repro.fc import build_gold_standard, default_detector
from repro.twitter import add_simple_target, build_world
from repro.twitter.columnar.schema import UserRowBlock


def object_lookups(world):
    """A view of ``world`` whose lookups are packed from user objects.

    ``users/lookup`` on the view answers the rows
    ``UserRowBlock.from_users(world.user_objects(...))`` -- the object
    oracle, with behaviour and label columns zeroed -- so comparing an
    audit on the view with one on ``world`` compares the object
    rendering with the row rendering over the same followers.
    """
    view = copy.copy(world)
    view.user_row_block = lambda user_ids, now: UserRowBlock.from_users(
        world.user_objects(user_ids, now))
    return view


@pytest.fixture(scope="session")
def detector():
    """A small but competent production-style (class A) detector."""
    return default_detector(seed=0, gold_size=200)


@pytest.fixture(scope="session")
def gold():
    """A mid-sized binary gold standard (active fakes vs active genuine)."""
    return build_gold_standard(n_fake=250, n_genuine=250, seed=77)


@pytest.fixture(scope="session")
def small_world():
    """A lazy world with one 12K-follower target ('smalltown').

    Composition: 40% inactive / 10% fake / 50% genuine, default tilt,
    growing by 50 followers/day after the reference instant.
    """
    world = build_world(seed=11, ref_time=PAPER_EPOCH)
    add_simple_target(world, "smalltown", 12_000, 0.4, 0.1, 0.5,
                      daily_new_followers=50)
    return world


@pytest.fixture
def clock():
    """A fresh clock at the paper epoch."""
    return SimClock(PAPER_EPOCH)
