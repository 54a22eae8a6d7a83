"""Batched timelines equal one-id timelines, byte for byte.

``SyntheticWorld.timelines`` draws each target's followers as one batch
of columns and their tweets in array passes of a few dozen users; a
loop of ``SyntheticWorld.timeline`` draws one user at a time, and the
oracle in ``timeline_draw_oracle`` draws one account from its stream
without any batching.  Every user's draws come from its own
counter-based stream, so all three must agree on every column and on
``duplicated``: for template (duplicate pool) personas, accounts that
never tweeted, accounts with fewer statuses than the page, pages of 1
and 200, ids of several targets, a target and an ambient id, repeated
ids and more ids than one pass.
"""

from __future__ import annotations

import pytest

from repro.core import DAY, PAPER_EPOCH, UnknownAccountError
from repro.twitter import (Account, BehaviorProfile, TimelineGenerator,
                           add_simple_target, build_world)
from repro.twitter.population import ambient_id, target_id
from repro.twitter.timeline import TimelineProfiles

from .timeline_draw_oracle import one_timeline

NOW = PAPER_EPOCH + 2 * DAY


def _world():
    world = build_world(seed=5)
    add_simple_target(world, "mixed", 3000, 0.35, 0.4, 0.25,
                      daily_new_followers=40.0)
    add_simple_target(world, "fakes", 800, 0.1, 0.8, 0.1)
    return world


def _columns(block):
    return (block.user_id, block.created_at.tobytes(),
            block.tweet_id.tobytes(), block.flags.tobytes(),
            block.body_key.tobytes(), block.duplicated)


def _oracle(seed, account, count):
    created_at, tweet_id, flags, body_key, duplicated = one_timeline(
        seed, account, count)
    return (account.user_id, created_at.tobytes(), tweet_id.tobytes(),
            flags.tobytes(), body_key.tobytes(), duplicated)


def _sample(world):
    ids = []
    for handle, step in (("mixed", 7), ("fakes", 3)):
        population = world.population(handle)
        ids += population.follower_ids(
            0, population.size_at(NOW), NOW)[::step].tolist()
    ids += [target_id(0), ambient_id(17), ids[5], ids[-1], ids[5]]
    return ids


@pytest.mark.parametrize("count", [1, 37, 200])
def test_batch_equals_one_id_loop(count):
    world = _world()
    ids = _sample(world)
    batch = world.timelines(ids, count, NOW)
    alone = [world.timeline(user_id, count, NOW) for user_id in ids]
    assert [_columns(block) for block in batch] == \
        [_columns(block) for block in alone]


@pytest.mark.parametrize("count", [1, 200])
def test_batch_equals_the_one_account_oracle(count):
    world = _world()
    ids = _sample(world)
    assert [_columns(block) for block in world.timelines(ids, count, NOW)] \
        == [_oracle(world.seed, world.account_by_id(user_id, NOW), count)
            for user_id in ids]


def test_sample_covers_the_interesting_accounts():
    """The differential sample holds every kind of account it claims."""
    world = _world()
    ids = _sample(world)
    assert len(ids) > 64                      # more than one pass
    blocks = world.timelines(ids, 200, NOW)
    accounts = [world.account_by_id(user_id, NOW) for user_id in ids]
    assert any(account.behavior.duplicate_pool and len(block) > 3
               for account, block in zip(accounts, blocks))
    assert any(account.statuses_count == 0 for account in accounts)
    assert any(0 < account.statuses_count < 200 for account in accounts)
    assert any(block.duplicated for block in blocks)


def test_blocks_own_compact_columns():
    world = _world()
    blocks = world.timelines(_sample(world)[:100], 200, NOW)
    for block in blocks:
        for column in (block.created_at, block.tweet_id, block.flags,
                       block.body_key):
            assert column.base is None or column.base.size == len(block)


def test_unknown_id_raises():
    world = _world()
    ids = _sample(world)[:10]
    population = world.population("mixed")
    late = population.follower_id_at(population.arrived_at(NOW) + 5)
    for unknown in (late, ambient_id(10**6), target_id(9), 12345):
        with pytest.raises(UnknownAccountError):
            world.timelines(ids + [unknown], 200, NOW)
        with pytest.raises(UnknownAccountError):
            world.timeline(unknown, 200, NOW)


def test_generator_batch_equals_single_profiles():
    """The draw program itself, on hand-built profiles of every shape."""
    generator = TimelineGenerator(9)
    accounts = [
        Account(user_id=1000 + index, screen_name=f"u{index}",
                created_at=PAPER_EPOCH - (100 + index) * DAY,
                statuses_count=statuses,
                last_tweet_at=None if statuses == 0
                else PAPER_EPOCH - index * 3600.0,
                behavior=BehaviorProfile(
                    tweets_per_day=0.5 + index % 7,
                    retweet_ratio=0.1 * (index % 5),
                    link_ratio=0.2, spam_ratio=0.05 * (index % 3),
                    duplicate_pool=index % 4 * (index % 3)))
        for index, statuses in enumerate(
            [0, 1, 3, 150, 199, 200, 5000] * 20)]
    profiles = TimelineProfiles.of(accounts)
    for count in (0, 1, 200):
        batch = generator.timelines(profiles, count)
        assert [_columns(block) for block in batch] == [
            _oracle(9, account, count) for account in accounts]
        assert [_columns(block) for block in batch] == [
            _columns(generator.recent_tweets(account, count))
            for account in accounts]
