"""Follower columns: one generator, the same bytes everywhere.

* a follower generated alone is the same row, byte for byte, as in a
  batch, also when each row of the batch is read at its own instant;
* the vectorised arrival instants equal the scalar
  :meth:`ArrivalSchedule.arrival_time` bit for bit;
* no NumPy transcendental ufunc sits on the follower path, and a
  digest pins the generated bytes for fixed inputs, so a NumPy build
  that changed a draw would fail here;
* the label promise of :mod:`repro.twitter.personas` holds over 10^5
  rows, capped late arrivals included;
* the newest positions of a list (a head sample's frame) are labelled
  at their segment's rate, with no bias from their keys.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.core import DAY, PAPER_EPOCH
from repro.twitter import (
    INACTIVITY_HORIZON,
    Label,
    LABELS,
    add_simple_target,
    build_world,
    fake_purchase_burst,
)
from repro.twitter.columnar.schema import ACCOUNT_DTYPE
from repro.twitter.workload import ArrivalSchedule, SegmentWindow

NOW = PAPER_EPOCH


def _world():
    world = build_world(seed=11)
    add_simple_target(world, "tilted", 6000, 0.4, 0.2, 0.4,
                      fake_burst_fraction=0.5, daily_new_followers=300.0,
                      post_ref_bursts=[fake_purchase_burst(2.0, 500)])
    return world


def _rows(columns) -> np.ndarray:
    return np.array(columns.profile_rows(), dtype=ACCOUNT_DTYPE)


@pytest.mark.parametrize("step, count, mixed", [
    (37, None, False), (1, 7, False), (37, None, True)],
    ids=["37-None", "1-7", "37-None-mixed"])
def test_single_rows_equal_batch_rows(step, count, mixed):
    """A spread batch has large persona groups; seven consecutive
    positions have persona groups of one row; a batch at mixed instants
    reads each row at its own."""
    population = _world().population("tilted")
    now = NOW + 5 * DAY
    positions = list(range(0, population.arrived_at(now), step))[:count]
    instants = [now + index % 4 * 0.3 * DAY * mixed
                for index in range(len(positions))]
    batch = _rows(population.follower_columns(
        positions, instants if mixed else now))
    alone = np.concatenate([_rows(population.follower_columns([p], at))
                            for p, at in zip(positions, instants)])
    assert batch.tobytes() == alone.tobytes()
    assert [population.account_at(p, at)
            for p, at in zip(positions[:50], instants)] == \
        population.follower_columns(positions[:50], instants[:50]).accounts()


# -- arrival instants: vectorised == scalar, bit for bit -----------------------

SCHEDULES = {
    "gamma": ArrivalSchedule([
        SegmentWindow(count=700, start=0.0, end=1000.0, gamma=0.37),
        SegmentWindow(count=0, start=1000.0, end=1000.0),
        SegmentWindow(count=1, start=1000.0, end=1500.0, gamma=2.5),
        SegmentWindow(count=900, start=1500.0, end=1e6, gamma=3.0),
        SegmentWindow(count=400, start=1e6, end=2e6)],
        post_ref_daily=50.0),
    "burst": ArrivalSchedule(
        [SegmentWindow(count=500, start=PAPER_EPOCH - 400 * DAY,
                       end=PAPER_EPOCH, gamma=1.7)],
        post_ref_daily=24.0,
        post_ref_bursts=[(PAPER_EPOCH + 2.5 * DAY, 300),
                         (PAPER_EPOCH + 4 * DAY, 40)]),
    "tranche": ArrivalSchedule(
        [SegmentWindow(count=300, start=PAPER_EPOCH - 90 * DAY,
                       end=PAPER_EPOCH)],
        post_ref_daily=10.0,
        post_ref_bursts=[(PAPER_EPOCH + DAY, 250, 40, 0.05)]),
}


@pytest.mark.parametrize("name", sorted(SCHEDULES))
def test_vectorised_arrivals_equal_scalar_bit_for_bit(name):
    schedule = SCHEDULES[name]
    positions = np.arange(schedule.size_at(schedule.ref_time + 6 * DAY))
    segments, instants = schedule.locate_many(positions)
    scalar = [schedule.locate(int(p)) for p in positions]
    assert segments.tolist() == [index for index, __ in scalar]
    assert instants.tobytes() == np.array(
        [at for __, at in scalar], dtype=np.float64).tobytes()
    shuffled = np.random.default_rng(3).permutation(positions)
    __, again = schedule.locate_many(shuffled)
    assert again.tobytes() == instants[shuffled].tobytes()


# -- build independence -----------------------------------------------------------

_TRANSCENDENTAL = ("log", "log1p", "log2", "log10", "exp", "expm1", "exp2",
                   "power", "float_power", "cos", "sin", "tan", "sqrt")


def test_no_transcendental_ufunc_on_the_follower_path(monkeypatch):
    world = _world()
    population = world.population("tilted")
    now = NOW + 5 * DAY
    ids = population.follower_ids(0, population.size_at(now), now)[::7]

    def refuse(*args, **kwargs):
        raise AssertionError("a NumPy transcendental on the follower path")

    for name in _TRANSCENDENTAL:
        monkeypatch.setattr(np, name, refuse)
    world.user_objects(ids.tolist(), now)
    world.user_row_block(ids.tolist(), now)
    population.account_at(3, now)
    population.composition(now)


#: sha256 of the row bytes and personas of ``_digest_inputs``.
PINNED_DIGEST = \
    "f360d2c40d8d647d3e939821306487de7bf363ee50a59ea3a357e1e2937d7b43"


def _digest_inputs():
    population = _world().population("tilted")
    now = NOW + 5 * DAY
    positions = [0, 1, 2, 1000, 2999, 3000, 5999, 6000, 6005, 6600, 6601,
                 7700]
    return population, positions, now


def test_digest_pins_follower_columns():
    population, positions, now = _digest_inputs()
    rows = _rows(population.follower_columns(positions, now))
    digest = hashlib.sha256(rows.tobytes())
    digest.update(",".join(persona.name for persona in
                           population.personas_at(positions)).encode())
    assert digest.hexdigest() == PINNED_DIGEST


# -- the label promise, capped late arrivals included ----------------------------

def test_labels_match_behaviour_over_a_hundred_thousand_rows():
    world = build_world(seed=12)
    add_simple_target(world, "crowd", 40_000, 0.45, 0.15, 0.4,
                      daily_new_followers=2000.0,
                      post_ref_bursts=[fake_purchase_burst(3.0, 5000)])
    population = world.population("crowd")
    now = NOW + 30 * DAY
    size = population.arrived_at(now)
    assert size >= 100_000
    rows = _rows(population.follower_columns(np.arange(size), now))
    labels = np.array(LABELS, dtype=object)[rows["label"]]
    last = rows["last_tweet_at"]
    never = np.isnan(last)
    stale = never | (now - last > INACTIVITY_HORIZON)
    inactive = labels == Label.INACTIVE
    assert inactive.any() and (~inactive).any()
    assert stale[inactive].all()
    assert not stale[~inactive].any()
    # Causality: no follower is created after it follows, and the late
    # arrivals (followed within the last 30 days) are part of the check.
    followed = population.schedule.locate_many(np.arange(size))[1]
    assert (rows["created_at"] <= followed).all()
    late = followed > now - 30 * DAY
    assert late.sum() >= 60_000 and inactive[late].any()
    assert ((rows["statuses_count"] == 0) == never).all()


# -- the newest positions draw their segment's mix -------------------------------

def test_head_of_a_tilted_list_is_labelled_at_its_cohort_rate():
    """The newest followers, which a head sample reads, get no special
    draw: over 40 worlds, the inactive share of the newest 1,000 and of
    the newest 5,000 (all in the newest of 8 cohorts, whose inactive
    rate is 0.4 * (1 - 0.6) = 16%) lies within 4 binomial standard
    errors of 16% (two-sided alpha ~ 6e-5 each)."""
    base, worlds, expected = 50_000, 40, 0.4 * (1 - 0.6)
    newest = {1000: 0, 5000: 0}
    for seed in range(worlds):
        world = build_world(seed=seed)
        add_simple_target(world, "tilted", base, 0.4, 0.1, 0.5,
                          tilt=0.6, pieces=8)
        labels = world.population("tilted").labels_at(
            range(base - max(newest), base))
        inactive = np.array([label is Label.INACTIVE for label in labels])
        for head in newest:
            newest[head] += int(inactive[-head:].sum())
    for head, hits in newest.items():
        rows = head * worlds
        error = (expected * (1 - expected) / rows) ** 0.5
        assert abs(hits / rows - expected) < 4 * error, (head, hits / rows)
