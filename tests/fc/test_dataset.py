"""Unit tests for the gold-standard dataset builder."""

import pytest

from repro.api import UserObject
from repro.core import ConfigurationError, PAPER_EPOCH
from repro.core.errors import TrainingError
from repro.core.rng import make_rng
from repro.fc import (FULL_FEATURE_SET, PROFILE_FEATURE_SET, GoldStandard,
                      build_gold_standard)
from repro.fc.dataset import (ACTIVE_FAKE_PERSONAS, ACTIVE_GENUINE_PERSONAS,
                              INACTIVE_PERSONAS)
from repro.twitter import Label
from repro.twitter.columnar.schema import UserRowBlock
from repro.twitter.columns import sample_keyed
from repro.twitter.personas import PERSONAS
from repro.twitter.timeline import TimelineGenerator, TimelineProfiles

from . import feature_oracle


class TestBuilder:
    def test_sizes_and_labels(self):
        gold = build_gold_standard(n_fake=30, n_genuine=50, seed=1)
        assert len(gold) == 80
        labels = gold.labels()
        assert labels.sum() == 30

    def test_inactive_examples_optional(self):
        gold = build_gold_standard(
            n_fake=10, n_genuine=10, n_inactive=20, seed=1)
        three_way = gold.three_way_labels()
        assert three_way.count(Label.INACTIVE) == 20
        # Inactive examples are negatives for the binary detector.
        assert gold.labels().sum() == 10

    def test_deterministic(self):
        first = build_gold_standard(n_fake=20, n_genuine=20, seed=5)
        second = build_gold_standard(n_fake=20, n_genuine=20, seed=5)
        assert first.users().rows.tobytes() == second.users().rows.tobytes()

    def test_timelines_attached(self):
        gold = build_gold_standard(n_fake=10, n_genuine=10, seed=2)
        tweeting = [timeline for user, timeline
                    in zip(gold.users(), gold.timelines())
                    if user.statuses_count > 0]
        assert tweeting
        assert all(len(timeline) > 0 for timeline in tweeting)

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            build_gold_standard(n_fake=0, n_genuine=10)
        with pytest.raises(ConfigurationError):
            build_gold_standard(n_fake=10, n_genuine=10, n_inactive=-1)


class TestSplitting:
    @pytest.fixture(scope="class")
    def gold(self):
        return build_gold_standard(n_fake=40, n_genuine=40, seed=3)

    def test_split_partitions(self, gold):
        train, test = gold.split(train_fraction=0.75, seed=1)
        assert len(train) + len(test) == len(gold)
        train_ids = {user.user_id for user in train.users()}
        test_ids = {user.user_id for user in test.users()}
        assert not train_ids & test_ids

    def test_split_fraction_validated(self, gold):
        with pytest.raises(ConfigurationError):
            gold.split(train_fraction=1.0)

    def test_design_matrix_shape(self, gold):
        matrix = gold.design_matrix(PROFILE_FEATURE_SET)
        assert matrix.shape == (80, len(PROFILE_FEATURE_SET.features))

    def test_empty_gold_rejected(self):
        with pytest.raises(TrainingError):
            GoldStandard(UserRowBlock.from_users([]), [], 0.0)

    def test_timelines_must_pair_with_rows(self, gold):
        with pytest.raises(ConfigurationError):
            GoldStandard(gold.users(), gold.timelines()[1:], gold.now)


def object_gold(*, n_fake, n_genuine, n_inactive, seed, timeline_depth):
    """``(user, timeline, label)`` examples built one object at a time.

    The object build the row block replaced: the same keys and ids,
    :class:`Account` objects projected onto user objects, timelines
    from the accounts' profiles, and one shuffle of the examples.
    """
    rng = make_rng(seed, "gold")
    generator = TimelineGenerator(seed)
    examples = []
    for count, names in ((n_fake, ACTIVE_FAKE_PERSONAS),
                         (n_genuine, ACTIVE_GENUINE_PERSONAS),
                         (n_inactive, INACTIVE_PERSONAS)):
        if not count:
            continue
        personas = [PERSONAS[names[index % len(names)]]
                    for index in range(count)]
        keys = [rng.getrandbits(64) for __ in range(count)]
        user_ids = [(7 << 56) | (len(examples) + 1 + index)
                    for index in range(count)]
        accounts = sample_keyed(personas, keys, user_ids,
                                PAPER_EPOCH).accounts()
        timelines = generator.timelines(TimelineProfiles.of(accounts),
                                        timeline_depth)
        examples.extend(
            (UserObject.from_account(account), timeline, persona.label)
            for persona, account, timeline
            in zip(personas, accounts, timelines))
    rng.shuffle(examples)
    return examples


def timeline_bytes(timeline):
    return (timeline.user_id, timeline.created_at.tobytes(),
            timeline.tweet_id.tobytes(), timeline.flags.tobytes(),
            timeline.body_key.tobytes())


@pytest.mark.parametrize("timeline_depth", [0, 200])
@pytest.mark.parametrize("n_inactive", [0, 10])
@pytest.mark.parametrize("seed", [1, 5])
def test_row_gold_equals_the_object_build(seed, n_inactive, timeline_depth):
    kwargs = dict(n_fake=12, n_genuine=15, n_inactive=n_inactive, seed=seed,
                  timeline_depth=timeline_depth)
    gold = build_gold_standard(**kwargs)
    examples = object_gold(**kwargs)
    users = [user for user, __, __ in examples]
    timelines = [timeline for __, timeline, __ in examples]
    labels = [label for __, __, label in examples]

    assert list(gold.users()) == users
    assert gold.three_way_labels() == labels
    assert gold.labels().tolist() == [int(label is Label.FAKE)
                                      for label in labels]
    assert ([timeline_bytes(timeline) for timeline in gold.timelines()]
            == [timeline_bytes(timeline) for timeline in timelines])

    # split() shuffles positions with its own stream, then cuts.
    order = list(range(len(users)))
    make_rng(2, "gold-split").shuffle(order)
    cut = round(len(order) * 0.6)
    train, test = gold.split(train_fraction=0.6, seed=2)
    assert list(train.users()) == [users[index] for index in order[:cut]]
    assert list(test.users()) == [users[index] for index in order[cut:]]
    assert test.three_way_labels() == [labels[index]
                                       for index in order[cut:]]

    for feature_set in (PROFILE_FEATURE_SET, FULL_FEATURE_SET):
        assert gold.design_matrix(feature_set).tobytes() == \
            feature_oracle.extract_matrix(feature_set, users, timelines,
                                          gold.now).tobytes()

