"""Unit tests for the gold-standard dataset builder."""

import pytest

from repro.core import ConfigurationError
from repro.fc import GoldStandard, build_gold_standard
from repro.twitter import Label


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
        assert [e.user.user_id for e in first.examples] == \
            [e.user.user_id for e in second.examples]

    def test_timelines_attached(self):
        gold = build_gold_standard(n_fake=10, n_genuine=10, seed=2)
        tweeting = [e for e in gold.examples
                    if e.user.statuses_count > 0]
        assert tweeting
        assert all(len(e.timeline) > 0 for e in tweeting)

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
        train_ids = {e.user.user_id for e in train.examples}
        test_ids = {e.user.user_id for e in test.examples}
        assert not train_ids & test_ids

    def test_split_fraction_validated(self, gold):
        with pytest.raises(ConfigurationError):
            gold.split(train_fraction=1.0)

    def test_design_matrix_shape(self, gold):
        from repro.fc import PROFILE_FEATURE_SET
        matrix = gold.design_matrix(PROFILE_FEATURE_SET)
        assert matrix.shape == (80, len(PROFILE_FEATURE_SET.features))

    def test_empty_gold_rejected(self):
        with pytest.raises(Exception):
            GoldStandard([], 0.0)
