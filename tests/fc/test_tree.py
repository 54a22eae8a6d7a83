"""Unit and property tests for the from-scratch decision tree."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.errors import TrainingError
from repro.fc import DecisionTree, default_detector

from .tree_oracle import OracleTree, best_split, exact


def separable_data(n=200, seed=0):
    """Two Gaussian blobs separable on the first feature."""
    rng = np.random.default_rng(seed)
    X0 = rng.normal(loc=-2.0, scale=0.5, size=(n // 2, 3))
    X1 = rng.normal(loc=+2.0, scale=0.5, size=(n // 2, 3))
    X = np.vstack([X0, X1])
    y = np.array([0] * (n // 2) + [1] * (n // 2))
    return X, y


class TestFit:
    def test_learns_separable_data(self):
        X, y = separable_data()
        tree = DecisionTree(max_depth=3).fit(X, y)
        assert (tree.predict(X) == y).all()

    def test_single_class_yields_constant_leaf(self):
        X = np.ones((10, 2))
        y = np.zeros(10, dtype=int)
        tree = DecisionTree().fit(X, y)
        assert (tree.predict(X) == 0).all()

    def test_constant_features_fall_back_to_majority(self):
        X = np.ones((10, 2))
        y = np.array([1] * 7 + [0] * 3)
        tree = DecisionTree().fit(X, y)
        assert (tree.predict(X) == 1).all()

    def test_depth_limit_respected(self):
        X, y = separable_data(n=400, seed=1)
        # Add label noise so deeper trees would keep splitting.
        y = y.copy()
        y[::7] = 1 - y[::7]
        tree = DecisionTree(max_depth=2).fit(X, y)
        assert tree.depth() <= 2

    def test_validation(self):
        with pytest.raises(TrainingError):
            DecisionTree(max_depth=0)
        with pytest.raises(TrainingError):
            DecisionTree(min_samples_split=1)
        with pytest.raises(TrainingError):
            DecisionTree().fit(np.empty((0, 2)), np.empty(0))
        with pytest.raises(TrainingError):
            DecisionTree().fit(np.ones((3, 2)), np.array([0, 1, 2]))
        with pytest.raises(TrainingError):
            DecisionTree().fit(np.ones(3), np.array([0, 1, 0]))
        for max_features in (0, -1):
            with pytest.raises(TrainingError, match="max_features"):
                DecisionTree(max_features=max_features)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_features_rejected(self, bad):
        X, y = separable_data(n=20)
        X[7, 2] = bad
        with pytest.raises(TrainingError, match="column 2"):
            DecisionTree().fit(X, y)


class TestPredict:
    def test_unfitted_rejected(self):
        with pytest.raises(TrainingError):
            DecisionTree().predict(np.ones((1, 2)))

    def test_wrong_width_rejected(self):
        X, y = separable_data()
        tree = DecisionTree().fit(X, y)
        with pytest.raises(TrainingError):
            tree.predict(np.ones((1, 5)))

    def test_proba_in_unit_interval(self):
        X, y = separable_data()
        tree = DecisionTree(max_depth=2).fit(X, y)
        proba = tree.predict_proba(X)
        assert ((proba >= 0) & (proba <= 1)).all()

    def test_proba_consistent_with_labels(self):
        X, y = separable_data()
        tree = DecisionTree(max_depth=3).fit(X, y)
        labels = tree.predict(X)
        proba = tree.predict_proba(X)
        assert ((proba >= 0.5) == (labels == 1)).all()


class TestIntrospection:
    def test_feature_importances_sum_to_one(self):
        X, y = separable_data()
        tree = DecisionTree(max_depth=4).fit(X, y)
        importances = tree.feature_importances()
        assert importances.sum() == pytest.approx(1.0)
        assert importances[0] > 0  # the separating feature is used

    def test_rules_render(self):
        X, y = separable_data()
        tree = DecisionTree(max_depth=2).fit(X, y)
        rules = tree.rules()
        assert rules and all("=>" in r for r in rules)


class TestDeterminism:
    def test_same_seed_same_tree(self):
        X, y = separable_data(n=300, seed=2)
        first = DecisionTree(max_depth=5, max_features=2, seed=9).fit(X, y)
        second = DecisionTree(max_depth=5, max_features=2, seed=9).fit(X, y)
        assert (first.predict(X) == second.predict(X)).all()


class TestProperties:
    @given(
        n=st.integers(min_value=4, max_value=60),
        d=st.integers(min_value=1, max_value=4),
        seed=st.integers(min_value=0, max_value=1000),
    )
    @settings(max_examples=30, deadline=None)
    def test_property_train_accuracy_beats_majority(self, n, d, seed):
        rng = np.random.default_rng(seed)
        X = rng.normal(size=(n, d))
        y = rng.integers(0, 2, size=n)
        tree = DecisionTree(max_depth=6).fit(X, y)
        predictions = tree.predict(X)
        assert set(np.unique(predictions)) <= {0, 1}
        majority = max(np.mean(y), 1 - np.mean(y))
        accuracy = np.mean(predictions == y)
        assert accuracy >= majority - 1e-9


class TestOracle:
    """The vectorised split search grows the loop oracle's exact trees."""

    @given(
        n=st.integers(min_value=2, max_value=80),
        d=st.integers(min_value=1, max_value=6),
        distinct=st.integers(min_value=1, max_value=8),
        floats=st.booleans(),
        max_depth=st.integers(min_value=1, max_value=8),
        min_samples_leaf=st.integers(min_value=1, max_value=5),
        max_features=st.one_of(st.none(), st.integers(min_value=1,
                                                      max_value=6)),
        seed=st.integers(min_value=0, max_value=2**16),
    )
    @settings(max_examples=150, deadline=None)
    def test_property_matches_loop_oracle(self, n, d, distinct, floats,
                                          max_depth, min_samples_leaf,
                                          max_features, seed):
        rng = np.random.default_rng(seed)
        # Few distinct values per column, so ties are the common case.
        X = rng.integers(0, distinct, size=(n, d)).astype(np.float64)
        if floats:
            X = X / 3.0 + rng.normal(size=d)
        y = rng.integers(0, 2, size=n)
        params = dict(max_depth=max_depth,
                      min_samples_leaf=min_samples_leaf,
                      max_features=None if max_features is None
                      else min(max_features, d),
                      seed=seed)
        production = DecisionTree(**params).fit(X, y)
        oracle = OracleTree(**params).fit(X, y)
        assert exact(production) == exact(oracle)

    def test_default_detector_matches_loop_oracle(self, detector,
                                                  monkeypatch):
        monkeypatch.setattr(DecisionTree, "_best_split", best_split)
        oracle = default_detector(seed=0, gold_size=200)
        trees = detector.model.trees
        assert len(trees) == len(oracle.model.trees) == 25
        for production, reference in zip(trees, oracle.model.trees):
            assert exact(production) == exact(reference)
