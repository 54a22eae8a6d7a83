"""Unit tests for the random forest."""

import numpy as np
import pytest

from repro.core.errors import TrainingError
from repro.fc import RandomForest

from .test_tree import separable_data


class TestFit:
    def test_learns_separable_data(self):
        X, y = separable_data()
        forest = RandomForest(n_trees=7, max_depth=3, seed=1).fit(X, y)
        assert (forest.predict(X) == y).all()

    def test_tree_count(self):
        X, y = separable_data(n=60)
        forest = RandomForest(n_trees=5, seed=1).fit(X, y)
        assert len(forest.trees) == 5

    def test_validation(self):
        with pytest.raises(TrainingError):
            RandomForest(n_trees=0)
        with pytest.raises(TrainingError):
            RandomForest().fit(np.empty((0, 2)), np.empty(0))
        with pytest.raises(TrainingError):
            RandomForest().fit(np.ones((3, 2)), np.array([0, 1]))
        for bad in (dict(max_features=0), dict(max_features=-1),
                    dict(max_depth=0), dict(min_samples_leaf=0)):
            with pytest.raises(TrainingError, match=next(iter(bad))):
                RandomForest(**bad)

    def test_non_finite_features_rejected(self):
        X, y = separable_data(n=20)
        X[3, 1] = np.nan
        with pytest.raises(TrainingError, match="column 1"):
            RandomForest(n_trees=2).fit(X, y)

    def test_unfitted_predict_rejected(self):
        with pytest.raises(TrainingError):
            RandomForest().predict(np.ones((1, 2)))
        with pytest.raises(TrainingError):
            RandomForest().predict_proba(np.ones((1, 2)))
        with pytest.raises(TrainingError):
            RandomForest().feature_importances()


class TestPrediction:
    def test_proba_is_mean_of_trees(self):
        X, y = separable_data(n=100, seed=3)
        forest = RandomForest(n_trees=4, max_depth=3, seed=2).fit(X, y)
        stacked = np.vstack([t.predict_proba(X) for t in forest.trees])
        assert np.allclose(forest.predict_proba(X), stacked.mean(axis=0))

    def test_majority_vote_threshold(self):
        X, y = separable_data(n=100, seed=4)
        forest = RandomForest(n_trees=9, max_depth=3, seed=5).fit(X, y)
        proba = forest.predict_proba(X)
        assert ((proba >= 0.5) == (forest.predict(X) == 1)).all()

    def test_importances_normalised(self):
        X, y = separable_data()
        forest = RandomForest(n_trees=5, max_depth=4, seed=6).fit(X, y)
        importances = forest.feature_importances()
        assert importances.shape == (3,)
        assert importances.sum() == pytest.approx(1.0)


class TestDeterminism:
    def test_same_seed_same_forest(self):
        X, y = separable_data(n=150, seed=8)
        first = RandomForest(n_trees=6, seed=11).fit(X, y)
        second = RandomForest(n_trees=6, seed=11).fit(X, y)
        assert np.allclose(first.predict_proba(X), second.predict_proba(X))

    def test_different_seed_differs(self):
        X, y = separable_data(n=150, seed=8)
        y = y.copy()
        y[::5] = 1 - y[::5]  # noise so trees disagree
        first = RandomForest(n_trees=6, seed=11).fit(X, y)
        second = RandomForest(n_trees=6, seed=12).fit(X, y)
        assert not np.allclose(
            first.predict_proba(X), second.predict_proba(X))
