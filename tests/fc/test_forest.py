"""Unit tests for the random forest."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.errors import TrainingError
from repro.fc import DecisionTree, RandomForest
from repro.fc.tree import ROW_PASS, Descent

from . import tree_oracle
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


# ---------------------------------------------------------------------------
# One descent program: differential tests against the recursive oracle
# ---------------------------------------------------------------------------

def query_matrix(data, n_rows, d):
    """Query rows drawn from Hypothesis, with NaN and +-inf mixed in.

    The first row, when there is one, is all NaN: a NaN fails every
    ``x <= threshold`` and must go right at every split it meets.
    """
    rng = np.random.default_rng(data.draw(st.integers(0, 2**16)))
    X = rng.normal(scale=2.0, size=(n_rows, d))
    special = data.draw(st.floats(0.0, 0.3))
    mask = rng.random(X.shape) < special
    X[mask] = rng.choice([np.nan, np.inf, -np.inf], size=int(mask.sum()))
    if n_rows:
        X[0] = np.nan
    return X


def assert_matches_oracle(model, X):
    assert model.predict_proba(X).tobytes() == \
        tree_oracle.predict_proba(model, X).tobytes()
    assert np.array_equal(model.predict(X), tree_oracle.predict(model, X))


#: Row counts: none, one, a few, and more rows than one descent pass.
ROW_COUNTS = st.sampled_from([0, 1, 2, 31, ROW_PASS + 3])


class TestOneDescent:
    @settings(max_examples=25, deadline=None)
    @given(data=st.data(), n_trees=st.integers(1, 30),
           max_depth=st.integers(1, 8), d=st.integers(1, 5),
           n_rows=ROW_COUNTS)
    def test_forest_matches_recursive_descent(self, data, n_trees,
                                              max_depth, d, n_rows):
        # A rare positive class leaves some bootstrap resamples with one
        # class only, so their trees are a single leaf.
        n = data.draw(st.integers(8, 60))
        rng = np.random.default_rng(data.draw(st.integers(0, 2**16)))
        X = rng.normal(size=(n, d))
        y = (rng.random(n) < data.draw(st.sampled_from([0.05, 0.5]))
             ).astype(np.int64)
        forest = RandomForest(n_trees=n_trees, max_depth=max_depth,
                              seed=int(rng.integers(1000))).fit(X, y)
        assert_matches_oracle(forest, query_matrix(data, n_rows, d))

    @settings(max_examples=25, deadline=None)
    @given(data=st.data(),
           depths=st.lists(st.integers(0, 8), min_size=1, max_size=30),
           n_rows=ROW_COUNTS)
    def test_mixed_depth_trees_match_their_bagged_mean(self, data, depths,
                                                       n_rows):
        # Depth 0 stands for a single-leaf tree (one class only).
        d = 3
        rng = np.random.default_rng(data.draw(st.integers(0, 2**16)))
        trees = []
        for depth in depths:
            X = rng.normal(size=(80, d))
            y = (X[:, 0] + rng.normal(size=80) > 0).astype(np.int64)
            if depth == 0:
                y[:] = int(rng.integers(2))
            trees.append(DecisionTree(max_depth=max(depth, 1)).fit(X, y))
        X = query_matrix(data, n_rows, d)
        expected = np.vstack([tree_oracle.predict_proba(tree, X)
                              for tree in trees]).mean(axis=0)
        assert Descent(trees).predict_proba(X).tobytes() == expected.tobytes()

    @pytest.mark.parametrize("n_rows", [0, 1, 30, ROW_PASS + 5])
    def test_production_forest_with_non_finite_rows(self, detector, gold,
                                                    n_rows):
        forest = detector.model
        assert len({tree.depth() for tree in forest.trees}) > 1
        X = detector.feature_set.extract_matrix(gold.users(), None,
                                                gold.now)
        queries = np.resize(X, (n_rows, X.shape[1]))
        queries[::7, ::2] = np.nan
        queries[1::7, 1::3] = np.inf
        queries[2::7, ::4] = -np.inf
        assert_matches_oracle(forest, queries)
        for tree in forest.trees[:3]:
            assert_matches_oracle(tree, queries)

    def test_refit_replaces_the_program(self):
        X, y = separable_data(n=100, seed=1)
        forest = RandomForest(n_trees=3, max_depth=3, seed=2).fit(X, y)
        forest.fit(X, 1 - y)
        assert_matches_oracle(forest, X)

    def test_wrong_width_rejected(self):
        X, y = separable_data(n=60)
        forest = RandomForest(n_trees=2, seed=1).fit(X, y)
        with pytest.raises(TrainingError, match=r"shape \(\*, 3\)"):
            forest.predict_proba(np.ones((2, 4)))
        with pytest.raises(TrainingError, match="disagree"):
            Descent([DecisionTree().fit(X, y),
                     DecisionTree().fit(X[:, :2], y)])
