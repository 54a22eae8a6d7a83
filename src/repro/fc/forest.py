"""Bagged random forest over :class:`~repro.fc.tree.DecisionTree`.

Bootstrap sampling plus random feature subspaces per split; prediction
is the majority vote (probability = mean of tree probabilities), read
from one :class:`~repro.fc.tree.Descent` over every tree at once.
Deterministic for a fixed seed.
"""

from __future__ import annotations

import math
from typing import List, Optional

import numpy as np

from ..core.errors import TrainingError
from .tree import DecisionTree, Descent, check_finite, check_tree_params


class RandomForest:
    """An ensemble of CART trees trained on bootstrap resamples."""

    def __init__(self, n_trees: int = 25, max_depth: int = 8,
                 min_samples_leaf: int = 1,
                 max_features: Optional[int] = None, seed: int = 0) -> None:
        if n_trees < 1:
            raise TrainingError(f"n_trees must be >= 1: {n_trees!r}")
        check_tree_params(max_depth, min_samples_leaf, max_features)
        self._n_trees = n_trees
        self._max_depth = max_depth
        self._min_samples_leaf = min_samples_leaf
        self._max_features = max_features
        self._seed = seed
        self._trees: List[DecisionTree] = []
        self._n_features = 0
        self._program: Optional[Descent] = None

    def fit(self, X: np.ndarray, y: np.ndarray) -> "RandomForest":
        """Train all trees; each sees a bootstrap resample of (X, y)."""
        X = np.asarray(X, dtype=np.float64)
        y = np.asarray(y, dtype=np.int64)
        if X.ndim != 2 or X.shape[0] == 0:
            raise TrainingError(f"X must be non-empty 2-D, got shape {X.shape}")
        if y.shape != (X.shape[0],):
            raise TrainingError("y length must match X rows")
        check_finite(X)
        self._n_features = X.shape[1]
        max_features = self._max_features
        if max_features is None:
            # The classic sqrt(d) heuristic.
            max_features = max(1, int(math.sqrt(self._n_features)))
        rng = np.random.default_rng(self._seed)
        n = X.shape[0]
        self._trees = []
        self._program = None
        for index in range(self._n_trees):
            rows = rng.integers(0, n, size=n)
            tree = DecisionTree(
                max_depth=self._max_depth,
                min_samples_leaf=self._min_samples_leaf,
                max_features=max_features,
                seed=int(rng.integers(0, 2**31 - 1)),
            )
            tree.fit(X[rows], y[rows])
            self._trees.append(tree)
        self._program = Descent(self._trees)
        return self

    @property
    def trees(self) -> List[DecisionTree]:
        """The fitted member trees."""
        return list(self._trees)

    @property
    def n_features(self) -> int:
        """Design-matrix width the forest was fitted on (0 if unfitted)."""
        return self._n_features

    def _fitted(self) -> Descent:
        if self._program is None:
            raise TrainingError("forest is not fitted")
        return self._program

    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        """Mean positive-class probability across trees."""
        return self._fitted().predict_proba(X)

    def predict(self, X: np.ndarray) -> np.ndarray:
        """Majority-vote 0/1 labels."""
        return self._fitted().predict(X)

    def feature_importances(self) -> np.ndarray:
        """Mean split-count importance across trees."""
        if not self._trees:
            raise TrainingError("forest is not fitted")
        stacked = np.vstack([
            tree.feature_importances() for tree in self._trees])
        return stacked.mean(axis=0)
