"""Decision-tree classifier, implemented from scratch on numpy.

scikit-learn is not part of the offline substrate, so the learners the
FC methodology relies on are built here: a CART-style binary decision
tree (Gini impurity) and, on top of it in ``repro.fc.forest``, a bagged
random forest.  Both are deterministic given their seeds.

The split search is exhaustive but vectorised: per candidate feature it
sorts the values once and scores every legal threshold in one array
pass.  It performs the same float operations, in the same order, as the
per-threshold loop it replaced (kept as the test oracle
``tests/fc/tree_oracle.py``), so the trees it grows are bit-identical:
same features, thresholds and leaf probabilities.

Inference is one array program per fitted model (:class:`Descent`):
the trees' node arrays are concatenated into one node table, and every
``(tree, row)`` pair advances one level per vectorised step, so a
forest of depth-*d* trees classifies any number of rows in *d* steps
whatever its size, and a single tree is the one-tree case of the same
program.  Each step compares the same float64 values against the same
thresholds as a recursive walk (the oracle's ``descend``), so every
row lands on the same leaf, and the forest's bagged mean reduces the
same ``(trees, rows)`` matrix in the same order as a stack of per-tree
probabilities.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, NamedTuple, Optional, Sequence

import numpy as np

from ..core.errors import TrainingError


@dataclass
class _Node:
    """One tree node; a leaf iff ``feature`` is None."""

    prediction: int
    probability: float
    feature: Optional[int] = None
    threshold: float = 0.0
    left: Optional["_Node"] = None
    right: Optional["_Node"] = None

    def is_leaf(self) -> bool:
        return self.feature is None


class _Nodes(NamedTuple):
    """One fitted tree as parallel node arrays, in preorder.

    Leaves compare feature 0 against ``+inf`` and route both branches
    back to themselves, so a row that reaches a leaf early stays there
    and the descent needs no masking.
    """

    feature: np.ndarray
    threshold: np.ndarray
    children: np.ndarray
    probability: np.ndarray
    depth: int


#: Rows a descent advances per pass; bounds its ``(tree, row)`` pair
#: arrays to ``trees * ROW_PASS`` entries whatever the sample size.
ROW_PASS = 1024


class Descent:
    """The inference program of fitted trees: one level-wise descent.

    The trees' node tables are concatenated into one, ordered by
    decreasing depth, so level *k* of a pass advances only the prefix
    of ``(tree, row)`` pairs whose tree is deeper than *k*.  Rows go in
    passes of :data:`ROW_PASS`; a row's feature is gathered from the
    flattened matrix as ``flat[row * d + feature]``, and the comparison
    picks the column of a ``(node, 2)`` child table.  A NaN fails every
    ``x <= threshold`` and so goes right, as in a recursive walk.  The
    leaves land in a ``(trees, rows)`` matrix in the trees' original
    order, whose column mean is the bagged probability: the same float
    reduction as a stack of per-tree probabilities.
    """

    def __init__(self, trees: Sequence[DecisionTree]) -> None:
        tables = [tree._nodes for tree in trees]
        if any(table is None for table in tables):
            raise TrainingError("tree is not fitted")
        widths = {tree.n_features for tree in trees}
        if len(widths) != 1:
            raise TrainingError(
                f"trees disagree on the feature count: {sorted(widths)}")
        order = sorted(range(len(tables)), key=lambda t: -tables[t].depth)
        ranked = [tables[t] for t in order]
        sizes = [len(table.feature) for table in ranked]
        offsets = np.cumsum([0] + sizes[:-1]).astype(np.int64)
        depths = np.array([table.depth for table in ranked], dtype=np.int64)
        self._n_features = widths.pop()
        self._order = np.array(order, dtype=np.int64)
        self._roots = offsets
        self._feature = np.concatenate([t.feature for t in ranked])
        self._threshold = np.concatenate([t.threshold for t in ranked])
        #: The ``(node, 2)`` child table, flat: ``2 * node + right``.
        self._children = np.concatenate([
            table.children + offset
            for table, offset in zip(ranked, offsets.tolist())]).reshape(-1)
        self._probability = np.concatenate([t.probability for t in ranked])
        #: Trees still descending at each level (a prefix of the order).
        self._active = [int((depths > k).sum())
                        for k in range(int(depths[0]))]

    def leaves(self, X: np.ndarray) -> np.ndarray:
        """The leaf node each row lands on in each tree, ``(trees, rows)``.

        Node indices address the concatenated node table.
        """
        X = np.ascontiguousarray(X, dtype=np.float64)
        d = self._n_features
        if X.ndim != 2 or X.shape[1] != d:
            raise TrainingError(f"X must have shape (*, {d}), got {X.shape}")
        n = X.shape[0]
        trees = len(self._roots)
        leaves = np.empty((trees, n), dtype=np.int64)
        flat = X.reshape(-1)
        for start in range(0, n, ROW_PASS):
            stop = min(start + ROW_PASS, n)
            m = stop - start
            cells = np.tile(np.arange(start * d, stop * d, d), trees)
            nodes = np.repeat(self._roots, m)
            for active in self._active:
                pairs = active * m
                at = nodes[:pairs]
                right = ~(flat[cells[:pairs] + self._feature[at]]
                          <= self._threshold[at])
                nodes[:pairs] = self._children[2 * at + right]
            leaves[self._order, start:stop] = nodes.reshape(trees, m)
        return leaves

    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        """Mean leaf probability of the positive class across trees."""
        return self._probability[self.leaves(X)].mean(axis=0)

    def predict(self, X: np.ndarray) -> np.ndarray:
        """0/1 labels: fake when the probability reaches 1/2."""
        return (self.predict_proba(X) >= 0.5).astype(np.int64)


def _gini(zeros, ones, total):
    """Gini impurity of ``[zeros, ones]`` class counts, elementwise.

    ``total`` is ``zeros + ones`` and never 0.  A two-element count
    vector sums in one addition, so this is bit for bit the impurity
    ``1 - sum(p * p)`` of ``p = counts / counts.sum()``.
    """
    p0 = zeros / total
    p1 = ones / total
    return 1.0 - (p0 * p0 + p1 * p1)


def check_tree_params(max_depth: int, min_samples_leaf: int,
                      max_features: Optional[int]) -> None:
    """Raise :class:`TrainingError` on an unusable per-tree setting."""
    if max_depth < 1:
        raise TrainingError(f"max_depth must be >= 1: {max_depth!r}")
    if min_samples_leaf < 1:
        raise TrainingError(
            f"min_samples_leaf must be >= 1: {min_samples_leaf!r}")
    if max_features is not None and max_features < 1:
        raise TrainingError(
            f"max_features must be None or >= 1: {max_features!r}")


def check_finite(X: np.ndarray) -> None:
    """Raise :class:`TrainingError` naming the first non-finite column.

    NaN never compares equal to itself nor ``<=`` a threshold, so it
    would slip between "equal" values in the split search and always
    descend right; no FC feature is ever non-finite.
    """
    bad = np.flatnonzero(~np.isfinite(X).all(axis=0))
    if bad.size:
        raise TrainingError(
            f"X column {int(bad[0])} holds NaN or infinite values")


class DecisionTree:
    """CART binary classifier (labels 0/1, 1 = fake).

    Parameters
    ----------
    max_depth:
        Maximum tree depth (root = depth 0).
    min_samples_split:
        Minimum samples required to attempt a split.
    min_samples_leaf:
        Minimum samples each child must retain.
    max_features:
        Features considered per split; ``None`` = all (plain CART),
        an int enables the random-subspace behaviour used by forests.
    seed:
        RNG seed for feature subsampling (unused when ``max_features``
        is ``None``).
    """

    def __init__(self, max_depth: int = 8, min_samples_split: int = 2,
                 min_samples_leaf: int = 1,
                 max_features: Optional[int] = None, seed: int = 0) -> None:
        check_tree_params(max_depth, min_samples_leaf, max_features)
        if min_samples_split < 2:
            raise TrainingError(
                f"min_samples_split must be >= 2: {min_samples_split!r}")
        self._max_depth = max_depth
        self._min_samples_split = min_samples_split
        self._min_samples_leaf = min_samples_leaf
        self._max_features = max_features
        self._rng = np.random.default_rng(seed)
        self._root: Optional[_Node] = None
        self._n_features = 0
        self._nodes: Optional[_Nodes] = None
        self._program: Optional[Descent] = None

    # -- training -----------------------------------------------------------

    def fit(self, X: np.ndarray, y: np.ndarray) -> "DecisionTree":
        """Grow the tree on a design matrix and 0/1 labels."""
        X = np.asarray(X, dtype=np.float64)
        y = np.asarray(y, dtype=np.int64)
        if X.ndim != 2:
            raise TrainingError(f"X must be 2-D, got shape {X.shape}")
        if y.shape != (X.shape[0],):
            raise TrainingError("y length must match X rows")
        if X.shape[0] == 0:
            raise TrainingError("cannot fit on an empty dataset")
        check_finite(X)
        if not set(np.unique(y)) <= {0, 1}:
            raise TrainingError("labels must be 0/1")
        self._n_features = X.shape[1]
        self._root = self._grow(X, y, depth=0)
        self._nodes = self._compile()
        self._program = Descent([self])
        return self

    def _leaf(self, y: np.ndarray) -> _Node:
        positives = int(y.sum())
        total = len(y)
        probability = positives / total if total else 0.0
        return _Node(prediction=int(probability >= 0.5), probability=probability)

    def _candidate_features(self) -> np.ndarray:
        if self._max_features is None or self._max_features >= self._n_features:
            return np.arange(self._n_features)
        return self._rng.choice(
            self._n_features, size=self._max_features, replace=False)

    def _grow(self, X: np.ndarray, y: np.ndarray, depth: int) -> _Node:
        if (depth >= self._max_depth
                or len(y) < self._min_samples_split
                or len(np.unique(y)) == 1):
            return self._leaf(y)
        split = self._best_split(X, y)
        if split is None:
            return self._leaf(y)
        feature, threshold = split
        mask = X[:, feature] <= threshold
        node = self._leaf(y)
        node.feature = feature
        node.threshold = threshold
        node.left = self._grow(X[mask], y[mask], depth + 1)
        node.right = self._grow(X[~mask], y[~mask], depth + 1)
        return node

    def _best_split(self, X: np.ndarray, y: np.ndarray):
        """Best Gini split over the candidate features, or ``None``.

        One vectorised scan per feature: sort its values once, take
        prefix class counts, and score every legal cut (each child keeps
        at least ``min_samples_leaf`` samples, and no cut falls between
        equal values) as arrays.  The float operations are those of the
        exhaustive per-threshold loop, in the same order, so the first
        maximal cut it picks -- kept only when strictly better than the
        best so far, earlier features winning ties -- is the loop's
        exact choice, and trained trees are bit-identical to it.
        """
        n = len(y)
        parent_zeros, parent_ones = np.bincount(y, minlength=2)
        parent_impurity = _gini(parent_zeros, parent_ones, n)
        best_gain = 1e-12
        best = None
        # Left child = first ``cut`` sorted samples; min_samples_leaf >= 1
        # keeps every cut strictly inside (0, n).
        cuts = np.arange(self._min_samples_leaf,
                         n - self._min_samples_leaf + 1)
        for feature in self._candidate_features():
            order = np.argsort(X[:, feature], kind="mergesort")
            values = X[order, feature]
            cut = cuts[values[cuts - 1] != values[cuts]]
            if cut.size == 0:
                continue
            ones = np.cumsum(y[order])
            left_ones = ones[cut - 1]
            right_ones = ones[-1] - left_ones
            weighted = (cut * _gini(cut - left_ones, left_ones, cut)
                        + (n - cut) * _gini(
                            (n - cut) - right_ones, right_ones, n - cut)) / n
            gain = parent_impurity - weighted
            index = int(np.argmax(gain))
            if gain[index] > best_gain:
                best_gain = gain[index]
                i = cut[index]
                best = (int(feature),
                        float((values[i - 1] + values[i]) / 2.0))
        return best

    # -- inference -----------------------------------------------------------

    def _compile(self) -> _Nodes:
        """The fitted tree as a node table for :class:`Descent`."""
        flat = self.flatten()
        feature = np.array(flat["feature"], dtype=np.int64)
        is_leaf = feature < 0
        nodes = np.arange(len(feature), dtype=np.int64)
        return _Nodes(
            feature=np.where(is_leaf, 0, feature),
            threshold=np.where(is_leaf, np.inf, flat["threshold"]),
            children=np.stack([np.where(is_leaf, nodes, flat["left"]),
                               np.where(is_leaf, nodes, flat["right"])],
                              axis=1),
            probability=np.array(flat["probability"], dtype=np.float64),
            depth=self.depth())

    def _fitted(self) -> Descent:
        if self._program is None:
            raise TrainingError("tree is not fitted")
        return self._program

    def predict(self, X: np.ndarray) -> np.ndarray:
        """Predict 0/1 labels for each row."""
        return self._fitted().predict(X)

    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        """Leaf-frequency probability of the positive (fake) class."""
        return self._fitted().predict_proba(X)

    # -- introspection --------------------------------------------------------

    @property
    def n_features(self) -> int:
        """Design-matrix width the tree was fitted on (0 if unfitted)."""
        return self._n_features

    def flatten(self) -> Dict[str, List]:
        """The fitted tree as parallel node lists, in preorder.

        ``feature`` holds ``-1`` at leaves; ``left``/``right`` are node
        indices into the same lists (``-1`` at leaves).  The values are
        exactly the fitted node fields; inference descends arrays built
        from them.
        """
        if self._root is None:
            raise TrainingError("tree is not fitted")
        feature: List[int] = []
        threshold: List[float] = []
        probability: List[float] = []
        prediction: List[int] = []
        left: List[int] = []
        right: List[int] = []

        def add(node: _Node) -> int:
            index = len(feature)
            feature.append(-1 if node.feature is None else int(node.feature))
            threshold.append(float(node.threshold))
            probability.append(float(node.probability))
            prediction.append(int(node.prediction))
            left.append(-1)
            right.append(-1)
            if node.feature is not None:
                left[index] = add(node.left)
                right[index] = add(node.right)
            return index

        add(self._root)
        return {"feature": feature, "threshold": threshold,
                "probability": probability, "prediction": prediction,
                "left": left, "right": right}

    def depth(self) -> int:
        """Actual depth of the fitted tree."""
        def walk(node: Optional[_Node]) -> int:
            if node is None or node.is_leaf():
                return 0
            return 1 + max(walk(node.left), walk(node.right))
        if self._root is None:
            raise TrainingError("tree is not fitted")
        return walk(self._root)

    def feature_importances(self) -> np.ndarray:
        """Split-count importance per feature (normalised to sum 1)."""
        if self._root is None:
            raise TrainingError("tree is not fitted")
        counts = np.zeros(self._n_features, dtype=np.float64)

        def walk(node: Optional[_Node]) -> None:
            if node is None or node.is_leaf():
                return
            counts[node.feature] += 1
            walk(node.left)
            walk(node.right)

        walk(self._root)
        total = counts.sum()
        return counts / total if total else counts

    def rules(self) -> List[str]:
        """Human-readable decision paths (for documentation and debugging)."""
        if self._root is None:
            raise TrainingError("tree is not fitted")
        lines: List[str] = []

        def walk(node: _Node, prefix: str) -> None:
            if node.is_leaf():
                lines.append(
                    f"{prefix} => {'fake' if node.prediction else 'genuine'} "
                    f"(p={node.probability:.2f})")
                return
            walk(node.left, f"{prefix} [f{node.feature} <= {node.threshold:.3g}]")
            walk(node.right, f"{prefix} [f{node.feature} > {node.threshold:.3g}]")

        walk(self._root, "")
        return lines
