"""Reference oracle for the tree's split search: a per-threshold loop.

Production scores every legal threshold of a feature in one vectorised
array pass (``DecisionTree._best_split``).  This oracle searches the way
CART is specified: for each candidate feature, sort, then visit every
cut in Python, skip cuts between equal values, build the two children's
class-count vectors and call a Gini function on each.  A running best is
replaced only by a strictly greater gain.  Tests train trees with both
and require the flattened trees to match bit for bit.
"""

from __future__ import annotations

import numpy as np

from repro.fc import DecisionTree


def gini(counts: np.ndarray) -> float:
    """Gini impurity of a class-count vector."""
    total = counts.sum()
    if total == 0:
        return 0.0
    p = counts / total
    return float(1.0 - np.sum(p * p))


def best_split(tree: DecisionTree, X: np.ndarray, y: np.ndarray):
    """Exhaustive Gini search, one threshold at a time."""
    parent_impurity = gini(np.bincount(y, minlength=2).astype(np.float64))
    best_gain = 1e-12
    best = None
    n = len(y)
    leaf = tree._min_samples_leaf
    for feature in tree._candidate_features():
        order = np.argsort(X[:, feature], kind="mergesort")
        values = X[order, feature]
        labels = y[order]
        # Prefix class counts: left split = first i samples.
        ones = np.cumsum(labels)
        total_ones = ones[-1]
        for i in range(leaf, n - leaf + 1):
            if i == n or values[i - 1] == values[i]:
                continue  # cannot cut between equal values
            left_ones = ones[i - 1]
            left_counts = np.array(
                [i - left_ones, left_ones], dtype=np.float64)
            right_counts = np.array(
                [(n - i) - (total_ones - left_ones),
                 total_ones - left_ones], dtype=np.float64)
            weighted = (i * gini(left_counts)
                        + (n - i) * gini(right_counts)) / n
            gain = parent_impurity - weighted
            if gain > best_gain:
                best_gain = gain
                best = (int(feature),
                        float((values[i - 1] + values[i]) / 2.0))
    return best


class OracleTree(DecisionTree):
    """A :class:`DecisionTree` whose split search is the oracle loop."""

    _best_split = best_split


def exact(tree: DecisionTree) -> dict:
    """``tree.flatten()`` with every float as its hex spelling."""
    flat = tree.flatten()
    for key in ("threshold", "probability"):
        flat[key] = [value.hex() for value in flat[key]]
    return flat
