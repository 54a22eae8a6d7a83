"""Binary-classification metrics for detector evaluation.

The FC methodology ([12]) selects features and classifiers by their
measured detection quality on a gold standard; this module provides the
standard scores: confusion matrix, accuracy, precision, recall, F1 and
Matthews correlation coefficient (MCC — the score [12] emphasises, as
it stays meaningful under class imbalance).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..core.errors import ConfigurationError


@dataclass(frozen=True)
class ConfusionMatrix:
    """2x2 confusion matrix; the positive class is "fake"."""

    tp: int
    fp: int
    tn: int
    fn: int

    def __post_init__(self) -> None:
        if min(self.tp, self.fp, self.tn, self.fn) < 0:
            raise ConfigurationError("confusion counts must be non-negative")

    @property
    def total(self) -> int:
        """Total classified examples."""
        return self.tp + self.fp + self.tn + self.fn

    @property
    def accuracy(self) -> float:
        """(TP + TN) / total."""
        if self.total == 0:
            return 0.0
        return (self.tp + self.tn) / self.total

    @property
    def precision(self) -> float:
        """TP / (TP + FP)."""
        denom = self.tp + self.fp
        return self.tp / denom if denom else 0.0

    @property
    def recall(self) -> float:
        """TP / (TP + FN)."""
        denom = self.tp + self.fn
        return self.tp / denom if denom else 0.0

    @property
    def f1(self) -> float:
        """Harmonic mean of precision and recall."""
        p, r = self.precision, self.recall
        return 2 * p * r / (p + r) if (p + r) else 0.0

    @property
    def mcc(self) -> float:
        """Matthews correlation coefficient in [-1, 1]."""
        numerator = self.tp * self.tn - self.fp * self.fn
        denominator = math.sqrt(
            float(self.tp + self.fp) * (self.tp + self.fn)
            * (self.tn + self.fp) * (self.tn + self.fn))
        return numerator / denominator if denominator else 0.0


def confusion(y_true: Sequence[int], y_pred: Sequence[int]) -> ConfusionMatrix:
    """Build the confusion matrix from 0/1 label arrays (1 = fake)."""
    truth = np.asarray(y_true, dtype=np.int64)
    pred = np.asarray(y_pred, dtype=np.int64)
    if truth.shape != pred.shape:
        raise ConfigurationError(
            f"shape mismatch: {truth.shape} vs {pred.shape}")
    bad = set(np.unique(truth)) | set(np.unique(pred))
    if not bad <= {0, 1}:
        raise ConfigurationError(f"labels must be 0/1, got {sorted(bad)!r}")
    return ConfusionMatrix(
        tp=int(np.sum((truth == 1) & (pred == 1))),
        fp=int(np.sum((truth == 0) & (pred == 1))),
        tn=int(np.sum((truth == 0) & (pred == 0))),
        fn=int(np.sum((truth == 1) & (pred == 0))),
    )
