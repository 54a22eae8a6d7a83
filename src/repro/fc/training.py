"""Training and evaluation pipeline for fake-follower detectors.

Reproduces the methodology of [12] summarised in the paper's Section
III: train candidate classifiers on the gold standard, evaluate the
literature's rule sets on the same data, and conclude that (1) single
classification rules do not succeed, while (2) spam-detection feature
sets transfer well to fake-follower detection.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Union

import numpy as np

from ..api.endpoints import UserObject
from ..core.errors import TrainingError
from ..twitter.tweet import Tweet
from .dataset import GoldStandard
from .features import FeatureSet, FULL_FEATURE_SET, PROFILE_FEATURE_SET
from .forest import RandomForest
from .metrics import ConfusionMatrix, confusion
from .rulesets import BASELINE_RULESETS, RuleSet
from .tree import DecisionTree

Model = Union[DecisionTree, RandomForest]


@dataclass(frozen=True)
class TrainingReport:
    """Held-out evaluation of one trained detector."""

    detector_name: str
    feature_names: Sequence[str]
    train_size: int
    test_size: int
    matrix: ConfusionMatrix

    @property
    def accuracy(self) -> float:
        """Held-out accuracy."""
        return self.matrix.accuracy

    @property
    def mcc(self) -> float:
        """Held-out Matthews correlation coefficient."""
        return self.matrix.mcc


class TrainedDetector:
    """A fitted model bound to its feature set.

    This is the unit the FC engine consumes: give it profiles (and
    timelines when the feature set needs them) and it returns 0/1
    fake verdicts.
    """

    def __init__(self, name: str, feature_set: FeatureSet, model: Model) -> None:
        self.name = name
        self.feature_set = feature_set
        self._model = model

    @property
    def needs_timeline(self) -> bool:
        """Whether prediction requires timelines (class-B features)."""
        return self.feature_set.needs_timeline()

    @property
    def model(self) -> Model:
        """The fitted underlying model."""
        return self._model

    def predict(self, users: Sequence[UserObject],
                timelines: Optional[Sequence[Optional[Sequence[Tweet]]]],
                now: float) -> np.ndarray:
        """0/1 fake verdicts for each user."""
        if not users:
            return np.empty(0, dtype=np.int64)
        X = self.feature_set.extract_matrix(users, timelines, now)
        return self._model.predict(X)

    def predict_proba(self, users: Sequence[UserObject],
                      timelines: Optional[Sequence[Optional[Sequence[Tweet]]]],
                      now: float) -> np.ndarray:
        """Fake probability for each user."""
        if not users:
            return np.empty(0, dtype=np.float64)
        X = self.feature_set.extract_matrix(users, timelines, now)
        return self._model.predict_proba(X)


def train_detector(
        gold: GoldStandard,
        *,
        feature_set: FeatureSet = PROFILE_FEATURE_SET,
        model: str = "forest",
        seed: int = 0,
        max_depth: int = 8,
        n_trees: int = 25,
) -> TrainedDetector:
    """Fit a detector on the *whole* gold standard.

    Use :func:`train_and_evaluate` when a held-out score is needed.
    """
    X = gold.design_matrix(feature_set)
    y = gold.labels()
    if model == "tree":
        fitted: Model = DecisionTree(max_depth=max_depth, seed=seed).fit(X, y)
    elif model == "forest":
        fitted = RandomForest(
            n_trees=n_trees, max_depth=max_depth, seed=seed).fit(X, y)
    else:
        raise TrainingError(f"unknown model kind: {model!r}")
    name = f"{model}[{'B' if feature_set.needs_timeline() else 'A'}]"
    return TrainedDetector(name, feature_set, fitted)


def evaluate_detector(detector: TrainedDetector,
                      gold: GoldStandard) -> ConfusionMatrix:
    """Confusion matrix of a trained detector on a gold standard."""
    predictions = detector.predict(
        gold.users(),
        gold.timelines() if detector.needs_timeline else None,
        gold.now,
    )
    return confusion(gold.labels(), predictions)


def evaluate_ruleset(ruleset: RuleSet, gold: GoldStandard) -> ConfusionMatrix:
    """Confusion matrix of a rule-based baseline on a gold standard."""
    predictions = ruleset.predict(
        gold.users(), gold.timelines(), gold.now)
    return confusion(gold.labels(), predictions)


def train_and_evaluate(
        gold: GoldStandard,
        *,
        feature_set: FeatureSet = PROFILE_FEATURE_SET,
        model: str = "forest",
        train_fraction: float = 0.7,
        seed: int = 0,
) -> tuple:
    """Split, fit on train, score on test.  Returns (detector, report)."""
    train, test = gold.split(train_fraction=train_fraction, seed=seed)
    detector = train_detector(
        train, feature_set=feature_set, model=model, seed=seed)
    matrix = evaluate_detector(detector, test)
    report = TrainingReport(
        detector_name=detector.name,
        feature_names=feature_set.names,
        train_size=len(train),
        test_size=len(test),
        matrix=matrix,
    )
    return detector, report


def compare_approaches(gold: GoldStandard,
                       seed: int = 0) -> Dict[str, ConfusionMatrix]:
    """The A3 ablation: rule sets vs trained classifiers, same data.

    Rule sets are scored on the full gold standard (they have no
    training phase); learned models are scored on a held-out split.
    """
    results: Dict[str, ConfusionMatrix] = {}
    for ruleset in BASELINE_RULESETS:
        results[f"rules:{ruleset.name}"] = evaluate_ruleset(ruleset, gold)
    for feature_set, tag in ((PROFILE_FEATURE_SET, "A"),
                             (FULL_FEATURE_SET, "A+B")):
        for model in ("tree", "forest"):
            __, report = train_and_evaluate(
                gold, feature_set=feature_set, model=model, seed=seed)
            results[f"ml:{model}[{tag}]"] = report.matrix
    return results
