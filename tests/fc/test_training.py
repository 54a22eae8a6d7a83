"""Unit tests for the training pipeline — including the paper's key
finding: trained classifiers beat the literature's rule sets."""

import pytest

from repro.core.errors import TrainingError
from repro.fc import (
    FULL_FEATURE_SET,
    PROFILE_FEATURE_SET,
    compare_approaches,
    evaluate_detector,
    evaluate_ruleset,
    train_and_evaluate,
    train_detector,
)
from repro.fc.rulesets import CamisaniCalzolariRules


class TestTrainDetector:
    def test_forest_on_profile_features(self, gold):
        detector = train_detector(gold, model="forest", seed=1)
        assert not detector.needs_timeline
        matrix = evaluate_detector(detector, gold)
        assert matrix.accuracy > 0.95

    def test_tree_on_full_features(self, gold):
        detector = train_detector(
            gold, feature_set=FULL_FEATURE_SET, model="tree", seed=1)
        assert detector.needs_timeline
        assert evaluate_detector(detector, gold).accuracy > 0.95

    def test_unknown_model_rejected(self, gold):
        with pytest.raises(TrainingError):
            train_detector(gold, model="svm")

    def test_predict_empty(self, gold):
        detector = train_detector(gold, seed=1)
        assert detector.predict([], None, gold.now).shape == (0,)
        assert detector.predict_proba([], None, gold.now).shape == (0,)


class TestHeldOutEvaluation:
    def test_train_and_evaluate_generalises(self, gold):
        __, report = train_and_evaluate(gold, model="forest", seed=2)
        assert report.test_size > 0
        assert report.accuracy > 0.9
        assert report.mcc > 0.8


class TestRulesVsML:
    """[12]'s conclusion: "algorithms based on classification rules do
    not succeed in detecting the fakes ... better results were achieved
    by relying on those features proposed by Academia"."""

    def test_ml_beats_every_ruleset(self, gold):
        results = compare_approaches(gold, seed=4)
        rule_scores = [m.mcc for name, m in results.items()
                       if name.startswith("rules:")]
        ml_scores = [m.mcc for name, m in results.items()
                     if name.startswith("ml:")]
        assert max(ml_scores) > max(rule_scores)
        assert min(ml_scores) > 0.7

    def test_compare_covers_all_approaches(self, gold):
        results = compare_approaches(gold, seed=4)
        assert {"rules:camisani-calzolari", "rules:socialbakers",
                "rules:stateofsearch"} <= set(results)
        assert {"ml:tree[A]", "ml:forest[A]",
                "ml:tree[A+B]", "ml:forest[A+B]"} <= set(results)

    def test_ruleset_evaluation_runs(self, gold):
        matrix = evaluate_ruleset(CamisaniCalzolariRules(), gold)
        assert matrix.total == len(gold)
