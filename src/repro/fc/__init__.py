"""The Fake Project classifier: features, learners, baselines, engine."""

from .columnar import BatchClassifier, FeatureCache, batch_classifier
from .cost import (
    CandidateCost,
    CrawlCost,
    feature_crawl_cost,
    rank_by_cost,
    select_under_budget,
)
from .dataset import GoldStandard, build_gold_standard
from .engine import (
    FC_INACTIVITY_HORIZON,
    FC_SAMPLE_SIZE,
    FakeClassifierEngine,
    default_detector,
)
from .features import (
    CLASS_A,
    CLASS_B,
    FEATURES,
    FEATURES_BY_NAME,
    Feature,
    FeatureSet,
    FULL_FEATURE_SET,
    PROFILE_FEATURE_SET,
)
from .forest import RandomForest
from .metrics import ConfusionMatrix, confusion
from .rulesets import (
    BASELINE_RULESETS,
    CamisaniCalzolariRules,
    RuleSet,
    RuleVerdict,
    SocialbakersCriteria,
    StateOfSearchSignals,
)
from .training import (
    TrainedDetector,
    TrainingReport,
    compare_approaches,
    evaluate_detector,
    evaluate_ruleset,
    train_and_evaluate,
    train_detector,
)
from .tree import DecisionTree

__all__ = [
    "BASELINE_RULESETS",
    "BatchClassifier",
    "CLASS_A",
    "CLASS_B",
    "CamisaniCalzolariRules",
    "CandidateCost",
    "ConfusionMatrix",
    "CrawlCost",
    "DecisionTree",
    "FC_INACTIVITY_HORIZON",
    "FC_SAMPLE_SIZE",
    "FEATURES",
    "FEATURES_BY_NAME",
    "FakeClassifierEngine",
    "Feature",
    "FeatureCache",
    "FeatureSet",
    "FULL_FEATURE_SET",
    "GoldStandard",
    "PROFILE_FEATURE_SET",
    "RandomForest",
    "RuleSet",
    "RuleVerdict",
    "SocialbakersCriteria",
    "StateOfSearchSignals",
    "TrainedDetector",
    "TrainingReport",
    "batch_classifier",
    "build_gold_standard",
    "compare_approaches",
    "confusion",
    "default_detector",
    "evaluate_detector",
    "evaluate_ruleset",
    "feature_crawl_cost",
    "rank_by_cost",
    "select_under_budget",
    "train_and_evaluate",
    "train_detector",
]
