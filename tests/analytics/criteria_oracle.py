"""Reference oracle for the engines' criteria: a per-account loop.

Production classifies a whole sample through each criteria's columnar
mask pipeline (``classify_all`` builds a ``SampleBlock`` and runs
``classify_block``).  This oracle classifies the way the published rules
read: one account at a time through the criteria's per-account
``classify``/``explain`` spec, with Twitteraudit's chart aggregates
summed from ``real_score`` and the FC pipeline run as the 90-day
horizon followed, per active account, by the per-row feature oracle
(``tests/fc/feature_oracle.py``) and a recursive descent of the
detector's trees (``tests/fc/tree_oracle.py``).  Tests check the
columnar path against it bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.analytics.twitteraudit import TwitterauditCriteria, real_score
from repro.fc.engine import FC_INACTIVITY_HORIZON

from ..fc import feature_oracle, tree_oracle


@dataclass
class OracleVerdicts:
    """Per-account labels, codes and rule fires of one oracle pass."""

    labels: tuple
    codes: List[int]
    fires: Dict[str, List[bool]]
    extras: Dict[str, object] = field(default_factory=dict)

    def counts(self) -> Dict[str, int]:
        """Verdict tallies as ``{label: count}`` in label order."""
        return {label: self.codes.count(code)
                for code, label in enumerate(self.labels)}


def _pairs(users, timelines):
    if timelines is None:
        return [(user, None) for user in users]
    return list(zip(users, timelines))


def classify(criteria, users: Sequence, timelines: Optional[Sequence],
             now: float) -> OracleVerdicts:
    """Run ``criteria.explain`` (checked against ``classify``) per account."""
    index = {label: code for code, label in enumerate(criteria.labels)}
    codes: List[int] = []
    fires: Dict[str, List[bool]] = {rule: [] for rule in criteria.rule_ids}
    for user, timeline in _pairs(users, timelines):
        label, fired = criteria.explain(user, timeline, now)
        assert label == criteria.classify(user, timeline, now)
        assert set(fired) <= set(criteria.rule_ids)
        codes.append(index[label])
        for rule in criteria.rule_ids:
            fires[rule].append(rule in fired)
    extras: Dict[str, object] = {}
    if isinstance(criteria, TwitterauditCriteria):
        extras = twitteraudit_extras(users, now)
    return OracleVerdicts(tuple(criteria.labels), codes, fires, extras)


def twitteraudit_extras(users: Sequence, now: float) -> Dict[str, object]:
    """The three Twitteraudit chart aggregates, one account at a time."""
    histogram = {points: 0 for points in range(6)}
    quality_histogram = {decile: 0 for decile in range(10)}
    quality_sum = 0.0
    for user in users:
        score = real_score(user, now)
        histogram[min(5, int(score.total))] += 1
        quality_histogram[min(9, int(score.quality * 10))] += 1
        quality_sum += score.quality
    return {
        "real_points_histogram": histogram,
        "quality_histogram": quality_histogram,
        "quality_sum": quality_sum,
    }


def classify_fc(detector, users: Sequence, timelines: Optional[Sequence],
                now: float,
                horizon: float = FC_INACTIVITY_HORIZON) -> OracleVerdicts:
    """The FC pipeline per account: horizon first, then per-row predict."""
    labels = ("fake", "inactive", "genuine")
    codes: List[int] = []
    for user, timeline in _pairs(users, timelines):
        age = user.last_status_age(now)
        if age is None or age > horizon:
            codes.append(1)
            continue
        row = feature_oracle.extract_row(
            detector.feature_set, user, timeline, now)
        verdict = tree_oracle.predict(detector.model, row[None, :])
        codes.append(0 if int(verdict[0]) else 2)
    fires = {"fc.inactive_90d": [code == 1 for code in codes],
             "fc.classifier_fake": [code == 0 for code in codes]}
    return OracleVerdicts(labels, codes, fires)
