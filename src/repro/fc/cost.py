"""Crawling-cost model and cost-aware classifier selection.

[12] quantifies each feature's *crawling cost* and builds "optimized
classifiers that make use of the more efficient features and rules, in
terms both of crawling cost and fake followers detection capability"
(paper, Section III).  The arithmetic is stark:

* class-A (profile) features: 100 accounts per ``users/lookup`` call at
  12 calls/min — 9604 sampled followers cost 97 requests (~8 minutes of
  budget, seconds of burst);
* class-B (timeline) features: 1 account per ``statuses/user_timeline``
  call at 12 calls/min — the same sample costs 9604 requests, over 13
  *hours* of budget.

This is why the FC engine's sub-4-minute response times in Table II are
only achievable with a class-A classifier.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Sequence

from ..api.ratelimit import DEFAULT_POLICIES, RateLimitPolicy
from ..core.errors import ConfigurationError
from .dataset import GoldStandard
from .features import FeatureSet
from .metrics import ConfusionMatrix
from .training import TrainedDetector, evaluate_detector


@dataclass(frozen=True)
class CrawlCost:
    """API cost of feature extraction for a batch of accounts."""

    accounts: int
    lookup_requests: int
    timeline_requests: int
    seconds: float


def _phase_seconds(requests: int, policy: RateLimitPolicy, latency: float,
                   credentials: int = 1) -> float:
    """Completion time of serial requests against one fresh bucket."""
    if requests <= 0:
        return 0.0
    capacity = policy.window_budget * credentials
    rate = policy.requests_per_minute * credentials / 60.0
    return max(requests * latency,
               max(0.0, requests - capacity) / rate + latency)


def feature_crawl_cost(feature_set: FeatureSet, accounts: int,
                       *, latency: float = 1.9,
                       credentials: int = 1,
                       policies=DEFAULT_POLICIES) -> CrawlCost:
    """API cost of extracting ``feature_set`` for ``accounts`` accounts.

    Every set needs profiles (batched lookups); sets containing any
    class-B feature additionally need one timeline request per account.
    """
    if accounts < 0:
        raise ConfigurationError(f"accounts must be >= 0: {accounts!r}")
    lookup_policy = policies["users/lookup"]
    timeline_policy = policies["statuses/user_timeline"]
    lookups = math.ceil(accounts / lookup_policy.elements_per_request)
    timelines = accounts if feature_set.needs_timeline() else 0
    seconds = (_phase_seconds(lookups, lookup_policy, latency, credentials)
               + _phase_seconds(timelines, timeline_policy, latency, credentials))
    return CrawlCost(
        accounts=accounts,
        lookup_requests=lookups,
        timeline_requests=timelines,
        seconds=seconds,
    )


@dataclass(frozen=True)
class CandidateCost:
    """One detector's quality/cost trade-off point (the A4 ablation rows)."""

    name: str
    matrix: ConfusionMatrix
    cost: CrawlCost

    @property
    def mcc(self) -> float:
        """The candidate's detection quality (MCC)."""
        return self.matrix.mcc


def rank_by_cost(candidates: Sequence[TrainedDetector],
                 gold: GoldStandard,
                 accounts: int,
                 *,
                 latency: float = 1.9,
                 credentials: int = 1) -> List[CandidateCost]:
    """Score each candidate on ``gold`` and cost it for ``accounts``.

    Returns rows sorted by descending detection quality (MCC).
    """
    rows = []
    for detector in candidates:
        matrix = evaluate_detector(detector, gold)
        cost = feature_crawl_cost(
            detector.feature_set, accounts,
            latency=latency, credentials=credentials)
        rows.append(CandidateCost(detector.name, matrix, cost))
    return sorted(rows, key=lambda row: row.mcc, reverse=True)


def select_under_budget(candidates: Sequence[TrainedDetector],
                        gold: GoldStandard,
                        accounts: int,
                        budget_seconds: float,
                        *,
                        latency: float = 1.9,
                        credentials: int = 1) -> CandidateCost:
    """Best-MCC candidate whose crawl finishes within ``budget_seconds``.

    This is the "optimized classifier" selection of [12]: with a
    4-minute budget and 9604 accounts, only class-A candidates qualify,
    and the best of them becomes the production FC detector.
    """
    if budget_seconds <= 0:
        raise ConfigurationError(
            f"budget_seconds must be > 0: {budget_seconds!r}")
    ranked = rank_by_cost(
        candidates, gold, accounts, latency=latency, credentials=credentials)
    for row in ranked:
        if row.cost.seconds <= budget_seconds:
            return row
    raise ConfigurationError(
        f"no candidate fits a {budget_seconds:.0f}s budget for "
        f"{accounts} accounts")
