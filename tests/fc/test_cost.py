"""Unit tests for the crawling-cost model and cost-aware selection."""

import pytest

from repro.core import ConfigurationError
from repro.fc import (
    FULL_FEATURE_SET,
    PROFILE_FEATURE_SET,
    feature_crawl_cost,
    rank_by_cost,
    select_under_budget,
    train_detector,
)


class TestCrawlCost:
    def test_class_a_needs_only_lookups(self):
        cost = feature_crawl_cost(PROFILE_FEATURE_SET, 9604)
        assert cost.lookup_requests == 97
        assert cost.timeline_requests == 0

    def test_class_b_adds_one_timeline_per_account(self):
        cost = feature_crawl_cost(FULL_FEATURE_SET, 9604)
        assert cost.timeline_requests == 9604

    def test_class_b_is_orders_of_magnitude_slower(self):
        fast = feature_crawl_cost(PROFILE_FEATURE_SET, 9604)
        slow = feature_crawl_cost(FULL_FEATURE_SET, 9604)
        # Profile-only: ~3 min.  With timelines: >13 hours of budget.
        assert fast.seconds < 300
        assert slow.seconds > 40_000

    def test_zero_accounts(self):
        cost = feature_crawl_cost(PROFILE_FEATURE_SET, 0)
        assert cost.seconds == 0.0

    def test_negative_accounts_rejected(self):
        with pytest.raises(ConfigurationError):
            feature_crawl_cost(PROFILE_FEATURE_SET, -1)


class TestCostAwareSelection:
    @pytest.fixture(scope="class")
    def candidates(self, gold):
        return [
            train_detector(gold, feature_set=PROFILE_FEATURE_SET,
                           model="tree", seed=1),
            train_detector(gold, feature_set=FULL_FEATURE_SET,
                           model="forest", seed=1),
        ]

    def test_rank_sorted_by_quality(self, candidates, gold):
        rows = rank_by_cost(candidates, gold, accounts=9604)
        assert len(rows) == 2
        assert rows[0].mcc >= rows[1].mcc

    def test_tight_budget_forces_class_a(self, candidates, gold):
        chosen = select_under_budget(
            candidates, gold, accounts=9604, budget_seconds=240)
        assert chosen.cost.timeline_requests == 0

    def test_loose_budget_allows_best(self, candidates, gold):
        chosen = select_under_budget(
            candidates, gold, accounts=9604, budget_seconds=10**9)
        rows = rank_by_cost(candidates, gold, accounts=9604)
        assert chosen.mcc == rows[0].mcc

    def test_impossible_budget_rejected(self, candidates, gold):
        with pytest.raises(ConfigurationError):
            select_under_budget(
                candidates, gold, accounts=9604, budget_seconds=0.001)

    def test_invalid_budget_rejected(self, candidates, gold):
        with pytest.raises(ConfigurationError):
            select_under_budget(
                candidates, gold, accounts=9604, budget_seconds=0)
