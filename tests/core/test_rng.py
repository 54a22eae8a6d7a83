"""Unit and property tests for seed derivation and distributions."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.core import (
    ConfigurationError,
    WeightedTable,
    derive_seed,
    make_rng,
    poisson_quantile,
)

from . import rng_oracle


def weighted_choice(rng, items, weights):
    """One weighted pick: a :class:`WeightedTable` built for one draw."""
    return WeightedTable(items, weights).pick(rng)


def poisson(rng, lam):
    """One Poisson count from one uniform of ``rng``, by inverse CDF."""
    return poisson_quantile(lam, rng.random())


class TestDeriveSeed:
    def test_stable(self):
        assert derive_seed(42, "a", 1) == derive_seed(42, "a", 1)

    def test_distinct_paths_distinct_seeds(self):
        seeds = {derive_seed(42, "p", index) for index in range(1000)}
        assert len(seeds) == 1000

    def test_distinct_masters_distinct_seeds(self):
        assert derive_seed(1, "x") != derive_seed(2, "x")

    @given(st.integers(), st.text(max_size=20))
    def test_property_in_64_bit_range(self, master, label):
        assert 0 <= derive_seed(master, label) < 2 ** 64


class TestMakeRng:
    def test_deterministic(self):
        assert make_rng(5, "x").random() == make_rng(5, "x").random()

    def test_path_changes_stream(self):
        assert make_rng(5, "x").random() != make_rng(5, "y").random()


class TestDeriveSeedPayload:
    @pytest.mark.parametrize("master", [0, 42, -17, 2**63, 2**64 + 3, True,
                                        np.int64(7), 3.9])
    @pytest.mark.parametrize("path", [
        (), ("a",), ("persona", 0, 5), ("it's", 'say "hi"', "back\\slash"),
        ("\u00fcn\u00ef", "\n\t", ""), (1, 2.5, None, True, -3),
        (np.int64(3), np.int64(2**40)), ("x",) * 6,
    ])
    def test_same_seed_as_the_repr_of_a_tuple(self, master, path):
        assert derive_seed(master, *path) == \
            rng_oracle.derive_seed(master, *path)

    @given(st.integers(min_value=-2**70, max_value=2**70),
           st.lists(st.one_of(st.text(), st.integers()), max_size=5))
    def test_property_same_seed(self, master, path):
        assert derive_seed(master, *path) == \
            rng_oracle.derive_seed(master, *path)


class TestWeightedTable:
    @given(st.lists(st.one_of(st.floats(min_value=0.0, max_value=10.0),
                              st.integers(min_value=0, max_value=5)),
                    min_size=1, max_size=8).filter(lambda ws: sum(ws) > 0),
           st.integers(min_value=0, max_value=2**32))
    def test_property_picks_match_the_running_sum(self, weights, seed):
        items = [f"item{index}" for index in range(len(weights))]
        table = WeightedTable(items, weights)
        ours, theirs = make_rng(seed), make_rng(seed)
        for _ in range(20):
            assert table.pick(ours) == \
                rng_oracle.weighted_choice(theirs, items, weights)
            assert weighted_choice(ours, items, weights) == \
                rng_oracle.weighted_choice(theirs, items, weights)

    @pytest.mark.parametrize("items,weights", [
        (["a"], [1.0, 2.0]), ([], []), (["a", "b"], [1.0, -1.0]),
        (["a", "b"], [0.0, 0.0]),
    ])
    def test_invalid_tables_rejected(self, items, weights):
        with pytest.raises(ConfigurationError):
            WeightedTable(items, weights)


class TestWeightedChoice:
    def test_zero_weight_never_chosen(self):
        rng = make_rng(5)
        picks = {weighted_choice(rng, ["a", "b"], [1.0, 0.0])
                 for _ in range(200)}
        assert picks == {"a"}

    def test_roughly_proportional(self):
        rng = make_rng(6)
        picks = [weighted_choice(rng, ["a", "b"], [3.0, 1.0])
                 for _ in range(4000)]
        share = picks.count("a") / len(picks)
        assert 0.70 <= share <= 0.80

    def test_length_mismatch(self):
        with pytest.raises(ConfigurationError):
            weighted_choice(make_rng(1), ["a"], [1.0, 2.0])

    def test_empty_items(self):
        with pytest.raises(ConfigurationError):
            weighted_choice(make_rng(1), [], [])

    def test_negative_weight(self):
        with pytest.raises(ConfigurationError):
            weighted_choice(make_rng(1), ["a", "b"], [1.0, -1.0])


class TestPoisson:
    def test_zero_lambda(self):
        assert poisson(make_rng(1), 0.0) == 0

    def test_negative_lambda_rejected(self):
        with pytest.raises(ConfigurationError):
            poisson(make_rng(1), -1.0)

    @pytest.mark.parametrize("lam", [0.5, 4.0, 80.0])
    def test_mean_close_to_lambda(self, lam):
        rng = make_rng(7, lam)
        draws = [poisson(rng, lam) for _ in range(3000)]
        mean = sum(draws) / len(draws)
        assert abs(mean - lam) < max(0.2, 0.1 * lam)

    def test_always_non_negative(self):
        rng = make_rng(8)
        assert all(poisson(rng, 50.0) >= 0 for _ in range(500))

    @pytest.mark.parametrize("lam", [0.5, 4.0, 80.0, 2000.0])
    def test_quantile_is_the_inverse_cdf(self, lam):
        """Each count is the first whose running mass passes the draw,
        and counts never fall as the draw grows."""
        import math
        counts = [poisson_quantile(lam, index / 200) for index in range(200)]
        assert counts == sorted(counts)
        for index, count in enumerate(counts):
            below = sum(math.exp(k * math.log(lam) - lam - math.lgamma(k + 1))
                        for k in range(count))
            assert below <= index / 200 < below + math.exp(
                count * math.log(lam) - lam - math.lgamma(count + 1))
