"""Unit and property tests for sampling schemes."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import make_rng
from repro.core.errors import SamplingError
from repro.stats import (
    head_sample,
    systematic_sample,
    uniform_sample,
)


class TestUniformSample:
    def test_distinct_and_in_range(self):
        positions = uniform_sample(make_rng(1), 1000, 100)
        assert len(set(positions)) == 100
        assert all(0 <= p < 1000 for p in positions)
        assert positions == sorted(positions)

    def test_full_census(self):
        assert uniform_sample(make_rng(1), 5, 5) == [0, 1, 2, 3, 4]

    def test_oversampling_rejected(self):
        with pytest.raises(SamplingError):
            uniform_sample(make_rng(1), 10, 11)

    def test_covers_whole_range_on_average(self):
        positions = uniform_sample(make_rng(2), 100_000, 2000)
        mean = sum(positions) / len(positions)
        assert 45_000 <= mean <= 55_000

    @given(st.integers(min_value=1, max_value=5000), st.data())
    @settings(max_examples=40, deadline=None)
    def test_property_valid_sample(self, population, data):
        n = data.draw(st.integers(min_value=1, max_value=population))
        positions = uniform_sample(make_rng(7), population, n)
        assert len(positions) == n == len(set(positions))
        assert all(0 <= p < population for p in positions)


class TestHeadSample:
    def test_takes_newest_positions(self):
        assert head_sample(100, 3) == [97, 98, 99]

    def test_full_head(self):
        assert head_sample(5, 5) == [0, 1, 2, 3, 4]

    def test_validation(self):
        with pytest.raises(SamplingError):
            head_sample(10, 0)
        with pytest.raises(SamplingError):
            head_sample(10, 11)


class TestSystematicSample:
    def test_even_spacing(self):
        assert systematic_sample(100, 4) == [0, 25, 50, 75]

    def test_offset(self):
        assert systematic_sample(100, 4, start=10) == [10, 35, 60, 85]

    def test_invalid_start(self):
        with pytest.raises(SamplingError):
            systematic_sample(100, 4, start=100)
