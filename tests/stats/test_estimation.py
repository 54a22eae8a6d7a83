"""Unit and property tests for proportion estimation."""

import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import ConfigurationError
from repro.stats import (
    ProportionEstimate,
    Z_95,
    Z_99,
    achieved_margin,
    required_sample_size,
    z_critical,
)


class TestZCritical:
    def test_paper_values(self):
        assert z_critical(0.95) == Z_95 == 1.96
        assert z_critical(0.99) == Z_99 == 2.58

    def test_other_levels_via_erfinv(self):
        assert z_critical(0.80) == pytest.approx(1.2816, abs=0.01)

    def test_bounds(self):
        with pytest.raises(ConfigurationError):
            z_critical(0.0)
        with pytest.raises(ConfigurationError):
            z_critical(1.0)


class TestProportionEstimate:
    def test_point_estimate_and_sigma(self):
        est = ProportionEstimate(positives=300, sample_size=1000)
        assert est.p_hat == 0.3
        assert est.std_error == pytest.approx(
            math.sqrt(0.3 * 0.7 / 1000))

    def test_wald_interval_paper_formula(self):
        est = ProportionEstimate(positives=500, sample_size=1000)
        low, high = est.wald_interval(0.95)
        half = 1.96 * est.std_error
        assert low == pytest.approx(0.5 - half)
        assert high == pytest.approx(0.5 + half)

    def test_wald_clipped_to_unit_interval(self):
        est = ProportionEstimate(positives=0, sample_size=10)
        low, high = est.wald_interval()
        assert low == 0.0 and high <= 1.0

    def test_wilson_inside_unit_interval_at_extremes(self):
        est = ProportionEstimate(positives=0, sample_size=10)
        low, high = est.wilson_interval()
        assert 0.0 <= low < high <= 1.0
        assert high > 0.0  # Wilson is informative where Wald collapses

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            ProportionEstimate(positives=5, sample_size=0)
        with pytest.raises(ConfigurationError):
            ProportionEstimate(positives=11, sample_size=10)
        with pytest.raises(ConfigurationError):
            ProportionEstimate(positives=-1, sample_size=10)

    @given(st.integers(min_value=1, max_value=10_000), st.data())
    @settings(max_examples=60, deadline=None)
    def test_property_intervals_contain_point_estimate(self, n, data):
        positives = data.draw(st.integers(min_value=0, max_value=n))
        est = ProportionEstimate(positives, n)
        for low, high in (est.wald_interval(), est.wilson_interval()):
            assert low <= est.p_hat + 1e-12
            assert est.p_hat - 1e-12 <= high


class TestSampleSize:
    def test_paper_sample_size_is_9604(self):
        assert required_sample_size(0.01, 0.95) == 9604

    def test_99_level_needs_more(self):
        assert required_sample_size(0.01, 0.99) > 9604

    def test_smaller_margin_needs_more(self):
        assert required_sample_size(0.005) > required_sample_size(0.01)

    def test_off_centre_p_needs_fewer(self):
        assert required_sample_size(0.01, p=0.1) < 9604

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            required_sample_size(0.0)
        with pytest.raises(ConfigurationError):
            required_sample_size(0.01, p=1.5)

    def test_achieved_margin_inverse(self):
        assert achieved_margin(9604) == pytest.approx(0.01, abs=1e-4)
        assert achieved_margin(700) == pytest.approx(0.037, abs=0.001)

    @given(st.floats(min_value=0.005, max_value=0.2))
    @settings(max_examples=40)
    def test_property_required_size_achieves_margin(self, margin):
        n = required_sample_size(margin)
        assert achieved_margin(n) <= margin + 1e-12
        if n > 1:
            assert achieved_margin(n - 1) > margin
