"""Unit tests for head-sampling bias quantification."""

import pytest

from repro.core.errors import SamplingError
from repro.stats import (
    gradient_head_bias,
    head_sampling_bias,
    purchased_burst_rates,
)


class TestPurchasedBurstRates:
    def test_paper_worked_example(self):
        """100K genuine + 10K bought, 1K head: 100% vs ~9% (Sec. II-A)."""
        report = purchased_burst_rates(100_000, 10_000, head_size=1000)
        assert report.head_rate == 1.0
        assert report.whole_rate == pytest.approx(10_000 / 110_000)
        assert report.absolute_bias == pytest.approx(0.909, abs=0.001)

    def test_head_larger_than_burst_dilutes(self):
        report = purchased_burst_rates(100_000, 10_000, head_size=35_000)
        assert report.head_rate == pytest.approx(10_000 / 35_000)

    def test_no_purchase_no_bias(self):
        report = purchased_burst_rates(1000, 0, head_size=100)
        assert report.head_rate == 0.0

    def test_validation(self):
        with pytest.raises(SamplingError):
            purchased_burst_rates(-1, 10, head_size=1)
        with pytest.raises(SamplingError):
            purchased_burst_rates(0, 0, head_size=1)
        with pytest.raises(SamplingError):
            purchased_burst_rates(10, 10, head_size=0)


class TestHeadSamplingBias:
    def test_gradient_population(self):
        """Property present only in the first half of arrivals."""
        report = head_sampling_bias(
            lambda position: position < 500, 1000, head_size=100)
        assert report.whole_rate == 0.5
        assert report.head_rate == 0.0
        assert report.absolute_bias == -0.5

    def test_subset_frame_estimation(self):
        report = head_sampling_bias(
            lambda position: position % 2 == 0, 1000, head_size=10,
            positions=range(0, 1000, 10))
        assert report.whole_rate == 1.0  # every 10th is even
        assert report.head_rate == 0.5

    def test_validation(self):
        with pytest.raises(SamplingError):
            head_sampling_bias(lambda p: True, 0, 1)
        with pytest.raises(SamplingError):
            head_sampling_bias(lambda p: True, 10, 11)
        with pytest.raises(SamplingError):
            head_sampling_bias(lambda p: True, 10, 5, positions=[])
        with pytest.raises(SamplingError):
            head_sampling_bias(lambda p: True, 10, 5, positions=[10])


class TestGradientClosedForm:
    def test_zero_tilt_no_bias(self):
        assert gradient_head_bias(0.4, 0.0, 0.1) == 0.0

    def test_full_frame_no_bias(self):
        assert gradient_head_bias(0.4, 0.5, 1.0) == pytest.approx(0.0)

    def test_head_underestimates_inactivity(self):
        bias = gradient_head_bias(0.4, 0.5, 0.05)
        assert bias == pytest.approx(-0.19)

    def test_matches_empirical_gradient(self):
        """Closed form agrees with a discrete linear-gradient population."""
        base, tilt, n = 0.4, 0.5, 200_000
        head = 10_000

        def rate_at(position):
            x = position / (n - 1)
            return base * (1 + tilt * (1 - 2 * x))

        # Deterministic thinning: property 'true' with probability rate.
        def property_at(position):
            return (position * 2654435761 % 2**32) / 2**32 < rate_at(position)

        report = head_sampling_bias(property_at, n, head)
        predicted = gradient_head_bias(base, tilt, head / n)
        assert report.absolute_bias == pytest.approx(predicted, abs=0.02)

    def test_validation(self):
        with pytest.raises(SamplingError):
            gradient_head_bias(1.5, 0.1, 0.1)
        with pytest.raises(SamplingError):
            gradient_head_bias(0.5, 1.0, 0.1)
        with pytest.raises(SamplingError):
            gradient_head_bias(0.5, 0.5, 0.0)
