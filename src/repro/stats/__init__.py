"""Sampling statistics: estimation, sampling, bias."""

from .bias import (
    BiasReport,
    gradient_head_bias,
    head_sampling_bias,
    purchased_burst_rates,
)
from .estimation import (
    ProportionEstimate,
    Z_95,
    Z_99,
    achieved_margin,
    required_sample_size,
    z_critical,
)
from .sampling import (
    head_sample,
    systematic_sample,
    uniform_sample,
)

__all__ = [
    "BiasReport",
    "ProportionEstimate",
    "Z_95",
    "Z_99",
    "achieved_margin",
    "gradient_head_bias",
    "head_sample",
    "head_sampling_bias",
    "purchased_burst_rates",
    "required_sample_size",
    "systematic_sample",
    "uniform_sample",
    "z_critical",
]
