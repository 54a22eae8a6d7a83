"""Proportion estimation, confidence intervals, sample-size arithmetic.

This module implements the statistical machinery the paper recalls in
Section II-D: estimating the proportion ``p`` of a population holding a
property from a sample of size ``n`` via ``p_hat = X / n``, with
standard error ``sqrt(p_hat * (1 - p_hat) / n)`` and normal-approximate
confidence intervals ``p_hat ± Z_alpha * sigma`` — and the inverse
problem that fixes the FC engine's sample size at **9604** (95 %
confidence, ±1 % margin, worst case p = 0.5).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Tuple

from ..core.errors import ConfigurationError

#: Critical values quoted by the paper for the two usual confidence levels.
Z_95 = 1.96
Z_99 = 2.58

_Z_TABLE = {0.90: 1.6449, 0.95: Z_95, 0.99: Z_99}


def z_critical(confidence: float) -> float:
    """Two-sided normal critical value for a confidence level in (0, 1).

    The paper's levels (0.95 -> 1.96, 0.99 -> 2.58) are table exact; any
    other level is computed from the inverse error function.
    """
    if not 0.0 < confidence < 1.0:
        raise ConfigurationError(f"confidence must be in (0, 1): {confidence!r}")
    if confidence in _Z_TABLE:
        return _Z_TABLE[confidence]
    # Inverse CDF via the inverse error function: z = sqrt(2) * erfinv(c).
    return math.sqrt(2.0) * _erfinv(confidence)


def _erfinv(x: float) -> float:
    """Inverse error function (Winitzki's approximation, |err| < 5e-4)."""
    a = 0.147
    ln_term = math.log(1.0 - x * x)
    first = 2.0 / (math.pi * a) + ln_term / 2.0
    return math.copysign(
        math.sqrt(math.sqrt(first * first - ln_term / a) - first), x)


@dataclass(frozen=True)
class ProportionEstimate:
    """A sample-based estimate of a population proportion."""

    positives: int
    sample_size: int

    def __post_init__(self) -> None:
        if self.sample_size < 1:
            raise ConfigurationError(
                f"sample_size must be >= 1: {self.sample_size!r}")
        if not 0 <= self.positives <= self.sample_size:
            raise ConfigurationError(
                f"positives must be in [0, {self.sample_size}]: {self.positives!r}")

    @property
    def p_hat(self) -> float:
        """The point estimate ``X / n``."""
        return self.positives / self.sample_size

    @property
    def std_error(self) -> float:
        """``sqrt(p_hat * (1 - p_hat) / n)`` — the paper's sigma."""
        p = self.p_hat
        return math.sqrt(p * (1.0 - p) / self.sample_size)

    def margin(self, confidence: float = 0.95) -> float:
        """Half-width of the normal-approximate confidence interval."""
        return z_critical(confidence) * self.std_error

    def wald_interval(self, confidence: float = 0.95) -> Tuple[float, float]:
        """``p_hat ± Z * sigma``, clipped to [0, 1] (the paper's interval)."""
        half = self.margin(confidence)
        return max(0.0, self.p_hat - half), min(1.0, self.p_hat + half)

    def wilson_interval(self, confidence: float = 0.95) -> Tuple[float, float]:
        """Wilson score interval — better behaved near p = 0 or 1.

        Provided alongside Wald because fake-follower proportions of
        clean accounts sit exactly in the regime where Wald misbehaves.
        """
        z = z_critical(confidence)
        n = self.sample_size
        p = self.p_hat
        denom = 1.0 + z * z / n
        centre = (p + z * z / (2 * n)) / denom
        half = z * math.sqrt(p * (1 - p) / n + z * z / (4 * n * n)) / denom
        return max(0.0, centre - half), min(1.0, centre + half)


def required_sample_size(margin: float, confidence: float = 0.95,
                         p: float = 0.5) -> int:
    """Smallest n with ``Z * sqrt(p (1-p) / n) <= margin``.

    With the conservative ``p = 0.5``, a 95 % level and a ±1 % margin
    this returns **9604** — the FC engine's fixed sample size (paper,
    Section IV-C).
    """
    if not 0.0 < margin < 1.0:
        raise ConfigurationError(f"margin must be in (0, 1): {margin!r}")
    if not 0.0 <= p <= 1.0:
        raise ConfigurationError(f"p must be in [0, 1]: {p!r}")
    z = z_critical(confidence)
    return math.ceil((z / margin) ** 2 * p * (1.0 - p))


def achieved_margin(n: int, confidence: float = 0.95, p: float = 0.5) -> float:
    """Margin of error a sample of size ``n`` achieves (worst case p = 0.5).

    The inverse view used by the ablation sweep: StatusPeople's 700
    records give ±3.7 %, Twitteraudit's 5000 give ±1.4 %, FC's 9604 give
    ±1 % — *if and only if* the sample is unbiased, which is precisely
    what head-of-list sampling violates.
    """
    if n < 1:
        raise ConfigurationError(f"n must be >= 1: {n!r}")
    return z_critical(confidence) * math.sqrt(p * (1.0 - p) / n)
