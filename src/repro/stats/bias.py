"""Quantifying the bias of head-of-list sampling.

Section II-D of the paper argues that the surveyed analytics violate
all three assumptions of sound proportion estimation: (i) the sample
frame is the newest-``k`` head of the follower list, not the whole
population; (ii) draws are confined to that frame rather than
independent over the population; (iii) the property test itself (the
fake detector) is unvalidated.  This module measures the damage done by
(i)–(ii): the difference between a property's rate in the head frame
and in the whole population.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Optional, Sequence

from ..core.errors import SamplingError


@dataclass(frozen=True)
class BiasReport:
    """Head-frame vs whole-population rate of one property."""

    population_size: int
    head_size: int
    whole_rate: float
    head_rate: float

    @property
    def absolute_bias(self) -> float:
        """``head_rate - whole_rate`` (positive = head overestimates)."""
        return self.head_rate - self.whole_rate


def head_sampling_bias(
        property_at: Callable[[int], bool],
        population_size: int,
        head_size: int,
        *,
        positions: Optional[Iterable[int]] = None,
) -> BiasReport:
    """Measure a boolean property's rate in the head frame vs overall.

    ``property_at(position)`` evaluates the property for the follower at
    arrival ``position``.  With ``positions`` given, the whole-population
    rate is estimated over that subset only (useful when evaluating all
    of a 41 M base would be prohibitive); the head frame is always
    evaluated exhaustively.
    """
    if population_size < 1:
        raise SamplingError(f"population_size must be >= 1: {population_size!r}")
    if not 0 < head_size <= population_size:
        raise SamplingError(
            f"head_size must be in (0, {population_size}]: {head_size!r}")
    if positions is None:
        frame: Sequence[int] = range(population_size)
    else:
        frame = sorted(set(positions))
        if not frame:
            raise SamplingError("positions must be non-empty")
        if frame[0] < 0 or frame[-1] >= population_size:
            raise SamplingError("positions out of range")
    whole_hits = sum(1 for position in frame if property_at(position))
    whole_rate = whole_hits / len(frame)
    head_start = population_size - head_size
    head_hits = sum(
        1 for position in range(head_start, population_size)
        if property_at(position))
    return BiasReport(
        population_size=population_size,
        head_size=head_size,
        whole_rate=whole_rate,
        head_rate=head_hits / head_size,
    )


def purchased_burst_rates(genuine: int, purchased: int,
                          head_size: int) -> BiasReport:
    """The paper's worked example (Section II-A/II-D), in closed form.

    An account with ``genuine`` real followers buys ``purchased`` fakes,
    which — being the latest arrivals — fill the head of the follower
    list.  A head sample of ``head_size`` then reports a fake rate of
    ``min(purchased, head_size) / head_size``, while the true rate is
    ``purchased / (genuine + purchased)``.  With 100 K genuine + 10 K
    bought and a 1 K head sample: head says 100 % fake, truth is ~9 %.
    """
    if genuine < 0 or purchased < 0:
        raise SamplingError("counts must be non-negative")
    total = genuine + purchased
    if total == 0:
        raise SamplingError("population must be non-empty")
    if not 0 < head_size <= total:
        raise SamplingError(f"head_size must be in (0, {total}]: {head_size!r}")
    head_fakes = min(purchased, head_size)
    return BiasReport(
        population_size=total,
        head_size=head_size,
        whole_rate=purchased / total,
        head_rate=head_fakes / head_size,
    )


def gradient_head_bias(base_rate: float, tilt: float,
                       head_fraction: float) -> float:
    """Analytic head bias under a linear inactivity gradient.

    If the property rate at relative arrival position ``x`` in [0, 1] is
    ``base_rate * (1 + tilt * (1 - 2x))`` (the model used by
    :func:`repro.twitter.tilted_segments`), the head frame covering the
    newest ``head_fraction`` of the base has mean rate

        ``base_rate * (1 - tilt * (1 - head_fraction))``

    so the absolute bias is ``-base_rate * tilt * (1 - head_fraction)``:
    head samples *underestimate* inactivity, exactly the direction the
    paper observes for Socialbakers and StatusPeople vs FC.
    """
    if not 0.0 <= base_rate <= 1.0:
        raise SamplingError(f"base_rate must be in [0, 1]: {base_rate!r}")
    if not 0.0 <= tilt < 1.0:
        raise SamplingError(f"tilt must be in [0, 1): {tilt!r}")
    if not 0.0 < head_fraction <= 1.0:
        raise SamplingError(
            f"head_fraction must be in (0, 1]: {head_fraction!r}")
    return -base_rate * tilt * (1.0 - head_fraction)
