"""Sampling schemes over follower positions.

Followers are addressed by arrival *position* (0 = earliest).  The
schemes here are the ones the paper contrasts:

* :func:`uniform_sample` — the statistically sound scheme used by the
  FC engine: every follower equally likely, drawn without replacement
  from the whole list;
* :func:`head_sample` — what the commercial analytics actually do:
  take the newest ``k`` followers (the head of Twitter's newest-first
  listing), a deterministic, biased frame;
* :func:`systematic_sample` — evenly spaced positions, included as a
  cheap low-variance alternative for ablations.
"""

from __future__ import annotations

import random
from typing import List

from ..core.errors import SamplingError


def uniform_sample(rng: random.Random, population_size: int, n: int) -> List[int]:
    """Draw ``n`` distinct positions uniformly from ``[0, population_size)``.

    Returned sorted (chronological order) for cache-friendly account
    materialisation; order carries no information since the draw is
    exchangeable.
    """
    _validate(population_size, n)
    return sorted(rng.sample(range(population_size), n))


def head_sample(population_size: int, n: int) -> List[int]:
    """The newest ``n`` positions — the biased frame of the criticised tools.

    Equivalent to fetching the first ``n`` ids from ``followers/ids``
    and keeping them all: "the followers taken into consideration are
    just the latest ones to have joined" (paper, Section II-D).
    """
    _validate(population_size, n)
    return list(range(population_size - n, population_size))


def systematic_sample(population_size: int, n: int, start: int = 0) -> List[int]:
    """Every ``population_size / n``-th position, from offset ``start``."""
    _validate(population_size, n)
    if not 0 <= start < population_size:
        raise SamplingError(f"start must be in [0, {population_size}): {start!r}")
    step = population_size / n
    positions = []
    for index in range(n):
        position = (start + int(index * step)) % population_size
        positions.append(position)
    return sorted(set(positions))


def _validate(population_size: int, n: int) -> None:
    if population_size < 0:
        raise SamplingError(
            f"population_size must be >= 0: {population_size!r}")
    if not 0 < n <= population_size:
        raise SamplingError(
            f"sample size must be in (0, {population_size}]: {n!r}")
