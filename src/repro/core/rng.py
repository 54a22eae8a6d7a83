"""Seed management and reusable random distributions.

Every stochastic component of the reproduction takes an explicit seed so
experiments are bit-for-bit reproducible.  To avoid accidental seed
collisions between subsystems (which would correlate supposedly
independent draws), child seeds are derived from a master seed plus a
string path using a cryptographic hash.
"""

from __future__ import annotations

import bisect
import hashlib
import math
import random
from typing import Sequence

import numpy as np

from .errors import ConfigurationError


def derive_seed(master: int, *path: object) -> int:
    """Derive a stable 64-bit child seed from ``master`` and a label path.

    ``derive_seed(42, "population", "fake", 3)`` always returns the same
    value, and different paths yield (with overwhelming probability)
    different, uncorrelated seeds.
    """
    # The hashed text is ``repr((int(master),) + tuple(str(p) for p in
    # path))``, written out without building the tuple: a tuple's repr
    # is its items' reprs joined by ", ", with a trailing comma for one
    # item.  Follower streams derive two seeds per generated follower.
    if path:
        payload = f"({int(master)}, {', '.join([repr(str(p)) for p in path])})"
    else:
        payload = f"({int(master)},)"
    digest = hashlib.sha256(payload.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


def make_rng(seed: int, *path: object) -> random.Random:
    """Return a ``random.Random`` seeded from ``seed`` and an optional path."""
    if path:
        seed = derive_seed(seed, *path)
    return random.Random(seed)


class WeightedTable:
    """A fixed weighted item list, laid out for repeated picks.

    The weights are accumulated once, in order.  :meth:`pick` returns
    the first item whose cumulative weight is at or above the scaled
    draw (the first ``target <= acc``), so the same draw picks the same
    item however it is looked up; :meth:`pick_indices` picks for a
    whole array of draws.
    """

    __slots__ = ("_items", "_bounds", "_bound_array", "_total")

    def __init__(self, items: Sequence[object],
                 weights: Sequence[float]) -> None:
        if len(items) != len(weights):
            raise ConfigurationError("items and weights must have equal length")
        if not items:
            raise ConfigurationError("cannot choose from an empty sequence")
        total = float(sum(weights))
        if total <= 0 or any(w < 0 for w in weights):
            raise ConfigurationError(f"weights must be non-negative with positive sum: {weights!r}")
        bounds = []
        acc = 0.0
        for weight in weights:
            acc += weight
            bounds.append(acc)
        self._items = tuple(items)
        self._bounds = tuple(bounds)
        self._bound_array = np.array(bounds, dtype=np.float64)
        self._total = total

    @property
    def items(self) -> tuple:
        """The items, in the order their weights were accumulated."""
        return self._items

    def pick(self, rng: random.Random) -> object:
        """Pick one item with one ``rng.random()`` draw."""
        return self._items[self.index_of(rng.random())]

    def index_of(self, uniform: float) -> int:
        """The index of the item a ``[0, 1)`` draw picks: the first
        cumulative weight at or above ``uniform * total``."""
        return min(bisect.bisect_left(self._bounds, uniform * self._total),
                   len(self._items) - 1)

    def pick_indices(self, uniforms: np.ndarray) -> np.ndarray:
        """:meth:`index_of` of every draw in an array."""
        found = np.searchsorted(self._bound_array, uniforms * self._total,
                                side="left")
        return np.minimum(found, len(self._items) - 1)


def poisson_quantile(lam: float, uniform: float) -> int:
    """The Poisson(``lam``) count a ``[0, 1)`` draw picks, by inverse CDF.

    The smallest ``k`` whose cumulative probability exceeds
    ``uniform``, walking the probability masses up from 0 (each from
    :func:`math.lgamma`, so a large ``lam`` does not underflow).  One
    uniform gives one count, so a counter-based stream of uniforms
    gives the same counts wherever it is drawn.
    """
    if lam < 0:
        raise ConfigurationError(f"lambda must be non-negative: {lam!r}")
    if lam == 0:
        return 0
    log_lam = math.log(lam)
    count, cumulative = 0, 0.0
    while True:
        mass = math.exp(count * log_lam - lam - math.lgamma(count + 1))
        cumulative += mass
        # Past the mode a vanished mass means the rounded sum stopped
        # short of a draw within an ulp of 1: the tail holds nothing.
        if cumulative > uniform or (mass == 0.0 and count > lam):
            return count
        count += 1
