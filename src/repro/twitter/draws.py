"""Counter-based draws: every random value of a follower from its key.

A follower is a pure function of ``(master seed, target ordinal,
arrival position)``.  Its *key* is the SplitMix64 output at step
``position + 1`` of the stream whose state starts at
:func:`~repro.twitter.streams.follower_key_state` (a ``derive_seed``
of the seed and the ordinal), so any set of positions is keyed at
once, in uint64 arithmetic, without a random generator.  Every draw of
the follower is then ``mix(key ^ slot_constant)``, one column of an
``(n, SLOTS)`` matrix:

* slot 0 picks the persona, through the segment's
  :class:`~repro.core.rng.WeightedTable` cumulative weights;
* slots 1.. feed the persona's column sampler, handed out in order by
  :class:`Draws` (a sampler reads them as it would read a stream).

No draw passes through a NumPy transcendental ufunc: uniforms are
53-bit integers scaled by a power of two, integer draws are products
and truncations, and heavy-tailed counts index a quantile table that
:mod:`math` builds once at import (:class:`LogNormalTable`).  The
draws are therefore the same bytes on every NumPy build.
"""

from __future__ import annotations

import math
from statistics import NormalDist
from typing import Tuple

import numpy as np

from ..core.errors import ConfigurationError
from .streams import follower_key_state

#: Draw slots per follower row: slot 0 picks the persona, the rest feed
#: the persona's sampler.
SLOTS = 32

_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_U64 = np.uint64
_SHIFTS = (_U64(30), _U64(27), _U64(31))
_MULTIPLIERS = (_U64(0xBF58476D1CE4E5B9), _U64(0x94D049BB133111EB))
#: ``slot * gamma``: xor-ed into a key before the finaliser, one per slot.
_SLOT_CONSTANTS = np.array([(slot * _GAMMA) & _MASK64 for slot in range(SLOTS)],
                           dtype=np.uint64)
_UNIT = 1.0 / (1 << 53)
_FRACTION_SHIFT = _U64(11)


def _uniforms(bits: np.ndarray) -> np.ndarray:
    """The top 53 bits of each value, scaled into ``[0, 1)``."""
    uniforms = (bits >> _FRACTION_SHIFT).astype(np.float64)
    uniforms *= _UNIT
    return uniforms


def _finalise(values: np.ndarray) -> np.ndarray:
    """The SplitMix64 finaliser, elementwise on a uint64 array (a copy)."""
    values = values ^ (values >> _SHIFTS[0])
    values *= _MULTIPLIERS[0]
    values ^= values >> _SHIFTS[1]
    values *= _MULTIPLIERS[1]
    values ^= values >> _SHIFTS[2]
    return values


def mix64(value: int) -> int:
    """One SplitMix64 step on a Python integer: the hash of ``value``."""
    value = (value + _GAMMA) & _MASK64
    value = ((value ^ (value >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    value = ((value ^ (value >> 27)) * 0x94D049BB133111EB) & _MASK64
    return value ^ (value >> 31)


def stream_keys(base: int, positions: np.ndarray) -> np.ndarray:
    """SplitMix64 outputs ``positions + 1`` of the stream at ``base``."""
    positions = np.asarray(positions, dtype=np.int64)
    if len(positions) == 1:      # the same key, without six array calls
        return np.array([mix64((base + int(positions[0]) * _GAMMA) & _MASK64)],
                        dtype=np.uint64)
    steps = positions.astype(np.uint64) + _U64(1)
    steps *= _U64(_GAMMA)
    steps += _U64(base & _MASK64)
    return _finalise(steps)


def stream_uniforms(state: int, count: int) -> np.ndarray:
    """The first ``count`` uniforms of the SplitMix64 stream at ``state``.

    Uniform ``i`` comes from step ``i + 1``, so a shorter column is a
    prefix of a longer one.
    """
    return _uniforms(stream_keys(state, np.arange(count)))


def follower_keys(seed: int, ordinal: int, positions) -> np.ndarray:
    """The uint64 keys of a target's followers at ``positions``."""
    return stream_keys(follower_key_state(seed, ordinal), positions)


def draw_matrix(keys: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """``(bits, uniforms)``: every draw slot of every key, as ``(n, SLOTS)``.

    ``uniforms`` are the top 53 bits of ``bits`` scaled into ``[0, 1)``.
    """
    bits = _finalise(np.asarray(keys, dtype=np.uint64)[:, None]
                     ^ _SLOT_CONSTANTS)
    return bits, _uniforms(bits)


def persona_uniforms(keys: np.ndarray) -> np.ndarray:
    """Slot 0 of each key alone: the draws that pick personas."""
    return _uniforms(
        _finalise(np.asarray(keys, dtype=np.uint64) ^ _SLOT_CONSTANTS[0]))


# -- column arithmetic that also takes one row -----------------------------------
#
# A batch of one row is drawn in Python floats, since a NumPy call on
# one element costs about as much as on a thousand; the samplers are
# written once, against these helpers and plain operators, and the
# same IEEE operations give the same bits either way
# (``tests/twitter/test_follower_columns.py`` holds single rows to
# batch rows byte for byte).

def where(condition, chosen, otherwise):
    """``np.where`` over a batch; a conditional expression for one row."""
    if isinstance(condition, np.ndarray):
        return np.where(condition, chosen, otherwise)
    return chosen if condition else otherwise


def maximum(first, second):
    """Elementwise maximum (neither argument is NaN)."""
    if isinstance(first, np.ndarray) or isinstance(second, np.ndarray):
        return np.maximum(first, second)
    return first if first >= second else second


def minimum(first, second):
    """Elementwise minimum (neither argument is NaN)."""
    if isinstance(first, np.ndarray) or isinstance(second, np.ndarray):
        return np.minimum(first, second)
    return first if first <= second else second


def isnan(values):
    """Elementwise NaN test."""
    if isinstance(values, np.ndarray):
        return np.isnan(values)
    return values != values


def as_int(values):
    """Truncate non-negative floats to integers."""
    if isinstance(values, np.ndarray):
        return values.astype(np.int64)
    return int(values)


class Lookup:
    """A table of floats indexed by a column of integers (or one integer)."""

    __slots__ = ("values", "_items")

    def __init__(self, values) -> None:
        self._items = tuple(float(value) for value in values)
        self.values = np.array(self._items)

    def __len__(self) -> int:
        return len(self._items)

    def take(self, index):
        """``values[index]``, elementwise."""
        if isinstance(index, np.ndarray):
            return self.values[index]
        return self._items[index]


# -- heavy-tailed counts --------------------------------------------------------

_QUANTILE_BITS = 12
_QUANTILES = 1 << _QUANTILE_BITS
#: Standard-normal quantiles at the midpoints of ``_QUANTILES`` equal bins.
_NORMAL_QUANTILES = tuple(NormalDist().inv_cdf((index + 0.5) / _QUANTILES)
                          for index in range(_QUANTILES))


class LogNormalTable(Lookup):
    """The quantiles of ``exp(N(mean_log, sigma_log))``, built with :mod:`math`.

    A draw indexes the table by the top bits of its slot, so it is the
    same value on every NumPy build (see :meth:`Draws.lognormal`).
    """

    __slots__ = ("mean_log", "sigma_log")

    def __init__(self, mean_log: float, sigma_log: float) -> None:
        if sigma_log < 0:
            raise ConfigurationError(f"sigma_log must be >= 0: {sigma_log!r}")
        super().__init__(math.exp(mean_log + sigma_log * z)
                         for z in _NORMAL_QUANTILES)
        self.mean_log = mean_log
        self.sigma_log = sigma_log


class Draws:
    """The draw slots of a batch of rows, handed to a sampler in order.

    Each call takes the next slot, one value per row, so a column
    sampler reads like code drawing from a stream, except that every
    row makes every draw: a conditional field draws its options and
    selects with :func:`where`.  A batch of one row hands out Python
    scalars instead of arrays.
    """

    __slots__ = ("_bits", "_uniforms", "_next")

    def __init__(self, bits: np.ndarray, uniforms: np.ndarray) -> None:
        if len(uniforms) == 1:
            self._bits = bits[0].tolist()
            self._uniforms = uniforms[0].tolist()
        else:
            self._bits = bits.T
            self._uniforms = uniforms.T
        self._next = 1

    def _overdrawn(self) -> ConfigurationError:
        return ConfigurationError(
            f"a persona sampler may make at most {SLOTS - 1} draws a row")

    def random(self):
        """Uniforms in ``[0, 1)``."""
        slot = self._next
        self._next = slot + 1
        try:
            return self._uniforms[slot]
        except IndexError:
            raise self._overdrawn() from None

    def uniform(self, low: float, high: float):
        """Uniforms in ``[low, high)`` (``random.uniform``'s formula)."""
        return low + (high - low) * self.random()

    def chance(self, probability: float):
        """Booleans, each true with ``probability``."""
        return self.random() < probability

    def integers(self, low: int, high: int):
        """Integers uniform on ``[low, high]``, both ends included."""
        return low + as_int(self.random() * (high - low + 1))

    def choice(self, count: int):
        """Indices uniform on ``[0, count)``: a code into a vocabulary."""
        return as_int(self.random() * count)

    def bits(self):
        """Raw 64-bit hash values (the digits of a rendered handle)."""
        slot = self._next
        self._next = slot + 1
        try:
            return self._bits[slot]
        except IndexError:
            raise self._overdrawn() from None

    def lognormal(self, table: LogNormalTable, low: int, high: int,
                  scale=None):
        """Counts: a quantile of ``table`` (times ``scale``), rounded
        half to even and clamped to ``[low, high]``."""
        values = table.take(as_int(self.random() * _QUANTILES))
        if scale is not None:
            values = values * scale
        if isinstance(values, np.ndarray):
            return np.clip(np.rint(values), low, high).astype(np.int64)
        return min(max(round(values), low), high)
