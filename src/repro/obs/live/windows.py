"""Windowed metric streams on the simulated clock.

The post-hoc exporters in :mod:`repro.obs.exporters` answer "what
happened over the whole run"; a monitor needs "what is happening *right
now*".  This module provides the streaming half: tumbling windows
(panes) with deterministic boundaries derived purely from the
:class:`~repro.core.clock.SimClock` timeline, incremental aggregation,
and bounded memory.  Sliding-window questions ("error ratio over the
last three days") are answered by aggregating the trailing run of
panes, so one pane ring serves every horizon.

Determinism contract: pane ``k`` of a :class:`WindowSpec` covers
``[origin + k*width, origin + (k+1)*width)`` — boundaries depend only
on the spec, never on when observations happen to arrive.  Two replays
that feed the same ``(time, value)`` sequence produce byte-identical
:class:`WindowPoint` sequences.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from typing import Callable, Deque, Iterable, List, Optional, Tuple

import numpy as np

from ...core.errors import ConfigurationError

#: Upper bound on closed panes a stream may retain.
MAX_RETAIN = 4096


@dataclass(frozen=True)
class WindowSpec:
    """Deterministic tumbling-window geometry.

    ``width`` is the pane width in simulated seconds; ``origin`` anchors
    pane 0's left edge (pane boundaries are ``origin + k*width``);
    ``retain`` bounds how many *closed* panes a stream keeps — memory is
    O(retain) no matter how long the run is.
    """

    width: float
    origin: float = 0.0
    retain: int = 256

    def __post_init__(self) -> None:
        if self.width <= 0:
            raise ConfigurationError(f"width must be > 0: {self.width!r}")
        if not 1 <= self.retain <= MAX_RETAIN:
            raise ConfigurationError(
                f"retain must be in [1, {MAX_RETAIN}]: {self.retain!r}")

    def index_of(self, t: float) -> int:
        """The pane index whose window contains instant ``t``."""
        return int(math.floor((t - self.origin) / self.width))

    def bounds(self, index: int) -> Tuple[float, float]:
        """The ``[start, end)`` window of pane ``index``."""
        start = self.origin + index * self.width
        return start, start + self.width


@dataclass(frozen=True)
class WindowPoint:
    """One closed (or in-flight) pane's aggregate.

    ``count``/``sum``/``min``/``max``/``last`` summarise the values the
    pane absorbed; an empty pane has ``count == 0`` and ``None`` for
    the extrema.
    """

    index: int
    start: float
    end: float
    count: int
    sum: float
    min: Optional[float]
    max: Optional[float]
    last: Optional[float]

    @property
    def mean(self) -> float:
        """Mean value of the pane (0.0 when empty)."""
        return self.sum / self.count if self.count else 0.0


@dataclass(frozen=True)
class WindowAggregate:
    """Aggregate of a trailing run of panes (a sliding-window answer)."""

    start: float
    end: float
    panes: int
    count: int
    sum: float
    min: Optional[float]
    max: Optional[float]
    last: Optional[float]

    @property
    def mean(self) -> float:
        """Mean over every value in the horizon (0.0 when empty)."""
        return self.sum / self.count if self.count else 0.0


class _PaneAccumulator:
    """Mutable running aggregate of the currently open pane."""

    __slots__ = ("index", "count", "sum", "min", "max", "last")

    def __init__(self, index: int) -> None:
        self.index = index
        self.count = 0
        self.sum = 0.0
        self.min: Optional[float] = None
        self.max: Optional[float] = None
        self.last: Optional[float] = None

    def add(self, value: float) -> None:
        """Fold one observation into the pane."""
        self.count += 1
        self.sum += value
        self.min = value if self.min is None else min(self.min, value)
        self.max = value if self.max is None else max(self.max, value)
        self.last = value

    def add_many(self, values: List[float]) -> None:
        """Fold non-empty ``values`` in, as :meth:`add` of each in turn."""
        total = self.sum
        for value in values:
            total += value
        self.sum = total
        self.count += len(values)
        self.min = min(values) if self.min is None else min(self.min, *values)
        self.max = max(values) if self.max is None else max(self.max, *values)
        self.last = values[-1]

    def freeze(self, spec: WindowSpec) -> WindowPoint:
        """The immutable snapshot of this pane."""
        start, end = spec.bounds(self.index)
        return WindowPoint(index=self.index, start=start, end=end,
                           count=self.count, sum=self.sum,
                           min=self.min, max=self.max, last=self.last)


class WindowStream:
    """A named stream of values aggregated into tumbling panes.

    Feed it with :meth:`observe`; panes close as simulated time crosses
    their right edge (empty panes are skipped entirely, so a sparse
    stream stays cheap).  Observations are clamped forward onto the
    open pane when their timestamp falls in an already-closed pane —
    interleaved schedules (the batch scheduler's per-slot clocks) are
    not monotone, and silently re-opening history would break the
    bounded-memory and determinism contracts.
    """

    def __init__(self, name: str, spec: WindowSpec) -> None:
        if not name:
            raise ConfigurationError("a window stream needs a name")
        self.name = name
        self.spec = spec
        #: Closed panes, oldest first, frozen only when read.
        self._closed: Deque[_PaneAccumulator] = deque(maxlen=spec.retain)
        self._open: Optional[_PaneAccumulator] = None
        self._total_count = 0
        self._total_sum = 0.0

    # -- feeding ------------------------------------------------------------

    def observe(self, t: float, value: float) -> None:
        """Record ``value`` at simulated instant ``t``."""
        index = self.spec.index_of(t)
        pane = self._roll_to(index)
        pane.add(float(value))
        self._total_count += 1
        self._total_sum += float(value)

    def observe_many(self, t: float, values: Iterable[float]) -> None:
        """Record every one of ``values`` at instant ``t``, in order.

        The same panes, counts and float sums, added in the same order,
        as one :meth:`observe` per value; no values is a no-op.
        """
        values = [float(value) for value in values]
        if not values:
            return
        self._roll_to(self.spec.index_of(t)).add_many(values)
        self._total_count += len(values)
        total = self._total_sum
        for value in values:
            total += value
        self._total_sum = total

    def close_until(self, t: float) -> None:
        """Close every pane that ends at or before instant ``t``.

        Called on clock ticks so trailing queries see up-to-date pane
        boundaries even when no values arrived recently.
        """
        index = self.spec.index_of(t)
        if self._open is not None and self._open.index < index:
            self._closed.append(self._open)
            self._open = None

    def _roll_to(self, index: int) -> _PaneAccumulator:
        if self._open is None:
            self._open = _PaneAccumulator(index)
        elif index > self._open.index:
            self._closed.append(self._open)
            self._open = _PaneAccumulator(index)
        # index <= open.index: clamp into the open pane (see class doc).
        return self._open

    # -- queries ------------------------------------------------------------

    @property
    def total_count(self) -> int:
        """Observations absorbed over the stream's whole lifetime."""
        return self._total_count

    @property
    def total_sum(self) -> float:
        """Sum of every value absorbed over the stream's lifetime."""
        return self._total_sum

    def _panes(self) -> List[_PaneAccumulator]:
        """Closed panes (oldest first) plus the open pane, if any."""
        panes = list(self._closed)
        if self._open is not None:
            panes.append(self._open)
        return panes

    def points(self) -> Tuple[WindowPoint, ...]:
        """Closed panes (oldest first) plus the open pane, if any."""
        return tuple(pane.freeze(self.spec) for pane in self._panes())

    def latest(self) -> Optional[WindowPoint]:
        """The most recent pane holding data, or ``None``."""
        pane = self._open
        if pane is None and self._closed:
            pane = self._closed[-1]
        return None if pane is None else pane.freeze(self.spec)

    def trailing(self, now: float, horizon: float) -> WindowAggregate:
        """Aggregate every pane overlapping ``(now - horizon, now]``.

        The sliding-window query: sums/counts over the trailing run of
        panes whose window ends after the cutoff.  Panes older than the
        retention ring contribute nothing (documented memory bound).
        """
        if horizon <= 0:
            raise ConfigurationError(f"horizon must be > 0: {horizon!r}")
        cutoff = now - horizon
        count = 0
        total = 0.0
        low: Optional[float] = None
        high: Optional[float] = None
        last: Optional[float] = None
        panes = self._panes()
        for pane in panes:
            if self.spec.bounds(pane.index)[1] <= cutoff:
                continue
            count += pane.count
            total += pane.sum
            if pane.min is not None:
                low = pane.min if low is None else min(low, pane.min)
            if pane.max is not None:
                high = pane.max if high is None else max(high, pane.max)
            if pane.last is not None:
                last = pane.last
        return WindowAggregate(start=cutoff, end=now, panes=len(panes),
                               count=count, sum=total,
                               min=low, max=high, last=last)


class PaneBlock:
    """The panes of many :class:`WindowStream`\\ s of one spec, as arrays.

    Row ``i`` is one stream, fed one value per :meth:`observe` call
    with the same pane arithmetic, float sums and clamping as
    :meth:`WindowStream.observe`, and closed with every other row by
    one :meth:`close_until`.  A row keeps its newest ``retain + 1``
    non-empty panes (the closed ring plus the open pane), oldest in
    column 0, each as the six floats ``index, count, sum, min, max,
    last``; whether its newest pane is still open; and its lifetime
    totals.  :meth:`stream` builds the row's :class:`WindowStream` from
    them when something reads it.  Columns double as rows gain panes,
    up to ``retain + 1``, and rows double as streams are added.
    """

    def __init__(self, spec: WindowSpec) -> None:
        self.spec = spec
        self._rows = 0
        #: ``(rows, columns, 6)``: each held pane's six fields.
        self._data = np.zeros((0, 1, 6), dtype=np.float64)
        #: Per row: panes held, whether the newest is open, totals.
        self._panes = np.zeros(0, dtype=np.int64)
        self._open = np.zeros(0, dtype=bool)
        self._total_count = np.zeros(0, dtype=np.int64)
        self._total_sum = np.zeros(0, dtype=np.float64)

    def add_rows(self, count: int) -> int:
        """Add ``count`` empty rows; returns the first one's index."""
        first = self._rows
        self._rows += count
        if self._rows > len(self._panes):
            self._resize(max(self._rows, 2 * len(self._panes)),
                         self._data.shape[1])
        return first

    def _resize(self, rows: int, columns: int) -> None:
        data = np.zeros((rows, columns, 6), dtype=np.float64)
        data[:self._data.shape[0], :self._data.shape[1]] = self._data
        self._data = data
        for name in ("_panes", "_open", "_total_count", "_total_sum"):
            array = getattr(self, name)
            grown = np.zeros(rows, dtype=array.dtype)
            grown[:len(array)] = array
            setattr(self, name, grown)

    def observe(self, rows: np.ndarray, instants: np.ndarray,
                values: np.ndarray) -> None:
        """Record ``values[i]`` into row ``rows[i]`` at ``instants[i]``.

        ``rows`` must be distinct.  A row folds its value into its
        newest pane while that pane is open and does not end before
        the value's instant (an earlier one clamps into it); otherwise
        the value opens a pane of its own.
        """
        spec = self.spec
        self._total_count[rows] += 1
        self._total_sum[rows] += values
        index = np.floor((instants - spec.origin) / spec.width)
        panes = self._panes[rows]
        # A row without panes is not open, so what its -1 reads is moot.
        newest = panes - 1
        fold = self._open[rows] & (self._data[rows, newest, 0] >= index)
        if fold.any():
            at = (rows[fold], newest[fold])
            pane, value = self._data[at], values[fold]
            pane[:, 1] += 1
            pane[:, 2] += value
            # ``min``/``max`` keep the held value unless the new one is
            # strictly beyond it, as the builtins do.
            pane[:, 3] = np.where(value < pane[:, 3], value, pane[:, 3])
            pane[:, 4] = np.where(value > pane[:, 4], value, pane[:, 4])
            pane[:, 5] = value
            self._data[at] = pane
            opened = ~fold
            rows, panes = rows[opened], panes[opened]
            index, values = index[opened], values[opened]
        if not len(rows):
            return
        full = panes == spec.retain + 1
        if full.any():
            shifted = rows[full]
            self._data[shifted, :-1] = self._data[shifted, 1:]
            panes = panes - full
        width = int(panes.max()) + 1
        if width > self._data.shape[1]:
            self._resize(len(self._panes), min(
                spec.retain + 1, max(width, 2 * self._data.shape[1])))
        pane = np.empty((len(rows), 6))
        pane[:, 0] = index
        pane[:, 1] = 1.0
        pane[:, 2] = 0.0 + values
        pane[:, 3:] = values[:, None]
        self._data[rows, panes] = pane
        self._panes[rows] = panes + 1
        self._open[rows] = True

    def close_until(self, t: float) -> None:
        """Close every row's pane that ends at or before instant ``t``."""
        rows = self._rows
        newest = self._data[np.arange(rows), self._panes[:rows] - 1, 0]
        self._open[:rows] &= newest >= self.spec.index_of(t)

    def stream(self, row: int, name: str) -> WindowStream:
        """Row ``row`` as a :class:`WindowStream` called ``name``.

        The stream holds the panes and totals the row's values would
        have left in a stream of its own; it is a snapshot, which
        later values do not reach.
        """
        stream = WindowStream(name, self.spec)
        accumulators = []
        for index, count, total, low, high, last in \
                self._data[row, :self._panes[row]].tolist():
            pane = _PaneAccumulator(int(index))
            pane.count, pane.sum = int(count), total
            pane.min, pane.max, pane.last = low, high, last
            accumulators.append(pane)
        if accumulators and self._open[row]:
            stream._open = accumulators.pop()
        stream._closed.extend(accumulators)
        stream._total_count = int(self._total_count[row])
        stream._total_sum = float(self._total_sum[row])
        return stream


class GaugeStream(WindowStream):
    """A window stream fed by sampling a level on every tick.

    ``probe`` returns the current level (queue depth, follower count,
    tokens left); :meth:`sample` records it into the pane containing
    the tick instant.
    """

    def __init__(self, name: str, spec: WindowSpec,
                 probe: Callable[[], float]) -> None:
        super().__init__(name, spec)
        self._probe = probe

    def sample(self, t: float) -> None:
        """Sample the probe at instant ``t``."""
        self.observe(t, float(self._probe()))


class CounterRateStream(WindowStream):
    """A window stream of *deltas* of a cumulative counter.

    ``probe`` returns a monotone cumulative total (e.g. a registry
    counter's value); each :meth:`sample` attributes the increase since
    the previous sample to the pane containing the tick instant, so a
    pane's ``sum`` is the event count landing in that window.
    """

    def __init__(self, name: str, spec: WindowSpec,
                 probe: Callable[[], float]) -> None:
        super().__init__(name, spec)
        self._probe = probe
        self._last_total: Optional[float] = None

    def sample(self, t: float) -> None:
        """Sample the cumulative probe and record the delta at ``t``."""
        total = float(self._probe())
        previous = self._last_total
        self._last_total = total
        if previous is None:
            # First sample establishes the baseline; rates start at the
            # second tick, as with any counter scrape.
            self.close_until(t)
            return
        delta = total - previous
        if delta < 0:
            raise ConfigurationError(
                f"counter stream {self.name!r} went backwards: "
                f"{previous!r} -> {total!r}")
        if delta > 0:
            self.observe(t, delta)
        else:
            self.close_until(t)
