"""Follower-arrival schedules.

The paper's Section IV-B experiment hinges on *when* each follower
started following the target: Twitter returns follower lists in reverse
chronological order of following, so head-of-list samples see only the
newest cohort.  An :class:`ArrivalSchedule` maps every follower position
(0 = earliest follower) to a deterministic arrival instant, supports the
inverse query ("how many followers had arrived by time t?"), and keeps
growing past the reference instant so daily-snapshot experiments observe
fresh arrivals.  Followers also leave: a bought block erodes by
arithmetic attrition, and :meth:`ArrivalSchedule.depart` records one
follower's unfollow; either way the follower list at ``t`` is the
arrived positions minus the departed ones, in arrival order.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from itertools import accumulate
from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..core.errors import ConfigurationError, GraphError
from ..core.timeutil import DAY, HOUR


@dataclass(frozen=True)
class SegmentWindow:
    """A contiguous block of arrivals inside one time window.

    Attributes
    ----------
    count:
        Number of followers arriving in this segment.
    start, end:
        Segment time window (epoch seconds); arrivals fall in
        ``[start, end)``.
    gamma:
        Intra-segment pacing exponent.  ``1.0`` spreads arrivals evenly;
        ``< 1`` front-loads them; ``> 1`` back-loads them (a crescendo).
        A *burst* (e.g. a purchased block of fakes delivered overnight)
        is simply a segment with a very short window.
    """

    count: int
    start: float
    end: float
    gamma: float = 1.0

    def __post_init__(self) -> None:
        if self.count < 0:
            raise ConfigurationError(f"segment count must be >= 0: {self.count!r}")
        if self.end < self.start:
            raise ConfigurationError("segment window must not be inverted")
        if self.gamma <= 0:
            raise ConfigurationError(f"gamma must be positive: {self.gamma!r}")

    def arrival_time(self, local_position: int) -> float:
        """Arrival instant of the ``local_position``-th follower (0-based)."""
        if not 0 <= local_position < self.count:
            raise ConfigurationError(
                f"position {local_position} outside segment of {self.count}")
        if self.count == 1:
            fraction = 0.5
        else:
            fraction = (local_position + 0.5) / self.count
        return self.start + (self.end - self.start) * (fraction ** self.gamma)


def _departures(count: int, ppm: int) -> List[int]:
    """Cumulative departures of a ``count`` block after each attrition
    day, up to the first day nobody leaves (no later day does either)."""
    departed, alive = [0], count
    while ppm > 0:
        gone = alive * ppm // 1_000_000
        if not gone:
            break
        alive -= gone
        departed.append(departed[-1] + gone)
    return departed


class ArrivalSchedule:
    """Deterministic arrival times for an entire follower base.

    The schedule is a sequence of :class:`SegmentWindow` blocks covering
    positions ``0 .. N-1`` (the historical base as of the reference
    instant), followed by an open-ended steady *trickle* of
    ``post_ref_daily`` new followers per day after the last segment ends
    — this is what the daily-snapshot ordering experiment observes.

    ``post_ref_bursts`` adds bought blocks *after* the reference
    instant, each ``(at, count)`` or ``(at, count, per_hour,
    daily_attrition)``: hourly tranches of ``per_hour`` (``None``: one
    tranche), the first at exactly the epoch ``at``, interleaved with
    the trickle in arrival order.  From one day after its last tranche
    a block loses ``alive * ppm // 1_000_000`` of its ``alive`` members
    a day (``ppm``: ``daily_attrition`` in parts per million), earliest
    delivered first.  A departed member keeps its position and arrival
    (:meth:`size_at`) but leaves the follower list (:meth:`count_at`,
    :meth:`positions`).  Without bursts the schedule is bit-identical
    to one built before bursts existed.

    :meth:`depart` adds explicit departures, ``(position, instant)``
    pairs kept sorted by position: an unfollow of any listed follower,
    merged with the attrition in :meth:`count_at`, :meth:`departed_at`
    and :meth:`positions`.  A schedule without them answers those
    queries as before, after one emptiness check.
    """

    #: Explicit departures recorded by every schedule so far: a cached
    #: :meth:`trickle` answer is stale once this moves.
    departures_recorded = 0

    def __init__(self, segments: Sequence[SegmentWindow],
                 post_ref_daily: float = 0.0,
                 post_ref_bursts: Sequence[Tuple] = ()) -> None:
        if not segments:
            raise ConfigurationError("an arrival schedule needs >= 1 segment")
        if post_ref_daily < 0:
            raise ConfigurationError(
                f"post_ref_daily must be non-negative: {post_ref_daily!r}")
        previous_end = None
        for segment in segments:
            if previous_end is not None and segment.start < previous_end:
                raise ConfigurationError(
                    "segments must be chronological and non-overlapping")
            previous_end = segment.end
        self._segments: Tuple[SegmentWindow, ...] = tuple(segments)
        self._offsets: List[int] = []
        offset = 0
        for segment in self._segments:
            self._offsets.append(offset)
            offset += segment.count
        self._offset_array = np.array(self._offsets, dtype=np.int64)
        self._base_count = offset
        self._ref_time = self._segments[-1].end
        self._post_ref_daily = float(post_ref_daily)
        self._compile_bursts(post_ref_bursts)
        # Explicit departures, sorted by position, and their instants.
        self._gone_positions: List[int] = []
        self._gone_at: List[float] = []
        # Whether anyone can ever leave: the emptiness check that lets a
        # schedule without departures skip the merge.
        self._leaving = bool(self._eroding)

    def _compile_bursts(self, post_ref_bursts: Sequence[Tuple]) -> None:
        """Flatten the bursts into arrival-ordered tranche arrays."""
        bursts = sorted(
            (tuple(burst) + (None, 0.0)[len(burst) - 2:]
             for burst in post_ref_bursts),
            key=lambda burst: (float(burst[0]), int(burst[1])))
        tranches, eroding = [], []
        for index, (at, count, per_hour, attrition) in enumerate(bursts):
            at, count = float(at), int(count)
            if at < self._ref_time:
                raise ConfigurationError(
                    f"burst at {at!r} predates the reference instant "
                    f"{self._ref_time!r}")
            if count < 1:
                raise ConfigurationError(
                    f"burst count must be >= 1: {count!r}")
            per_hour = per_hour or count
            hours = -(-count // per_hour)
            tranches += [(at + hour * HOUR, index,
                          min(per_hour, count - hour * per_hour))
                         for hour in range(hours)]
            departed = _departures(count, round(attrition * 1_000_000))
            if len(departed) > 1:
                eroding.append((index, at + (hours - 1) * HOUR,
                                per_hour, departed))
        tranches.sort()
        # Per tranche, in arrival order: instant, burst, members before
        # it, and the post-reference index of its first member (strictly
        # increasing, so bisection finds a position's tranche).
        # Tuples: a schedule without bursts shares the empty one.
        self._tranche_at = tuple(at for at, __, __ in tranches)
        self._tranche_burst = tuple(index for __, index, __ in tranches)
        self._tranche_before = tuple(accumulate(
            (size for __, __, size in tranches), initial=0))
        self._tranche_first = tuple(
            self._trickle_count(at) + before
            for at, before in zip(self._tranche_at, self._tranche_before))
        # Per eroding burst: last tranche instant, tranche size, its
        # tranches in delivery order, cumulative departures by day.
        self._eroding = tuple(
            (last, per_hour,
             [slot for slot, burst in enumerate(self._tranche_burst)
              if burst == index], departed)
            for index, last, per_hour, departed in eroding)

    @property
    def base_count(self) -> int:
        """Followers arrived by the reference instant."""
        return self._base_count

    @property
    def ref_time(self) -> float:
        """End of the last historical segment (the reference instant)."""
        return self._ref_time

    @property
    def segments(self) -> Tuple[SegmentWindow, ...]:
        """The historical segments, in chronological order."""
        return self._segments

    def trickle(self) -> Optional[Tuple[int, float, float]]:
        """``(base_count, ref_time, post_ref_daily)`` of a schedule that
        only trickles after its reference instant, ``None`` for one with
        bursts or departures.

        From ``ref_time`` on, such a schedule's :meth:`count_at` is
        ``base_count + int((now - ref_time) / DAY * post_ref_daily)``,
        which callers may evaluate for many schedules at once.
        """
        if self._tranche_at or self._leaving:
            return None
        return self._base_count, self._ref_time, self._post_ref_daily

    def _trickle_count(self, now: float) -> int:
        """Trickle arrivals by ``now`` (the :meth:`size_at` convention)."""
        if now < self._ref_time or self._post_ref_daily <= 0:
            return 0
        return int((now - self._ref_time) / DAY * self._post_ref_daily)

    def _locate_post_ref(self, extra: int) -> Tuple[Optional[int], int]:
        """Map post-reference index ``extra`` to its arrival block.

        Returns ``(tranche, local)`` for a burst member, or ``(None,
        k)`` for the ``k``-th trickle arrival.  Positions interleave in
        arrival order using the same trickle-count formula as
        :meth:`size_at`, so the two stay exact inverses.
        """
        tranche = bisect.bisect_right(self._tranche_first, extra) - 1
        if tranche < 0:
            return None, extra
        local = extra - self._tranche_first[tranche]
        before = self._tranche_before[tranche + 1]
        if local < before - self._tranche_before[tranche]:
            return tranche, local
        return None, extra - before

    def segment_of(self, position: int) -> Tuple[int, SegmentWindow]:
        """Return ``(segment_index, segment)`` containing ``position``.

        Post-reference trickle positions map to a pseudo segment index
        ``len(segments)`` and members of burst ``i`` to
        ``len(segments) + 1 + i``; the returned windows are synthesised
        on the fly (a tranche's window is the zero-length ``[at, at]``).
        """
        if position < 0:
            raise ConfigurationError(f"position must be >= 0: {position!r}")
        if position >= self._base_count:
            extra = position - self._base_count
            if self._post_ref_daily <= 0 and not self._tranche_at:
                raise ConfigurationError(
                    f"position {position} beyond a non-growing schedule "
                    f"of {self._base_count}")
            tranche, local = self._locate_post_ref(extra)
            if tranche is not None:
                at = self._tranche_at[tranche]
                size = (self._tranche_before[tranche + 1]
                        - self._tranche_before[tranche])
                return (len(self._segments) + 1 + self._tranche_burst[tranche],
                        SegmentWindow(count=size, start=at, end=at))
            if self._post_ref_daily <= 0:
                raise ConfigurationError(
                    f"position {position} beyond a non-growing schedule "
                    f"of {self._base_count} and its bursts")
            day_span = DAY / self._post_ref_daily
            start = self._ref_time + local * day_span
            return len(self._segments), SegmentWindow(
                count=1, start=start, end=start + day_span)
        index = bisect.bisect_right(self._offsets, position) - 1
        return index, self._segments[index]

    def locate(self, position: int) -> Tuple[int, float]:
        """Return ``(segment_index, arrival instant)`` of ``position``.

        One :meth:`segment_of` lookup answers both, for callers that
        need the segment (its persona mix) and the arrival instant.
        """
        index, segment = self.segment_of(position)
        if index >= len(self._segments):
            # Trickle windows hold one arrival; tranche windows are
            # zero-length, so every member arrives at the tranche instant.
            return index, segment.arrival_time(0)
        return index, segment.arrival_time(position - self._offsets[index])

    def locate_many(self, positions) -> Tuple[np.ndarray, np.ndarray]:
        """:meth:`locate` of every position: segment indices and instants.

        The same floating-point operations as :meth:`locate`, so every
        instant is bit-identical to :meth:`arrival_time`: historical
        positions are computed per segment in array arithmetic (the
        pacing power stays a Python float ``**``), and post-reference
        positions, which are few, one at a time.
        """
        positions = np.asarray(positions, dtype=np.int64)
        if len(positions) < 2:
            located = [self.locate(int(p)) for p in positions]
            return (np.array([index for index, __ in located], dtype=np.int64),
                    np.array([at for __, at in located], dtype=np.float64))
        if positions.min() < 0:
            raise ConfigurationError("positions must be >= 0")
        index = np.searchsorted(self._offset_array, positions,
                                side="right") - 1
        arrival = np.empty(len(positions), dtype=np.float64)
        historical = positions < self._base_count
        for segment_index in np.unique(index[historical]).tolist():
            rows = np.flatnonzero(historical & (index == segment_index))
            segment = self._segments[segment_index]
            if segment.count == 1:
                fraction = np.full(len(rows), 0.5)
            else:
                fraction = ((positions[rows] - self._offsets[segment_index])
                            + 0.5) / segment.count
            if segment.gamma != 1.0:
                fraction = np.array([value ** segment.gamma
                                     for value in fraction.tolist()])
            arrival[rows] = segment.start + (segment.end - segment.start) \
                * fraction
        for row in np.flatnonzero(~historical).tolist():
            index[row], arrival[row] = self.locate(int(positions[row]))
        return index, arrival

    def arrival_time(self, position: int) -> float:
        """Arrival instant of the follower at global ``position``."""
        return self.locate(position)[1]

    def size_at(self, now: float) -> int:
        """Number of followers whose arrival time is ``<= now``.

        Monotone in ``now``; exact inverse of :meth:`arrival_time` (it
        binary-searches the arrival sequence, which is non-decreasing).
        Departed burst members still count: they did arrive.
        """
        if now >= self._ref_time:
            # The first trickle arrival happens one inter-arrival gap
            # after the reference instant, so flooring is exact.
            tranches = bisect.bisect_right(self._tranche_at, now)
            return (self._base_count + self._trickle_count(now)
                    + self._tranche_before[tranches])
        lo, hi = 0, self._base_count
        while lo < hi:
            mid = (lo + hi) // 2
            if self.arrival_time(mid) <= now:
                lo = mid + 1
            else:
                hi = mid
        return lo

    @property
    def departures(self) -> Tuple[Tuple[int, float], ...]:
        """The explicit departures, ``(position, instant)`` by position."""
        return tuple(zip(self._gone_positions, self._gone_at))

    def _departed(self, now: float):
        """``(per_hour, tranches, departed)`` of each eroding burst."""
        for last, per_hour, tranches, departed in self._eroding:
            if now >= last + DAY:
                days = min(int((now - last) / DAY), len(departed) - 1)
                yield per_hour, tranches, departed[days]

    def _holes(self, now: float) -> List[Tuple[int, int]]:
        """The ``[first, stop)`` position ranges attrition has removed by
        ``now``, sorted."""
        holes = []
        for per_hour, tranches, gone in self._departed(now):
            for order, tranche in enumerate(tranches[:-(-gone // per_hour)]):
                first = self._base_count + self._tranche_first[tranche]
                holes.append(
                    (first, first + min(per_hour, gone - order * per_hour)))
        return sorted(holes)

    def _unfollowed(self, now: float, holes: List[Tuple[int, int]]
                    ) -> List[int]:
        """Positions departed explicitly by ``now``, sorted, outside the
        attrition ``holes`` (a follower leaves the list once)."""
        return [position for position, at
                in zip(self._gone_positions, self._gone_at)
                if at <= now and not any(first <= position < stop
                                         for first, stop in holes)]

    def depart(self, position: int, at: float) -> None:
        """Take the follower at ``position`` off the list from ``at`` on.

        Raises :class:`GraphError` unless the follower is listed at
        ``at``: it must have arrived by then, not have left with its
        burst's attrition, and not have departed explicitly before (a
        position departs at most once; nobody re-follows).
        """
        position, at = int(position), float(at)
        if not 0 <= position < self.size_at(at):
            raise GraphError(
                f"position {position} has not arrived by {at!r}")
        index = bisect.bisect_left(self._gone_positions, position)
        if index < len(self._gone_positions) and \
                self._gone_positions[index] == position:
            raise GraphError(
                f"position {position} already departed at "
                f"{self._gone_at[index]!r}")
        if any(first <= position < stop
               for first, stop in self._holes(at)):
            raise GraphError(
                f"position {position} left with its burst's attrition "
                f"by {at!r}")
        self._gone_positions.insert(index, position)
        self._gone_at.insert(index, at)
        self._leaving = True
        ArrivalSchedule.departures_recorded += 1

    def departed_at(self, now: float) -> int:
        """Followers that have left the list by ``now``: burst attrition
        and explicit departures."""
        attrition = sum(gone for __, __, gone in self._departed(now))
        if not self._gone_positions:
            return attrition
        return attrition + len(self._unfollowed(now, self._holes(now)))

    def count_at(self, now: float) -> int:
        """Length of the follower list at ``now``: arrivals minus departures."""
        if not self._leaving:
            return self.size_at(now)
        return self.size_at(now) - self.departed_at(now)

    def positions(self, indices, now: float):
        """Positions of the follower-list entries ``indices`` at ``now``.

        The list is chronological: entry ``i`` is the ``i``-th arrived
        follower not departed.  Before any departure ``indices`` comes
        back unchanged; after, as a list of ints (an int64 array for an
        array).  Indices are not checked against :meth:`count_at`.
        """
        if not self._leaving:
            return indices
        ranges = self._holes(now)
        if self._gone_positions:
            ranges = sorted(ranges + [
                (position, position + 1)
                for position in self._unfollowed(now, ranges)])
        if not ranges:
            return indices
        # The removed ranges are sorted and disjoint.  One starting at
        # ``first`` has ``first`` minus the lengths of those before it
        # kept positions ahead of it, so index ``i`` moves past every
        # range with at most ``i`` kept ahead: one ``searchsorted``.
        bounds = np.array(ranges, dtype=np.int64)
        lengths = bounds[:, 1] - bounds[:, 0]
        removed = np.concatenate(([0], np.cumsum(lengths)))
        kept_ahead = bounds[:, 0] - removed[:-1]
        shifted = np.array(indices, dtype=np.int64)
        shifted += removed[np.searchsorted(kept_ahead, shifted, side="right")]
        return shifted if isinstance(indices, np.ndarray) else shifted.tolist()


def even_schedule(count: int, start: float, end: float,
                  post_ref_daily: float = 0.0) -> ArrivalSchedule:
    """Convenience: a single evenly paced segment over ``[start, end)``."""
    return ArrivalSchedule(
        [SegmentWindow(count=count, start=start, end=end)],
        post_ref_daily=post_ref_daily,
    )
