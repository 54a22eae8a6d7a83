"""Follower-arrival schedules.

The paper's Section IV-B experiment hinges on *when* each follower
started following the target: Twitter returns follower lists in reverse
chronological order of following, so head-of-list samples see only the
newest cohort.  An :class:`ArrivalSchedule` maps every follower position
(0 = earliest follower) to a deterministic arrival instant, supports the
inverse query ("how many followers had arrived by time t?"), and keeps
growing past the reference instant so daily-snapshot experiments observe
fresh arrivals.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from ..core.errors import ConfigurationError
from ..core.timeutil import DAY


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


class ArrivalSchedule:
    """Deterministic arrival times for an entire follower base.

    The schedule is a sequence of :class:`SegmentWindow` blocks covering
    positions ``0 .. N-1`` (the historical base as of the reference
    instant), followed by an open-ended steady *trickle* of
    ``post_ref_daily`` new followers per day after the last segment ends
    — this is what the daily-snapshot ordering experiment observes.

    ``post_ref_bursts`` adds discrete arrival blocks *after* the
    reference instant: each ``(at, count)`` delivers ``count`` followers
    at exactly the epoch ``at``, interleaved with the trickle in arrival
    order — the "bought a block of fakes mid-monitoring" scenario the
    incremental-audit experiments inject.  A schedule with no bursts is
    bit-identical to one built before bursts existed.
    """

    def __init__(self, segments: Sequence[SegmentWindow],
                 post_ref_daily: float = 0.0,
                 post_ref_bursts: Sequence[Tuple[float, int]] = ()) -> None:
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
        self._base_count = offset
        self._ref_time = self._segments[-1].end
        self._post_ref_daily = float(post_ref_daily)
        bursts = sorted((float(at), int(count)) for at, count in post_ref_bursts)
        for at, count in bursts:
            if at < self._ref_time:
                raise ConfigurationError(
                    f"burst at {at!r} predates the reference instant "
                    f"{self._ref_time!r}")
            if count < 1:
                raise ConfigurationError(
                    f"burst count must be >= 1: {count!r}")
        self._bursts: Tuple[Tuple[float, int], ...] = tuple(bursts)

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

    @property
    def bursts(self) -> Tuple[Tuple[float, int], ...]:
        """Post-reference ``(at, count)`` bursts, in chronological order."""
        return self._bursts

    def _trickle_count(self, now: float) -> int:
        """Trickle arrivals by ``now`` (the :meth:`size_at` convention)."""
        if now < self._ref_time or self._post_ref_daily <= 0:
            return 0
        return int((now - self._ref_time) / DAY * self._post_ref_daily)

    def _locate_post_ref(self, extra: int) -> Tuple[Optional[int], int]:
        """Map post-reference index ``extra`` to its arrival block.

        Returns ``(burst_index, local)`` for a burst member, or
        ``(None, k)`` for the ``k``-th trickle arrival.  Positions
        interleave in arrival order using the same trickle-count
        formula as :meth:`size_at`, so the two stay exact inverses.
        """
        prior = 0
        for index, (at, count) in enumerate(self._bursts):
            before = self._trickle_count(at) + prior
            if extra < before:
                break
            if extra < before + count:
                return index, extra - before
            prior += count
        return None, extra - prior

    def segment_of(self, position: int) -> Tuple[int, SegmentWindow]:
        """Return ``(segment_index, segment)`` containing ``position``.

        Post-reference trickle positions map to a pseudo segment index
        ``len(segments)`` and burst members of burst ``i`` to
        ``len(segments) + 1 + i``; the returned windows are synthesised
        on the fly (a burst's window is the zero-length ``[at, at]``).
        """
        if position < 0:
            raise ConfigurationError(f"position must be >= 0: {position!r}")
        if position >= self._base_count:
            extra = position - self._base_count
            if self._post_ref_daily <= 0 and not self._bursts:
                raise ConfigurationError(
                    f"position {position} beyond a non-growing schedule "
                    f"of {self._base_count}")
            burst_index, local = self._locate_post_ref(extra)
            if burst_index is not None:
                at, count = self._bursts[burst_index]
                return len(self._segments) + 1 + burst_index, SegmentWindow(
                    count=count, start=at, end=at)
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
            # Trickle windows hold one arrival; burst windows are
            # zero-length, so every member arrives at the burst instant.
            return index, segment.arrival_time(0)
        return index, segment.arrival_time(position - self._offsets[index])

    def arrival_time(self, position: int) -> float:
        """Arrival instant of the follower at global ``position``."""
        return self.locate(position)[1]

    def size_at(self, now: float) -> int:
        """Number of followers whose arrival time is ``<= now``.

        Monotone in ``now``; exact inverse of :meth:`arrival_time` (it
        binary-searches the arrival sequence, which is non-decreasing).
        """
        if now >= self._ref_time:
            # The first trickle arrival happens one inter-arrival gap
            # after the reference instant, so flooring is exact.
            extra = self._trickle_count(now)
            extra += sum(count for at, count in self._bursts if at <= now)
            return self._base_count + extra
        lo, hi = 0, self._base_count
        while lo < hi:
            mid = (lo + hi) // 2
            if self.arrival_time(mid) <= now:
                lo = mid + 1
            else:
                hi = mid
        return lo


def even_schedule(count: int, start: float, end: float,
                  post_ref_daily: float = 0.0) -> ArrivalSchedule:
    """Convenience: a single evenly paced segment over ``[start, end)``."""
    return ArrivalSchedule(
        [SegmentWindow(count=count, start=start, end=end)],
        post_ref_daily=post_ref_daily,
    )
