"""Unit and property tests for arrival schedules."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import ConfigurationError, DAY, HOUR
from repro.twitter import ArrivalSchedule, SegmentWindow, even_schedule


class TestSegmentWindow:
    def test_arrivals_inside_window(self):
        segment = SegmentWindow(count=100, start=0.0, end=1000.0)
        times = [segment.arrival_time(i) for i in range(100)]
        assert all(0.0 <= t < 1000.0 for t in times)
        assert times == sorted(times)

    def test_single_follower_lands_mid_window(self):
        segment = SegmentWindow(count=1, start=0.0, end=100.0)
        assert segment.arrival_time(0) == 50.0

    def test_gamma_backloads(self):
        even = SegmentWindow(count=10, start=0.0, end=100.0, gamma=1.0)
        late = SegmentWindow(count=10, start=0.0, end=100.0, gamma=3.0)
        assert late.arrival_time(2) < even.arrival_time(2)

    def test_position_out_of_range(self):
        segment = SegmentWindow(count=5, start=0.0, end=1.0)
        with pytest.raises(ConfigurationError):
            segment.arrival_time(5)

    def test_inverted_window_rejected(self):
        with pytest.raises(ConfigurationError):
            SegmentWindow(count=1, start=10.0, end=5.0)

    def test_bad_gamma_rejected(self):
        with pytest.raises(ConfigurationError):
            SegmentWindow(count=1, start=0.0, end=1.0, gamma=0.0)


class TestArrivalSchedule:
    def test_needs_segments(self):
        with pytest.raises(ConfigurationError):
            ArrivalSchedule([])

    def test_overlapping_segments_rejected(self):
        with pytest.raises(ConfigurationError):
            ArrivalSchedule([
                SegmentWindow(count=1, start=0.0, end=10.0),
                SegmentWindow(count=1, start=5.0, end=20.0),
            ])

    def test_monotone_arrivals_across_segments(self):
        schedule = ArrivalSchedule([
            SegmentWindow(count=50, start=0.0, end=100.0),
            SegmentWindow(count=50, start=100.0, end=110.0),  # a burst
            SegmentWindow(count=50, start=110.0, end=500.0),
        ])
        times = [schedule.arrival_time(i) for i in range(150)]
        assert times == sorted(times)

    def test_size_at_is_inverse_of_arrival(self):
        schedule = even_schedule(200, 0.0, 1000.0)
        for position in (0, 1, 57, 199):
            moment = schedule.arrival_time(position)
            assert schedule.size_at(moment) >= position + 1
            assert schedule.size_at(moment - 1e-6) <= position + 1

    def test_size_before_start_is_zero(self):
        schedule = even_schedule(100, 50.0, 100.0)
        assert schedule.size_at(0.0) == 0

    def test_size_at_ref_is_base_count(self):
        schedule = even_schedule(100, 0.0, 10.0)
        assert schedule.size_at(10.0) == 100
        assert schedule.base_count == 100

    def test_trickle_growth(self):
        schedule = even_schedule(100, 0.0, 10.0, post_ref_daily=24.0)
        assert schedule.size_at(10.0 + DAY) == 124
        assert schedule.size_at(10.0 + 2 * DAY) == 148

    def test_trickle_arrival_times_monotone(self):
        schedule = even_schedule(10, 0.0, 10.0, post_ref_daily=5.0)
        times = [schedule.arrival_time(i) for i in range(10, 30)]
        assert times == sorted(times)
        assert all(t >= 10.0 for t in times)

    def test_position_beyond_non_growing_schedule(self):
        schedule = even_schedule(10, 0.0, 10.0)
        with pytest.raises(ConfigurationError):
            schedule.arrival_time(10)

    def test_negative_position(self):
        schedule = even_schedule(10, 0.0, 10.0)
        with pytest.raises(ConfigurationError):
            schedule.arrival_time(-1)


class TestScheduleProperties:
    @given(
        counts=st.lists(st.integers(min_value=1, max_value=40),
                        min_size=1, max_size=5),
        trickle=st.floats(min_value=0.0, max_value=100.0),
    )
    @settings(max_examples=40, deadline=None)
    def test_property_arrivals_sorted_and_size_consistent(self, counts, trickle):
        cursor = 0.0
        segments = []
        for count in counts:
            segments.append(SegmentWindow(
                count=count, start=cursor, end=cursor + 100.0))
            cursor += 100.0
        schedule = ArrivalSchedule(segments, post_ref_daily=trickle)
        total = sum(counts)
        times = [schedule.arrival_time(i) for i in range(total)]
        assert times == sorted(times)
        # size_at at each arrival instant counts that arrival.
        for position in range(0, total, max(1, total // 7)):
            assert schedule.size_at(times[position]) >= position + 1


class TestPostRefBursts:
    REF = 10.0

    def _schedule(self, trickle=4.0, bursts=None):
        if bursts is None:
            bursts = ((self.REF + 0.6 * DAY, 6),)
        return ArrivalSchedule(
            [SegmentWindow(count=10, start=0.0, end=self.REF)],
            post_ref_daily=trickle, post_ref_bursts=bursts)

    def test_size_steps_by_burst_count_at_the_instant(self):
        schedule = self._schedule()
        at = self.REF + 0.6 * DAY
        assert schedule.size_at(at - 1e-6) == 12  # base 10 + 2 trickle
        assert schedule.size_at(at) == 18
        assert schedule.size_at(self.REF + DAY) == 20  # trickle resumes

    def test_burst_members_share_a_zero_length_pseudo_segment(self):
        schedule = self._schedule()
        at = self.REF + 0.6 * DAY
        for position in range(12, 18):
            index, window = schedule.segment_of(position)
            assert index == 2  # len(segments) + 1 + burst 0
            assert (window.start, window.end) == (at, at)
            assert schedule.arrival_time(position) == at

    def test_arrival_order_interleaves_trickle_and_bursts(self):
        schedule = self._schedule(bursts=((self.REF + 0.3 * DAY, 3),
                                          (self.REF + 0.6 * DAY, 4)))
        times = [schedule.arrival_time(p) for p in range(10, 24)]
        assert times == sorted(times)
        # extra 1..3 -> first burst, extra 5..8 -> second burst.
        assert [schedule.segment_of(10 + e)[0] for e in range(10)] == \
            [1, 2, 2, 2, 1, 3, 3, 3, 3, 1]

    def test_size_at_inverse_of_arrival_time_with_bursts(self):
        schedule = self._schedule()
        for position in range(22):
            moment = schedule.arrival_time(position)
            index, __ = schedule.segment_of(position)
            if index == 1:
                # Trickle arrivals are *timestamped* mid-window but
                # *counted* at the full inter-arrival gap (the pre-burst
                # flooring convention) — they lag by at most themselves.
                assert schedule.size_at(moment) >= position
            else:
                assert schedule.size_at(moment) >= position + 1
            assert schedule.size_at(moment - 1e-6) <= position + 1

    def test_no_burst_schedule_bit_identical(self):
        plain = even_schedule(10, 0.0, self.REF, post_ref_daily=4.0)
        empty = self._schedule(bursts=())
        for position in range(18):
            assert empty.arrival_time(position) == plain.arrival_time(position)
            assert empty.segment_of(position) == plain.segment_of(position)
        for moment in (0.0, 5.0, self.REF, self.REF + 0.7 * DAY,
                       self.REF + 3 * DAY):
            assert empty.size_at(moment) == plain.size_at(moment)

    def test_burst_before_reference_rejected(self):
        with pytest.raises(ConfigurationError):
            self._schedule(bursts=((self.REF - 1.0, 5),))

    def test_burst_count_must_be_positive(self):
        with pytest.raises(ConfigurationError):
            self._schedule(bursts=((self.REF + DAY, 0),))

    def test_burst_without_trickle_still_reachable(self):
        schedule = self._schedule(trickle=0.0)
        at = self.REF + 0.6 * DAY
        assert schedule.size_at(at) == 16
        assert schedule.arrival_time(12) == at
        with pytest.raises(ConfigurationError):
            schedule.arrival_time(16)  # beyond base + burst


class TestTranchesAndDepartures:
    REF = 10.0

    def _schedule(self, bursts, trickle=24.0):
        return ArrivalSchedule(
            [SegmentWindow(count=10, start=0.0, end=self.REF)],
            post_ref_daily=trickle, post_ref_bursts=bursts)

    def test_tranches_land_hourly_from_the_order_instant(self):
        at = self.REF + 0.5 * HOUR
        schedule = self._schedule(((at, 7, 3, 0.0),), trickle=0.0)
        assert [schedule.size_at(at + hour * HOUR - 1e-6)
                for hour in range(4)] == [10, 13, 16, 17]
        assert [schedule.arrival_time(p) for p in range(10, 17)] == \
            [at] * 3 + [at + HOUR] * 3 + [at + 2 * HOUR]
        # Every tranche belongs to the same burst segment.
        assert {schedule.segment_of(p)[0] for p in range(10, 17)} == {2}

    def test_positions_match_a_linear_replay(self):
        """Bisection over tranche prefixes equals sorting every arrival."""
        bursts = ((self.REF + 0.3 * DAY, 250, 7, 0.0),
                  (self.REF + 0.4 * DAY, 30),
                  (self.REF + 2.0 * DAY, 40, 1, 0.0))
        schedule = self._schedule(bursts, trickle=30.0)
        horizon = self.REF + 4 * DAY
        trickle = [(self.REF + (k + 1) * DAY / 30.0, 0)
                   for k in range(schedule.size_at(horizon))]
        members = []
        for index, (at, count, *rest) in enumerate(bursts):
            per_hour = rest[0] if rest else count
            members += [(at + (m // per_hour) * HOUR, 3 + index)
                        for m in range(count)]
        # Trickle arrivals sort before a tranche landing at the instant
        # they are counted, as size_at counts them.
        arrivals = sorted(trickle + members)
        size = schedule.size_at(horizon)
        for offset, (moment, kind) in enumerate(arrivals[:size - 10]):
            index, __ = schedule.segment_of(10 + offset)
            assert index == (1 if kind == 0 else kind - 1)
            if kind:
                assert schedule.arrival_time(10 + offset) == moment

    def test_departures_follow_the_integer_rule(self):
        at = self.REF + HOUR
        schedule = self._schedule(((at, 5000, 1000, 0.04),), trickle=0.0)
        last = at + 4 * HOUR
        alive, departed = 5000, 0
        assert schedule.departed_at(last + DAY - 1.0) == 0
        for day in range(1, 200):
            gone = alive * 40_000 // 1_000_000
            alive, departed = alive - gone, departed + gone
            assert schedule.departed_at(last + day * DAY) == departed, day
            assert schedule.count_at(last + day * DAY) == 10 + alive
        assert alive == 24  # 24 * 4% < 1: nobody leaves any more
        assert schedule.departed_at(last + 10_000 * DAY) == 5000 - 24

    def test_earliest_delivered_leave_first(self):
        at = self.REF + 0.5 * HOUR
        schedule = self._schedule(((at, 7, 3, 0.3),))
        # Tranches at 0.5 h (positions 10-12), 1.5 h (14-16, after the
        # 1 h trickle arrival) and 2.5 h (18); attrition from 26.5 h.
        before = self.REF + 26 * HOUR
        assert schedule.positions(range(3), before) == range(3)
        now = self.REF + 75 * HOUR  # three days: 2, 1 and 1 leave
        assert schedule.departed_at(now) == 4
        listed = schedule.positions(list(range(schedule.count_at(now))), now)
        assert listed[:12] == [0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 13, 15]
        assert listed == sorted(listed)
        assert len(listed) == schedule.size_at(now) - 4
