"""Unit tests for the detector bridge (follower streams -> burst alerts)."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core import DAY, PAPER_EPOCH, ConfigurationError
from repro.growth import BurstDetector
from repro.obs.live import AlertLog, DetectorBridge, LiveTelemetry

from .bridge_oracle import OracleBridge


def _feed_organic(bridge, handle, days, per_day=100, start_count=1000):
    """Feed ``days`` daily readings of steady organic growth."""
    count = start_count
    for day in range(days):
        count += per_day + (day % 3)  # small deterministic jitter
        bridge.observe(handle, day * DAY + 60.0, count)
    return count


def _held(bridge, handle):
    """How many readings the bridge holds for ``handle``."""
    return int(bridge._series.held(np.array([bridge._rows[handle]]))[0])


def _growth(bridge, handle):
    """The daily series of ``handle``'s held readings."""
    return bridge._series.growth(bridge._rows[handle])


def _held_series(bridge):
    """Every handle's held-reading count and daily series."""
    return {handle: (_held(bridge, handle), _growth(bridge, handle))
            for handle in bridge._rows}


class TestDetectorBridge:
    def test_no_alert_on_organic_growth(self):
        log = AlertLog()
        bridge = DetectorBridge(log)
        _feed_organic(bridge, "calm", 20)
        assert log.events == ()

    def test_burst_fires_and_resolves(self):
        log = AlertLog()
        bridge = DetectorBridge(log)
        count = _feed_organic(bridge, "buyer", 12)
        # Day 12: a purchased block lands.
        fired = bridge.observe("buyer", 12 * DAY + 60.0, count + 5000)
        assert fired
        assert log.active() == ("burst:buyer",)
        details = dict(log.events[0].details)
        assert details["arrivals"] == 5000  # delta from the prior reading
        assert details["excess"] > 4000
        # Next day back to baseline: the alert resolves.
        bridge.observe("buyer", 13 * DAY + 60.0, count + 5000 + 100)
        assert log.active() == ()
        assert log.counts() == (1, 1)

    def test_same_burst_day_is_reported_once(self):
        log = AlertLog()
        bridge = DetectorBridge(log)
        count = _feed_organic(bridge, "buyer", 12)
        bridge.observe("buyer", 12 * DAY + 60.0, count + 5000)
        bridge.observe("buyer", 13 * DAY + 60.0, count + 5100)
        # The burst day stays in the series but must not re-fire.
        fired = bridge.observe("buyer", 14 * DAY + 60.0, count + 5200)
        assert not fired
        assert log.counts() == (1, 1)

    def test_threshold_configuration_flows_through(self):
        # A modest spike: ~8x the organic day.  The default detector
        # flags it; a stricter min_excess ignores it.
        lenient_log, strict_log = AlertLog(), AlertLog()
        lenient = DetectorBridge(lenient_log, BurstDetector(min_excess=50))
        strict = DetectorBridge(strict_log,
                                BurstDetector(min_excess=2000))
        for bridge in (lenient, strict):
            count = _feed_organic(bridge, "t", 12)
            bridge.observe("t", 12 * DAY + 60.0, count + 800)
        assert lenient_log.counts() == (1, 0)
        assert strict_log.counts() == (0, 0)

    def test_detection_waits_for_min_history(self):
        log = AlertLog()
        bridge = DetectorBridge(log, min_history=10)
        count = 1000
        for day in range(9):
            count += 100 if day < 8 else 9000
            assert not bridge.observe("t", day * DAY, count)
        assert log.events == ()

    def test_history_and_reported_sets_stay_bounded(self):
        bridge = DetectorBridge(AlertLog(), min_history=5, max_history=16)
        _feed_organic(bridge, "t", 100)
        assert _held(bridge, "t") == 16
        assert len(_growth(bridge, "t")) == 15  # one day per interval
        assert len(bridge._reported.get(bridge._rows["t"], ())) <= 16

    def test_follower_streams_mirror_readings(self):
        bridge = DetectorBridge(AlertLog(), origin=0.0)
        bridge.observe("t", 60.0, 1000)
        stream = bridge.stream("t")
        assert stream.name == "followers:t"
        assert stream.latest().last == 1000.0
        assert set(bridge.streams()) == {"t"}

    def test_out_of_order_reading_is_rejected_and_changes_nothing(self):
        log, clean_log = AlertLog(), AlertLog()
        bridge, clean = DetectorBridge(log), DetectorBridge(clean_log)
        count = 1000
        for day in range(3):  # still short of min_history
            count += 100
            bridge.observe("t", day * DAY + 60.0, count)
            clean.observe("t", day * DAY + 60.0, count)
        for stale in (2 * DAY + 60.0, 1 * DAY):  # equal to / before the last
            with pytest.raises(ConfigurationError):
                bridge.observe("t", stale, count + 100)
        assert bridge.stream("t").total_count == 3
        # Later valid readings carry on exactly as if the bad ones
        # never arrived, and the purchase still pages.
        for day in range(3, 12):
            count += 100
            bridge.observe("t", day * DAY + 60.0, count)
            clean.observe("t", day * DAY + 60.0, count)
        assert bridge.observe("t", 12 * DAY + 60.0, count + 5000)
        assert clean.observe("t", 12 * DAY + 60.0, count + 5000)
        assert log.to_jsonl() == clean_log.to_jsonl()
        assert bridge.stream("t").points() == clean.stream("t").points()

    def test_validates_history_bounds(self):
        with pytest.raises(ConfigurationError):
            DetectorBridge(AlertLog(), min_history=4)
        with pytest.raises(ConfigurationError):
            DetectorBridge(AlertLog(), min_history=8, max_history=4)


#: One reading step: (seconds since the previous reading, count change).
_STEP = st.tuples(
    st.one_of(
        st.floats(0.6 * DAY, 1.4 * DAY),     # a jittered daily poll
        st.floats(1.5 * DAY, 4.4 * DAY),     # an outage spanning days
        st.floats(60.0, 0.49 * DAY)),        # a re-poll within the day
    st.one_of(
        st.integers(80, 120),                # organic growth
        st.integers(-300, -1),               # net churn
        st.integers(2_000, 20_000),          # a purchased block lands
        st.just(0)))


class TestBridgeAgainstOracle:
    """The incremental bridge equals rebuild-per-reading evaluation."""

    @settings(max_examples=150, deadline=None)
    @given(steps=st.lists(st.tuples(st.integers(0, 2), _STEP),
                          min_size=1, max_size=90),
           max_history=st.sampled_from([8, 12, 256]),
           min_history=st.integers(5, 8),
           threshold=st.sampled_from([3.0, 6.0]),
           min_excess=st.sampled_from([0, 50]))
    def test_alerts_and_returns_match(self, steps, max_history, min_history,
                                      threshold, min_excess):
        log, oracle_log = AlertLog(), AlertLog()
        bridge = DetectorBridge(
            log, BurstDetector(threshold=threshold, min_excess=min_excess),
            min_history=min_history, max_history=max_history)
        oracle = OracleBridge(
            oracle_log, threshold=threshold, min_excess=min_excess,
            min_history=min_history, max_history=max_history)
        clocks = {}
        for handle_index, (gap, change) in steps:
            handle = f"h{handle_index}"
            t, count = clocks.get(handle, (PAPER_EPOCH + 60.0, 10_000))
            t, count = t + gap, max(0, count + change)
            clocks[handle] = (t, count)
            assert bridge.observe(handle, t, count) \
                == oracle.observe(handle, t, count)
        assert log.to_jsonl() == oracle_log.to_jsonl()

    @pytest.mark.parametrize("period", [5, 17])
    def test_roll_off_with_a_short_history(self, period):
        """60 readings through an 8-reading window, bursts rolling off.

        Every other reading is late by a tenth of a day, so as readings
        roll off the window's day grid shifts off and back onto the
        instants of days already reported: only a reported set pruned
        exactly as specified keeps fire/resolve in step.
        """
        log, oracle_log = AlertLog(), AlertLog()
        bridge = DetectorBridge(log, min_history=5, max_history=8)
        oracle = OracleBridge(oracle_log, min_history=5, max_history=8)
        count = 1000
        for day in range(60):
            count += 5000 if day % period == 4 else 100 + day % 3
            t = PAPER_EPOCH + day * DAY + (0.1 * DAY if day % 2 else 0.0) \
                + (3 * DAY if day > 30 else 0.0)
            assert bridge.observe("t", t, count) \
                == oracle.observe("t", t, count)
        assert log.counts()[0] >= 2
        assert log.to_jsonl() == oracle_log.to_jsonl()


def _points(bridge):
    """Every per-handle follower stream's panes and totals."""
    return {handle: (stream.points(), stream.total_count, stream.total_sum)
            for handle, stream in bridge.streams().items()}


def _plane(**bridge_options):
    live = LiveTelemetry(origin=PAPER_EPOCH, pane_width=DAY)
    live.attach_bridge(DetectorBridge(live.alerts, origin=PAPER_EPOCH,
                                      **bridge_options))
    return live


def _totals(live):
    """Lifetime totals of every stream the plane's SLO rules can read."""
    streams = dict(live.streams())
    streams.update((stream.name, stream)
                   for stream in live.bridge.streams().values())
    return {name: (stream.total_count, stream.total_sum)
            for name, stream in streams.items()}


def _page_t(day):
    return PAPER_EPOCH + day * DAY + 60.0


#: One page: (seconds since the previous page, per handle of five the
#: count change, or None when the page lost that handle's reading).
_PAGE = st.tuples(
    st.one_of(st.floats(0.6 * DAY, 1.4 * DAY), st.floats(1.5 * DAY, 3.4 * DAY),
              st.floats(60.0, 0.49 * DAY)),
    st.lists(st.one_of(st.none(), st.integers(80, 120),
                       st.integers(-300, -1), st.integers(2_000, 20_000)),
             min_size=5, max_size=5))


class TestObservePage:
    """``observe_page`` equals one reading at a time, on a twin plane and
    against the rebuild-per-reading oracle."""

    def run_twins(self, pages, min_history=5, max_history=256,
                  min_excess=50):
        options = dict(min_history=min_history, max_history=max_history,
                       detector=BurstDetector(min_excess=min_excess))
        paged, single = _plane(**options), _plane(**options)
        oracle_log = AlertLog()
        oracle = OracleBridge(oracle_log, min_excess=min_excess,
                              min_history=min_history,
                              max_history=max_history)
        t = PAPER_EPOCH + 60.0
        counts = [10_000] * 5
        for gap, changes in pages:
            t += gap
            handles, readings = [], []
            for index, change in enumerate(changes):
                if change is None:
                    continue  # this handle's reading was lost
                counts[index] = max(0, counts[index] + change)
                handles.append(f"h{index}")
                readings.append(counts[index])
            fired = paged.observe_page(t, handles, readings)
            assert fired == [single.observe_followers(handle, t, count)
                             for handle, count in zip(handles, readings)]
            assert fired == [oracle.observe(handle, t, count)
                             for handle, count in zip(handles, readings)]
            for live in (paged, single):
                live.tick(t)
        assert paged.alerts.to_jsonl() == single.alerts.to_jsonl() \
            == oracle_log.to_jsonl()
        assert _points(paged.bridge) == _points(single.bridge)
        assert _totals(paged) == _totals(single)
        return paged

    @settings(max_examples=100, deadline=None)
    @given(pages=st.lists(_PAGE, min_size=1, max_size=60),
           max_history=st.sampled_from([8, 12, 256]),
           min_excess=st.sampled_from([0, 50, 5_000]))
    def test_equals_one_reading_at_a_time(self, pages, max_history,
                                          min_excess):
        self.run_twins(pages, max_history=max_history,
                       min_excess=min_excess)

    def test_lost_pages_are_gap_normalised(self):
        """Handle h0 misses two pages; its next reading spreads the
        three days' growth instead of paging on a false burst."""
        pages = [(DAY, [100] * 5) for __ in range(10)]
        pages += [(DAY, [None] + [100] * 4), (DAY, [None] + [100] * 4),
                  (DAY, [301] + [100] * 4)]
        pages += [(DAY, [100] * 5) for __ in range(5)]
        paged = self.run_twins(pages)
        assert paged.alerts.events == ()
        assert _growth(paged.bridge, "h0").arrivals[-8:-5] == (101, 100, 100)

    def test_roll_off_at_a_small_max_history(self):
        pages = [(DAY + (0.1 * DAY if day % 2 else 0.0),
                  [5_000 if day % 9 == 4 else 100] * 5)
                 for day in range(50)]
        paged = self.run_twins(pages, max_history=8)
        assert paged.alerts.counts()[0] >= 5
        assert all(_held(paged.bridge, handle) == 8
                   for handle in paged.bridge._rows)

    @pytest.mark.parametrize("stale", ["equal", "earlier", "twice"])
    def test_one_stale_reading_rejects_the_whole_page(self, stale):
        """A page holding one stale reading raises and records none of
        its readings, as a single stale reading does."""
        paged, clean = _plane(), _plane()
        handles = ["a", "b", "c"]
        count = 1_000
        for day in range(10):
            count += 100
            for live in (paged, clean):
                live.observe_page(_page_t(day), handles, [count] * 3)
        late_b = _page_t(9) + 0.5 * DAY  # b alone was read again
        for live in (paged, clean):
            live.observe_followers("b", late_b, count + 50)
        before = (_points(paged.bridge), paged.alerts.to_jsonl())
        page_t, page = {
            "equal": (late_b, handles),            # b at its last instant
            "earlier": (late_b - 0.25 * DAY, handles),  # b before it
            "twice": (_page_t(10), ["a", "c", "c"]),  # c named twice
        }[stale]
        with pytest.raises(ConfigurationError, match="not after"):
            paged.observe_page(page_t, page, [count + 9_000] * 3)
        assert (_points(paged.bridge), paged.alerts.to_jsonl()) == before
        for day in range(10, 13):
            count += 100 if day != 11 else 5_000
            for live in (paged, clean):
                live.observe_page(_page_t(day), handles, [count] * 3)
        assert paged.alerts.counts()[0] == 3
        assert paged.alerts.to_jsonl() == clean.alerts.to_jsonl()
        assert _points(paged.bridge) == _points(clean.bridge)

    def test_page_and_counts_must_pair_up(self):
        with pytest.raises(ConfigurationError):
            _plane().observe_page(60.0, ["a", "b"], [1])

    def test_without_a_bridge_nothing_pages(self):
        assert LiveTelemetry().observe_page(60.0, ["a", "b"], [1, 2]) == \
            [False, False]


def _stream_views(streams, now):
    """What a reader sees of each stream, floats by their bits."""
    def bits(point):
        return None if point is None else tuple(
            value.hex() if isinstance(value, float) else value
            for value in vars(point).values())
    return {name: ([bits(point) for point in stream.points()],
                   bits(stream.latest()),
                   [bits(stream.trailing(now, horizon))
                    for horizon in (0.5 * DAY, 3 * DAY, 400 * DAY)],
                   stream.total_count, stream.total_sum.hex())
            for name, stream in streams.items()}


#: One page: (seconds since the previous page, whether each reading has
#: its own instant, per handle of six the count change or None when the
#: page lost it).
_ARRAY_PAGE = st.tuples(
    st.one_of(st.floats(0.6 * DAY, 1.4 * DAY), st.floats(1.5 * DAY, 3.4 * DAY),
              st.floats(60.0, 0.49 * DAY)),
    st.booleans(),
    st.lists(st.one_of(st.none(), st.integers(80, 120),
                       st.integers(-300, -1), st.integers(2_000, 20_000)),
             min_size=6, max_size=6))


class TestPagesAgainstTheOracle:
    """A plane ingesting pages as arrays against the oracle fed one
    reading at a time: fired flags, the alert log, and every handle's
    follower stream as read (panes, latest, trailing windows, totals).
    """

    def run(self, pages, *, min_history=5, max_history=256, min_excess=50,
            check_every_page=False):
        live = _plane(min_history=min_history, max_history=max_history,
                      detector=BurstDetector(min_excess=min_excess))
        oracle_log = AlertLog()
        oracle = OracleBridge(oracle_log, min_excess=min_excess,
                              min_history=min_history,
                              max_history=max_history, origin=PAPER_EPOCH)
        t = PAPER_EPOCH + 60.0
        counts = [10_000] * 6
        for gap, staggered, changes in pages:
            t += gap
            handles, readings, instants = [], [], []
            for index, change in enumerate(changes):
                if change is None:
                    continue  # this handle's reading was lost
                counts[index] = max(0, counts[index] + change)
                handles.append(f"h{index}")
                readings.append(counts[index])
                # Staggered pages read each handle a minute apart; the
                # plane clamps each reading to its last tick.
                instants.append(live.clamp(
                    t + 60.0 * index if staggered else t))
            page_t = instants if staggered else live.clamp(t)
            fired = live.observe_page(page_t, handles, readings)
            assert fired == [oracle.observe(handle, at, count)
                             for handle, at, count
                             in zip(handles, instants, readings)]
            tick = t + 3600.0
            live.tick(tick)
            oracle.close_until(tick)
            if check_every_page:
                self.assert_streams_match(live, oracle, tick)
        assert live.alerts.to_jsonl() == oracle_log.to_jsonl()
        self.assert_streams_match(live, oracle, t + 3600.0)
        return live

    @staticmethod
    def assert_streams_match(live, oracle, now):
        built = {stream.name: stream
                 for stream in live.bridge.streams().values()}
        assert _stream_views(built, now) == _stream_views(
            {stream.name: stream for stream in oracle.streams.values()}, now)
        for handle, stream in oracle.streams.items():
            assert live.find_stream(f"followers:{handle}").points() \
                == stream.points()

    @settings(max_examples=80, deadline=None)
    @given(pages=st.lists(_ARRAY_PAGE, min_size=1, max_size=50),
           max_history=st.sampled_from([8, 12, 256]),
           min_excess=st.sampled_from([0, 50, 5_000]))
    def test_equals_one_reading_at_a_time(self, pages, max_history,
                                          min_excess):
        self.run(pages, max_history=max_history, min_excess=min_excess)

    def test_multi_day_gaps_after_503_losses(self):
        """A storm loses three days of pages for half the fleet; their
        next readings spread the gap, and a purchase after it pages."""
        calm = [(DAY, False, [100] * 6) for __ in range(10)]
        storm = [(DAY, False, [None, None, None, 100, 100, 100])
                 for __ in range(3)]
        after = [(DAY, False, [401, 400, 400, 100, 100, 100])]
        after += [(DAY, False, [100] * 6) for __ in range(4)]
        after += [(DAY, True, [100, 9_000, 100, 100, 100, 100])]
        after += [(DAY, False, [100] * 6) for __ in range(3)]
        live = self.run(calm + storm + after, check_every_page=True)
        assert [event.name for event in live.alerts.events
                if event.kind == "fire"] == ["burst:h1"]
        assert _growth(live.bridge, "h0").arrivals[9:13] == \
            (101, 100, 100, 100)

    def test_roll_off_at_max_history_8(self):
        pages = [(DAY + (0.1 * DAY if day % 2 else 0.0), day % 3 == 0,
                  [5_000 if day % 9 == 4 else 100] * 6)
                 for day in range(40)]
        live = self.run(pages, max_history=8, check_every_page=True)
        assert live.alerts.counts()[0] >= 5
        assert all(_held(live.bridge, handle) == 8
                   for handle in live.bridge._rows)

    def test_a_day_exactly_min_excess_over_the_median_pages(self):
        """The page-wide exit keeps a handle whose largest day is
        exactly ``min_excess`` above its median (z = 5 over a steady
        100-a-day baseline, past the 3.0 threshold)."""
        live = _plane(detector=BurstDetector(threshold=3.0, min_excess=50))
        handles = ["a", "b"]
        for day in range(8):
            live.observe_page(_page_t(day), handles,
                              [1_000 + 100 * day] * 2)
        assert live.observe_page(_page_t(8), handles,
                                 [1_700 + 150, 1_700 + 149]) == [True, False]

    def test_streams_past_the_retained_panes(self):
        """Three hundred daily readings: each stream keeps its newest
        256 panes, and whether the newest is open or closed by the last
        tick decides whether a 257th shows."""
        pages = [(DAY, day % 7 == 0, [100, 90, None if day % 5 else 300,
                                      100, 100, 100])
                 for day in range(300)]
        live = self.run(pages)
        # The last tick fell in the newest reading's pane: it is open.
        assert sorted(len(stream.points())
                      for stream in live.bridge.streams().values()) == \
            [60] + [257] * 5
        live.tick(live.watermark + DAY)
        assert sorted(len(stream.points())
                      for stream in live.bridge.streams().values()) == \
            [60] + [256] * 5

    @pytest.mark.parametrize("bad", ["stale", "duplicate"])
    def test_a_bad_reading_in_a_staggered_page_records_nothing(self, bad):
        live = _plane()
        handles = ["a", "b", "c"]
        for day in range(10):
            live.observe_page(_page_t(day), handles, [1_000 + day] * 3)
        before = (_stream_views(live.all_streams(), _page_t(10)),
                  live.alerts.to_jsonl(),
                  _held_series(live.bridge))
        page, instants = {
            # c's instant is its last reading's.
            "stale": (["a", "b", "c"],
                      [_page_t(10), _page_t(10) + 60.0, _page_t(9)]),
            # b twice, the second later than the first.
            "duplicate": (["a", "b", "b"],
                          [_page_t(10), _page_t(10), _page_t(10) + 60.0]),
        }[bad]
        with pytest.raises(ConfigurationError, match="not after"):
            live.observe_page(instants, page, [9_000] * 3)
        assert (_stream_views(live.all_streams(), _page_t(10)),
                live.alerts.to_jsonl(),
                _held_series(live.bridge)) == before


class TestTelemetryBridgeHook:
    def test_observe_followers_routes_through_the_bridge(self):
        live = LiveTelemetry()
        assert not live.observe_followers("t", 60.0, 1000)  # no bridge yet
        live.attach_bridge(DetectorBridge(live.alerts))
        count = 1000
        for day in range(12):
            count += 100
            live.observe_followers("t", day * DAY + 60.0, count)
        assert live.observe_followers("t", 12 * DAY + 60.0, count + 5000)
        assert live.alerts.active() == ("burst:t",)
