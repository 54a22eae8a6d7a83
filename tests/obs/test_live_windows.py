"""Unit tests for the streaming window primitives (repro.obs.live)."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core import ConfigurationError
from repro.obs.live import (
    CounterRateStream,
    GaugeStream,
    WindowSpec,
    WindowStream,
)
from repro.obs.live.windows import PaneBlock


class TestWindowSpec:
    def test_pane_boundaries_depend_only_on_the_spec(self):
        spec = WindowSpec(width=10.0, origin=100.0)
        assert spec.index_of(100.0) == 0
        assert spec.index_of(109.999) == 0
        assert spec.index_of(110.0) == 1
        assert spec.bounds(3) == (130.0, 140.0)

    def test_negative_times_fall_into_negative_panes(self):
        spec = WindowSpec(width=10.0, origin=0.0)
        assert spec.index_of(-0.5) == -1

    def test_rejects_bad_geometry(self):
        with pytest.raises(ConfigurationError):
            WindowSpec(width=0.0)
        with pytest.raises(ConfigurationError):
            WindowSpec(width=1.0, retain=0)
        with pytest.raises(ConfigurationError):
            WindowSpec(width=1.0, retain=10**6)


class TestWindowStream:
    def test_tumbling_aggregation(self):
        stream = WindowStream("s", WindowSpec(width=10.0))
        stream.observe(1.0, 2.0)
        stream.observe(5.0, 4.0)
        stream.observe(12.0, 8.0)  # rolls pane 0 closed
        points = stream.points()
        assert [p.index for p in points] == [0, 1]
        first = points[0]
        assert (first.count, first.sum, first.min, first.max) == (2, 6.0, 2.0, 4.0)
        assert first.mean == 3.0
        assert stream.total_count == 3
        assert stream.total_sum == 14.0

    def test_empty_panes_are_skipped(self):
        stream = WindowStream("s", WindowSpec(width=1.0))
        stream.observe(0.5, 1.0)
        stream.observe(100.5, 1.0)  # 99 empty panes in between
        assert [p.index for p in stream.points()] == [0, 100]

    def test_out_of_order_observation_clamps_into_open_pane(self):
        stream = WindowStream("s", WindowSpec(width=10.0))
        stream.observe(25.0, 1.0)  # pane 2 open
        stream.observe(3.0, 5.0)   # pane 0 already conceptually closed
        points = stream.points()
        assert len(points) == 1
        assert points[0].index == 2
        assert points[0].count == 2

    def test_retention_ring_bounds_memory(self):
        stream = WindowStream("s", WindowSpec(width=1.0, retain=4))
        for k in range(10):
            stream.observe(k + 0.5, 1.0)
        points = stream.points()
        assert len(points) == 5  # 4 retained closed + the open pane
        assert points[0].index == 5
        assert stream.total_count == 10  # lifetime totals unaffected

    def test_close_until_closes_elapsed_panes(self):
        stream = WindowStream("s", WindowSpec(width=10.0))
        stream.observe(5.0, 1.0)
        assert stream.latest().index == 0
        stream.close_until(25.0)
        stream.close_until(35.0)  # idempotent with no open pane
        assert [p.index for p in stream.points()] == [0]

    def test_trailing_covers_only_the_horizon(self):
        stream = WindowStream("s", WindowSpec(width=10.0))
        for k in range(5):
            stream.observe(k * 10.0 + 5.0, float(k))
        window = stream.trailing(now=50.0, horizon=20.0)
        # Panes ending after t=30: panes 3 and 4.
        assert window.count == 2
        assert window.sum == 7.0
        assert window.min == 3.0 and window.max == 4.0
        assert window.last == 4.0

    def test_trailing_rejects_non_positive_horizon(self):
        stream = WindowStream("s", WindowSpec(width=10.0))
        with pytest.raises(ConfigurationError):
            stream.trailing(0.0, 0.0)

    def test_needs_a_name(self):
        with pytest.raises(ConfigurationError):
            WindowStream("", WindowSpec(width=1.0))

    def test_replay_determinism(self):
        feed = [(t * 3.7, float(t % 5)) for t in range(50)]

        def run():
            stream = WindowStream("s", WindowSpec(width=10.0))
            for t, v in feed:
                stream.observe(t, v)
            return stream.points()

        assert run() == run()


def _state(stream):
    """Everything a stream exposes, floats by their bits."""
    def bits(value):
        return None if value is None else float(value).hex()

    return ([(p.index, p.start, p.end, p.count, bits(p.sum), bits(p.min),
              bits(p.max), bits(p.last)) for p in stream.points()],
            stream.total_count, bits(stream.total_sum))


class TestObserveMany:
    """``observe_many`` is a loop of ``observe`` at one instant."""

    def twins(self, batches, width=10.0, retain=256):
        one, many = (WindowStream("s", WindowSpec(width=width, retain=retain))
                     for __ in range(2))
        for t, values in batches:
            for value in values:
                one.observe(t, value)
            many.observe_many(t, values)
            assert _state(many) == _state(one)
        return one, many

    #: Values whose float sum depends on the order they are added in.
    _VALUE = st.one_of(st.sampled_from([0.1, 0.2, 0.3, 1e16, -1e16, 1.0,
                                        -0.0, 3.0]),
                       st.floats(-1e6, 1e6, allow_nan=False))

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.tuples(st.floats(-50.0, 200.0),
                              st.lists(_VALUE, max_size=6)),
                    max_size=25),
           st.sampled_from([1, 3, 256]))
    def test_equals_a_loop_of_observe(self, batches, retain):
        self.twins(batches, retain=retain)

    def test_count_sum_extrema_last_and_totals(self):
        __, many = self.twins([(5.0, [1e16, 1.0, -1e16, 2.0, 0.5])])
        (point,) = many.points()
        assert (point.count, point.min, point.max, point.last) == \
            (5, -1e16, 1e16, 0.5)
        assert point.sum == ((((1e16 + 1.0) + -1e16) + 2.0) + 0.5)
        assert many.total_count == 5 and many.total_sum == point.sum

    def test_clamps_into_the_open_pane(self):
        __, many = self.twins([(25.0, [1.0]), (3.0, [5.0, 7.0])])
        (point,) = many.points()
        assert (point.index, point.count, point.sum) == (2, 3, 13.0)

    def test_rolls_to_a_new_pane(self):
        __, many = self.twins([(5.0, [1.0, 2.0]), (12.0, [4.0, 8.0])])
        assert [(p.index, p.count, p.sum) for p in many.points()] == \
            [(0, 2, 3.0), (1, 2, 12.0)]

    def test_empty_input_is_a_no_op(self):
        one, many = self.twins([(5.0, [1.0]), (50.0, [])])
        assert [p.index for p in many.points()] == [0]
        fresh = WindowStream("s", WindowSpec(width=10.0))
        fresh.observe_many(5.0, [])
        assert fresh.points() == () and fresh.total_count == 0


def _read(stream, now):
    """What a reader sees of a stream: panes, latest, trailing windows
    and totals, floats by their bits."""
    def bits_of(point):
        return None if point is None else tuple(
            value.hex() if isinstance(value, float) else value
            for value in vars(point).values())
    return (_state(stream), bits_of(stream.latest()),
            [bits_of(stream.trailing(now, horizon))
             for horizon in (5.0, 25.0, 1e4)])


class TestPaneBlock:
    """Each row of a :class:`PaneBlock`, built on read, equals a stream
    fed the row's values one :meth:`WindowStream.observe` at a time."""

    #: One step: close every row at an instant, or a page of values,
    #: one per row named (at most three), each at its own instant.
    _STEP = st.one_of(
        st.floats(-50.0, 400.0),
        st.lists(st.tuples(st.integers(0, 2), st.floats(-50.0, 400.0),
                           TestObserveMany._VALUE),
                 max_size=3, unique_by=lambda reading: reading[0]))

    @settings(max_examples=200, deadline=None)
    @given(steps=st.lists(_STEP, max_size=40),
           retain=st.sampled_from([1, 2, 4, 256]))
    def test_rows_built_on_read_equal_eager_streams(self, steps, retain):
        spec = WindowSpec(width=10.0, origin=3.0, retain=retain)
        block = PaneBlock(spec)
        block.add_rows(1)
        block.add_rows(2)
        eager = [WindowStream(f"s{row}", spec) for row in range(3)]
        now = 0.0
        for step in steps:
            if isinstance(step, float):
                block.close_until(step)
                for stream in eager:
                    stream.close_until(step)
                now = max(now, step)
            elif step:
                rows, instants, values = (np.array(column) for column
                                          in zip(*step))
                block.observe(rows, instants.astype(np.float64),
                              values.astype(np.float64))
                for row, t, value in step:
                    eager[row].observe(t, value)
                now = max(now, float(instants.max()))
            for row, stream in enumerate(eager):
                assert _read(block.stream(row, f"s{row}"), now) == \
                    _read(stream, now)

    def test_several_values_a_pane_and_more_panes_than_retained(self):
        spec = WindowSpec(width=10.0, retain=3)
        block, eager = PaneBlock(spec), WindowStream("s", spec)
        block.add_rows(1)
        for step in range(40):
            t = 2.5 * step  # four values a pane, ten panes
            block.observe(np.array([0]), np.array([t]), np.array([t / 7]))
            eager.observe(t, t / 7)
            if step % 6 == 5:
                block.close_until(t + 10.0)
                eager.close_until(t + 10.0)
        built = block.stream(0, "s")
        assert len(built.points()) == spec.retain + 1  # and the open pane
        assert built.total_count == 40
        assert _read(built, 100.0) == _read(eager, 100.0)


    def test_ties_keep_the_held_extremum_as_the_builtins_do(self):
        spec = WindowSpec(width=10.0)
        block, eager = PaneBlock(spec), WindowStream("s", spec)
        block.add_rows(1)
        for t, value in ((1.0, 0.0), (2.0, -0.0), (3.0, -0.0), (4.0, 0.0)):
            block.observe(np.array([0]), np.array([t]), np.array([value]))
            eager.observe(t, value)
            assert _read(block.stream(0, "s"), 5.0) == _read(eager, 5.0)


class TestGaugeStream:
    def test_samples_the_probe_each_tick(self):
        level = {"v": 3.0}
        stream = GaugeStream("g", WindowSpec(width=10.0),
                             probe=lambda: level["v"])
        stream.sample(1.0)
        level["v"] = 7.0
        stream.sample(2.0)
        point = stream.latest()
        assert point.count == 2
        assert point.last == 7.0
        assert point.max == 7.0


class TestCounterRateStream:
    def test_first_sample_is_baseline_only(self):
        total = {"v": 10.0}
        stream = CounterRateStream("c", WindowSpec(width=10.0),
                                   probe=lambda: total["v"])
        stream.sample(1.0)
        assert stream.total_count == 0
        total["v"] = 14.0
        stream.sample(11.0)
        assert stream.latest().sum == 4.0

    def test_zero_delta_just_closes_panes(self):
        total = {"v": 5.0}
        stream = CounterRateStream("c", WindowSpec(width=10.0),
                                   probe=lambda: total["v"])
        stream.sample(1.0)
        stream.sample(11.0)
        assert stream.total_count == 0

    def test_backwards_counter_is_an_error(self):
        total = {"v": 5.0}
        stream = CounterRateStream("c", WindowSpec(width=10.0),
                                   probe=lambda: total["v"])
        stream.sample(1.0)
        total["v"] = 4.0
        with pytest.raises(ConfigurationError):
            stream.sample(2.0)
