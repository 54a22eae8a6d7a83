"""Unit tests for world builders."""

import pytest

from repro.core import ConfigurationError, PAPER_EPOCH
from repro.twitter import (
    Label,
    build_world,
    make_target_spec,
    tilted_segments,
    uniform_segments,
)

NOW = PAPER_EPOCH


class TestSegmentsBuilders:
    def test_uniform_segments_fraction_sum(self):
        segments = uniform_segments(0.3, 0.2, 0.5, pieces=4)
        assert sum(s.fraction for s in segments) == pytest.approx(1.0)

    def test_tilted_segments_preserve_totals(self):
        segments = tilted_segments(0.4, 0.1, 0.5, tilt=0.6, pieces=5)
        assert sum(s.fraction for s in segments) == pytest.approx(1.0)

    def test_tilt_zero_equals_uniform_mix(self):
        tilted = tilted_segments(0.4, 0.1, 0.5, tilt=0.0, pieces=3)
        mixes = [dict(s.personas) for s in tilted]
        assert all(m == mixes[0] for m in mixes)

    def test_bad_tilt_rejected(self):
        with pytest.raises(ConfigurationError):
            tilted_segments(0.4, 0.1, 0.5, tilt=1.0)


class TestMakeTargetSpec:
    def test_burst_preserves_composition(self):
        world = build_world(seed=9)
        spec = make_target_spec(
            "bursty", 20_000, 0.3, 0.2, 0.5,
            fake_burst_fraction=0.5, fake_burst_position=0.9)
        pop = world.add_target(spec)
        comp = pop.composition(NOW, sample=5000)
        assert comp[Label.FAKE] == pytest.approx(0.2, abs=0.03)
        assert comp[Label.INACTIVE] == pytest.approx(0.3, abs=0.03)

    def test_burst_position_places_fakes(self):
        world = build_world(seed=10)
        spec = make_target_spec(
            "endburst", 10_000, 0.0, 0.2, 0.8,
            fake_burst_fraction=1.0, fake_burst_position=1.0, tilt=0.0)
        pop = world.add_target(spec)
        head = [pop.true_label_at(p) for p in range(8500, 10_000)]
        fake_share = sum(1 for l in head if l is Label.FAKE) / len(head)
        assert fake_share > 0.95

    def test_mid_burst_leaves_head_organic(self):
        world = build_world(seed=11)
        spec = make_target_spec(
            "midburst", 10_000, 0.0, 0.2, 0.8,
            fake_burst_fraction=1.0, fake_burst_position=0.5, tilt=0.0)
        pop = world.add_target(spec)
        head = [pop.true_label_at(p) for p in range(9500, 10_000)]
        fake_share = sum(1 for l in head if l is Label.FAKE) / len(head)
        assert fake_share < 0.1

    def test_invalid_burst_fraction(self):
        with pytest.raises(ConfigurationError):
            make_target_spec("x", 100, 0.3, 0.2, 0.5, fake_burst_fraction=1.5)

    def test_invalid_burst_position(self):
        with pytest.raises(ConfigurationError):
            make_target_spec("x", 100, 0.3, 0.2, 0.5,
                             fake_burst_position=-0.1)

    def test_zero_composition_rejected(self):
        with pytest.raises(ConfigurationError):
            make_target_spec("x", 100, 0.0, 0.0, 0.0)
