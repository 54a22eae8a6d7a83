"""Unit tests for the world self-validation module."""

import pytest

from repro.core import ConfigurationError, PAPER_EPOCH
from repro.experiments import (
    ValidationReport,
    validate_population,
    validate_world,
)
from repro.experiments.validation import _expected_composition
from repro.twitter import (INACTIVITY_HORIZON, Label, add_simple_target,
                           build_world)


class TestValidatePopulation:
    def test_clean_population_passes(self, small_world):
        population = small_world.population("smalltown")
        report = validate_population(population, PAPER_EPOCH, sample=800)
        assert report.ok
        assert report.checked == 800
        assert report.label_mismatches == 0
        assert report.ordering_violations == 0
        assert report.causality_violations == 0
        assert report.composition_error < 0.06

    def test_census_when_sample_exceeds_size(self):
        world = build_world(seed=51)
        add_simple_target(world, "tinyv", 300, 0.3, 0.2, 0.5)
        report = validate_population(
            world.population("tinyv"), PAPER_EPOCH, sample=5000)
        assert report.checked == 300

    def test_empty_population_notes(self):
        world = build_world(seed=52)
        add_simple_target(world, "emptyv", 0, 0.0, 0.0, 1.0)
        report = validate_population(
            world.population("emptyv"), PAPER_EPOCH)
        assert report.checked == 0
        assert report.ok  # vacuously, with an explanatory note
        assert report.notes

    def test_burst_and_tilt_still_validate(self):
        world = build_world(seed=53)
        add_simple_target(world, "shaped", 6000, 0.5, 0.3, 0.2,
                          tilt=0.7, fake_burst_fraction=0.6,
                          fake_burst_position=0.9)
        report = validate_population(
            world.population("shaped"), PAPER_EPOCH, sample=1500)
        assert report.ok

    def test_batch_read_equals_one_account_at_a_time(self):
        """The sample is read in one batch; the report is the one a
        loop of ``account_at`` builds."""
        world = build_world(seed=56)
        add_simple_target(world, "loopv", 1200, 0.5, 0.3, 0.2, tilt=0.7,
                          fake_burst_fraction=0.6, fake_burst_position=0.9)
        population = world.population("loopv")
        report = validate_population(population, PAPER_EPOCH, sample=5000)
        tolerance = report.composition_tolerance
        expected = ValidationReport(handle="loopv", checked=1200,
                                    composition_tolerance=tolerance)
        counts = {label: 0 for label in Label}
        previous = None
        for position in range(1200):
            account = population.account_at(position, PAPER_EPOCH)
            counts[account.true_label] += 1
            age = account.last_tweet_age(PAPER_EPOCH)
            inactive = age is None or age > INACTIVITY_HORIZON
            expected.label_mismatches += \
                inactive != (account.true_label is Label.INACTIVE)
            arrival = population.followed_at(position)
            expected.ordering_violations += \
                previous is not None and arrival < previous
            previous = arrival
            expected.causality_violations += \
                account.created_at > arrival + 1e-6
        shares = _expected_composition(population)
        expected.composition_error = max(
            abs(counts[label] / 1200 - shares[label]) for label in Label)
        assert report == expected


class TestValidateWorld:
    def test_multi_target_world(self):
        world = build_world(seed=54)
        add_simple_target(world, "first", 2000, 0.4, 0.1, 0.5)
        add_simple_target(world, "second", 2000, 0.1, 0.4, 0.5)
        reports, rendered = validate_world(world, sample=600)
        assert len(reports) == 2
        assert all(report.ok for report in reports)
        assert "world validation" in rendered
        assert "FAIL" not in rendered

    def test_empty_world_rejected(self):
        world = build_world(seed=55)
        with pytest.raises(ConfigurationError):
            validate_world(world)


class TestCliValidate:
    def test_cli_subcommand(self, capsys):
        from repro.cli import main
        assert main(["validate", "--sample", "200"]) == 0
        out = capsys.readouterr().out
        assert "world validation" in out
        assert "FAIL" not in out
