"""Perf baseline store and regression detector tests.

Hand-built documents exercise every tolerance class of
:func:`diff_perf`; a real (small) workload run pins the byte-exact
``BENCH_perf.json`` a record produces, which is the property that lets
the artifact live in git as the repo's perf trajectory.
"""

import copy
import pathlib

import pytest

from repro.audit import AuditRequest
from repro.core import PAPER_EPOCH, SimClock
from repro.core.errors import ConfigurationError
from repro.obs import (
    PERF_SCHEMA,
    PerfTolerances,
    collect_perf,
    diff_perf,
    load_perf_json,
    observed,
    render_perf_diff,
    render_perf_json,
    write_perf_json,
)
from repro.sched import BatchAuditScheduler
from repro.twitter import add_simple_target, build_world

GOLDEN = pathlib.Path(__file__).parent / "golden"


def sample_doc():
    """A minimal, valid perf document with easy round numbers."""
    return {
        "schema": PERF_SCHEMA,
        "workload": {"seed": 42, "targets": ["alpha"], "lane_slots": 2,
                     "max_followers": 1000},
        "makespan_seconds": 100.0,
        "audits": 4,
        "errors": 0,
        "coalesced_hits": 0,
        "phase_totals_seconds": {
            "fc": {"frame": 50.0, "classify": 10.0, "other": 5.0},
        },
        "cache": {"lookups": 10, "hits": 5, "hit_ratio": 0.5,
                  "acq_cache_hits": 3},
        "api": {"requests_total": 40, "items_total": 4000,
                "ratelimit_wait_seconds": 30.0},
        "faults": {"injected_total": 0, "retries_total": 0,
                   "backoff_wait_seconds": 0.0},
        "critical_path": {"lane": "fc", "slot": 0,
                          "busy_seconds": 65.0, "idle_seconds": 35.0},
    }


def perturbed(doc, path, value):
    """A deep copy of ``doc`` with one dotted ``path`` replaced."""
    out = copy.deepcopy(doc)
    node = out
    *parents, leaf = path.split(".")
    for key in parents:
        node = node[key]
    node[leaf] = value
    return out


def breach_keys(breaches):
    return [breach.key for breach in breaches]


class TestDiffTolerances:
    def test_identical_documents_have_no_breaches(self):
        breaches, compared = diff_perf(sample_doc(), sample_doc())
        assert breaches == []
        assert compared == 26  # every flattened leaf visited

    def test_makespan_within_five_percent_passes(self):
        current = perturbed(sample_doc(), "makespan_seconds", 104.0)
        breaches, __ = diff_perf(sample_doc(), current)
        assert breaches == []

    def test_makespan_beyond_five_percent_breaches(self):
        current = perturbed(sample_doc(), "makespan_seconds", 106.0)
        breaches, __ = diff_perf(sample_doc(), current)
        assert breach_keys(breaches) == ["makespan_seconds"]
        assert "+6.0% outside +/-5%" in breaches[0].reason

    def test_phase_class_is_looser_than_makespan(self):
        current = perturbed(sample_doc(),
                            "phase_totals_seconds.fc.frame", 54.0)
        assert diff_perf(sample_doc(), current)[0] == []
        current = perturbed(sample_doc(),
                            "phase_totals_seconds.fc.frame", 56.0)
        breaches, __ = diff_perf(sample_doc(), current)
        assert breach_keys(breaches) == ["phase_totals_seconds.fc.frame"]

    def test_hit_ratio_compares_absolutely(self):
        assert diff_perf(sample_doc(),
                         perturbed(sample_doc(), "cache.hit_ratio",
                                   0.54))[0] == []
        breaches, __ = diff_perf(
            sample_doc(), perturbed(sample_doc(), "cache.hit_ratio", 0.56))
        assert breach_keys(breaches) == ["cache.hit_ratio"]
        assert "|delta|" in breaches[0].reason

    def test_zero_baseline_tolerates_only_zero(self):
        breaches, __ = diff_perf(sample_doc(),
                                 perturbed(sample_doc(), "errors", 1))
        assert breach_keys(breaches) == ["errors"]
        assert "baseline is zero" in breaches[0].reason

    def test_workload_must_match_exactly(self):
        # +2.4% on a counter would pass; on the workload it's a breach.
        current = perturbed(sample_doc(), "workload.seed", 43)
        breaches, __ = diff_perf(sample_doc(), current)
        assert breach_keys(breaches) == ["workload.seed"]
        assert "workload/schema mismatch" in breaches[0].reason

    def test_schema_must_match_exactly(self):
        current = perturbed(sample_doc(), "schema", PERF_SCHEMA + 1)
        breaches, __ = diff_perf(sample_doc(), current)
        assert breach_keys(breaches) == ["schema"]

    def test_missing_and_extra_leaves_breach(self):
        current = copy.deepcopy(sample_doc())
        del current["cache"]["acq_cache_hits"]
        current["cache"]["novel"] = 1
        breaches, __ = diff_perf(sample_doc(), current)
        reasons = {breach.key: breach.reason for breach in breaches}
        assert reasons["cache.acq_cache_hits"] == "missing from current"
        assert reasons["cache.novel"] == "not in baseline"

    def test_non_numeric_leaves_compare_by_equality(self):
        current = perturbed(sample_doc(), "critical_path.lane",
                            "socialbakers")
        breaches, __ = diff_perf(sample_doc(), current)
        assert breach_keys(breaches) == ["critical_path.lane"]
        assert breaches[0].reason == "value changed"

    def test_custom_tolerances_loosen_the_gate(self):
        current = perturbed(sample_doc(), "makespan_seconds", 120.0)
        loose = PerfTolerances(makespan_pct=50.0)
        assert diff_perf(sample_doc(), current, loose)[0] == []


class TestRenderDiff:
    def test_clean_diff_renders_all_within_tolerance(self):
        breaches, compared = diff_perf(sample_doc(), sample_doc())
        rendered = render_perf_diff(breaches, compared, "BENCH_perf.json")
        assert rendered.startswith("perf diff vs BENCH_perf.json:")
        assert rendered.endswith("all within tolerance")

    def test_breach_report_matches_golden(self):
        current = perturbed(sample_doc(), "makespan_seconds", 120.0)
        current = perturbed(current, "phase_totals_seconds.fc.frame", 70.0)
        current = perturbed(current, "cache.hit_ratio", 0.9)
        current = perturbed(current, "errors", 2)
        breaches, compared = diff_perf(sample_doc(), current)
        rendered = render_perf_diff(breaches, compared, "BENCH_perf.json")
        assert rendered + "\n" == \
            (GOLDEN / "perf_diff.txt").read_text(encoding="utf-8")


class TestRoundTrip:
    def test_write_then_load_preserves_the_document(self, tmp_path):
        target = write_perf_json(sample_doc(), tmp_path / "perf.json")
        assert load_perf_json(target) == sample_doc()

    def test_render_is_byte_stable(self):
        assert render_perf_json(sample_doc()) == \
            render_perf_json(sample_doc())
        # Canonical form: sorted keys, trailing newline.
        lines = render_perf_json(sample_doc()).splitlines()
        assert lines[1].strip().startswith('"api"')

    def test_load_rejects_missing_file(self, tmp_path):
        with pytest.raises(ConfigurationError, match="cannot load"):
            load_perf_json(tmp_path / "nope.json")

    def test_load_rejects_non_object_documents(self, tmp_path):
        path = tmp_path / "list.json"
        path.write_text("[1, 2]", encoding="utf-8")
        with pytest.raises(ConfigurationError, match="not a JSON object"):
            load_perf_json(path)


class TestCollectPerf:
    """collect_perf on a real (tiny) observed batch run."""

    @pytest.fixture(scope="class")
    def collected(self):
        with observed() as obs:
            world = build_world(seed=23, ref_time=PAPER_EPOCH)
            add_simple_target(world, "alpha", 6_000, 0.35, 0.15, 0.50)
            add_simple_target(world, "bravo", 4_000, 0.25, 0.30, 0.45)
            clock = SimClock(world.ref_time)
            scheduler = BatchAuditScheduler(world, clock, seed=7,
                                            lane_slots=2)
            scheduler.submit_batch([AuditRequest(target="alpha"),
                                    AuditRequest(target="bravo")])
            batch = scheduler.run()
        workload = {"seed": 7, "targets": ["alpha", "bravo"],
                    "lane_slots": 2, "max_followers": None}
        return collect_perf(obs, batch, workload), batch

    def test_document_mirrors_the_batch_report(self, collected):
        doc, batch = collected
        assert doc["schema"] == PERF_SCHEMA
        assert doc["audits"] == len(batch.items) == 8
        assert doc["errors"] == 0
        assert doc["makespan_seconds"] == pytest.approx(
            batch.makespan_seconds, abs=1e-6)
        assert sorted(doc["phase_totals_seconds"]) == \
            ["fc", "socialbakers", "statuspeople", "twitteraudit"]

    def test_counters_are_populated(self, collected):
        doc, __ = collected
        assert doc["api"]["requests_total"] > 0
        assert doc["cache"]["lookups"] >= doc["cache"]["hits"] >= 0
        assert 0.0 <= doc["cache"]["hit_ratio"] <= 1.0
        assert doc["critical_path"]["lane"] in doc["phase_totals_seconds"]

    def test_document_survives_the_canonical_serialisation(
            self, collected, tmp_path):
        doc, __ = collected
        target = write_perf_json(doc, tmp_path / "perf.json")
        reloaded = load_perf_json(target)
        breaches, __ = diff_perf(doc, reloaded)
        assert breaches == []


class TestWallclockClass:
    """``measure_wallclock``, the timer of the wall-clock benchmarks."""

    def test_measure_wallclock_returns_the_median(self):
        from repro.obs import measure_wallclock
        calls = []
        assert measure_wallclock(lambda: calls.append(1), repeats=5) >= 0.0
        assert len(calls) == 5

    def test_measure_wallclock_rejects_zero_repeats(self):
        from repro.obs import measure_wallclock
        with pytest.raises(ConfigurationError, match="repeats"):
            measure_wallclock(lambda: None, repeats=0)
