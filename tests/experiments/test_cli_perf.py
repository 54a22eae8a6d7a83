"""CLI tests for ``repro perf record`` / ``repro perf diff``.

The perf gate's contract is its exit code: record must be byte-stable,
a clean diff must exit 0, and any tolerance breach must exit 1.  One
module-scoped baseline is recorded once and shared — each record runs
the whole small workload (including detector training), so redundant
recordings dominate the suite's wall time otherwise.
"""

import json
import pathlib

import pytest

from repro.cli import main
from repro.core.errors import ConfigurationError

GOLDEN = (pathlib.Path(__file__).parent.parent / "obs" / "golden"
          / "perf_record.json")

#: A three-account slice of the testbed keeps each CLI run in seconds.
SMALL = ["pinucciotwit", "RobDWaller", "davc"]


def record(out):
    assert main(["perf", "record", "--out", str(out),
                 "--targets", *SMALL, "--max-followers", "2000"]) == 0
    return out


@pytest.fixture(scope="module")
def baseline(tmp_path_factory):
    return record(tmp_path_factory.mktemp("perf") / "BENCH_perf.json")


class TestPerfRecord:
    def test_record_is_byte_identical_across_runs(self, baseline, tmp_path,
                                                  capsys):
        again = record(tmp_path / "again.json")
        assert baseline.read_bytes() == again.read_bytes()
        out = capsys.readouterr().out
        assert "phase attribution (simulated seconds)" in out
        assert "critical path: lane " in out
        assert f"perf baseline written to {again}" in out

    def test_record_matches_the_committed_golden(self, baseline):
        # The byte-exact artifact of this workload is pinned in git; a
        # legitimate perf change must regenerate the golden alongside
        # benchmarks/results/BENCH_perf.json.
        assert baseline.read_text(encoding="utf-8") == \
            GOLDEN.read_text(encoding="utf-8")

    def test_record_embeds_the_workload(self, baseline):
        doc = json.loads(baseline.read_text(encoding="utf-8"))
        assert doc["workload"]["targets"] == SMALL
        assert doc["workload"]["max_followers"] == 2000
        assert doc["audits"] == len(SMALL) * 4

    def test_timeline_flag_prints_the_gantt(self, tmp_path, capsys):
        out = tmp_path / "BENCH_perf.json"
        assert main(["perf", "record", "--out", str(out), "--timeline",
                     "--targets", *SMALL, "--max-followers", "2000"]) == 0
        assert "lane timeline  epoch=" in capsys.readouterr().out

    def test_record_rejects_unknown_handles(self, tmp_path):
        with pytest.raises(ConfigurationError, match="unknown testbed"):
            main(["perf", "record", "--out", str(tmp_path / "x.json"),
                  "--targets", "nobody_at_all"])


class TestPerfDiff:
    def test_rerun_diff_exits_zero(self, baseline, capsys):
        # No --current: diff re-runs the workload the baseline embeds.
        assert main(["perf", "diff", str(baseline)]) == 0
        assert "all within tolerance" in capsys.readouterr().out

    def test_perturbed_makespan_exits_nonzero(self, baseline, tmp_path,
                                              capsys):
        doc = json.loads(baseline.read_text(encoding="utf-8"))
        doc["makespan_seconds"] = round(doc["makespan_seconds"] * 1.2, 6)
        current = tmp_path / "current.json"
        current.write_text(json.dumps(doc), encoding="utf-8")
        assert main(["perf", "diff", str(baseline),
                     "--current", str(current)]) == 1
        out = capsys.readouterr().out
        assert "BREACH makespan_seconds" in out
        assert "+20.0% outside +/-5%" in out

    def test_identical_current_exits_zero(self, baseline, capsys):
        assert main(["perf", "diff", str(baseline),
                     "--current", str(baseline)]) == 0
        assert "0 breach(es)" in capsys.readouterr().out

    def test_loosened_tolerance_forgives_the_breach(self, baseline,
                                                    tmp_path):
        doc = json.loads(baseline.read_text(encoding="utf-8"))
        doc["makespan_seconds"] = round(doc["makespan_seconds"] * 1.2, 6)
        current = tmp_path / "current.json"
        current.write_text(json.dumps(doc), encoding="utf-8")
        assert main(["perf", "diff", str(baseline),
                     "--current", str(current),
                     "--makespan-tol-pct", "50"]) == 0

    def test_diff_without_baseline_is_a_usage_error(self):
        with pytest.raises(ConfigurationError, match="needs a baseline"):
            main(["perf", "diff"])

    def test_diff_rejects_baseline_without_workload(self, tmp_path):
        stub = tmp_path / "old.json"
        stub.write_text('{"schema": 1}', encoding="utf-8")
        with pytest.raises(ConfigurationError, match="no workload"):
            main(["perf", "diff", str(stub)])


class TestPerfWallclock:
    @pytest.fixture(autouse=True)
    def fast_wallclock(self, monkeypatch):
        # The real measurement trains a detector and times thousands of
        # classifications; a canned section keeps the CLI test instant
        # and deterministic.
        import repro.experiments.perf as perf_mod
        monkeypatch.setattr(
            perf_mod, "measure_fc_wallclock",
            lambda **kwargs: {"fc_rows": 2000, "repeats": 3,
                              "fc_scalar_seconds": 1.5,
                              "fc_batch_seconds": 0.15,
                              "fc_batch_speedup": 10.0})

    def test_record_with_wallclock_adds_the_section(self, tmp_path):
        out = tmp_path / "wc.json"
        assert main(["perf", "record", "--out", str(out), "--wallclock",
                     "--targets", *SMALL, "--max-followers", "2000"]) == 0
        doc = json.loads(out.read_text(encoding="utf-8"))
        assert doc["wallclock"]["fc_batch_speedup"] == 10.0

    def test_record_without_the_flag_stays_wallclock_free(self, baseline):
        doc = json.loads(baseline.read_text(encoding="utf-8"))
        assert "wallclock" not in doc

    def test_diff_tolerates_a_wallclock_only_baseline(self, baseline,
                                                      tmp_path, capsys):
        # Baseline recorded with --wallclock, gate re-run without it:
        # the machine-local leaves are skipped, not breached.
        doc = json.loads(baseline.read_text(encoding="utf-8"))
        doc["wallclock"] = {"fc_scalar_seconds": 1.5}
        enriched = tmp_path / "enriched.json"
        enriched.write_text(json.dumps(doc), encoding="utf-8")
        assert main(["perf", "diff", str(enriched),
                     "--current", str(baseline)]) == 0
        assert "all within tolerance" in capsys.readouterr().out

    def test_wallclock_tolerance_flag_reaches_the_gate(self, baseline,
                                                       tmp_path):
        doc = json.loads(baseline.read_text(encoding="utf-8"))
        doc["wallclock"] = {"fc_scalar_seconds": 1.0}
        base = tmp_path / "base.json"
        base.write_text(json.dumps(doc), encoding="utf-8")
        doc["wallclock"] = {"fc_scalar_seconds": 1.4}
        current = tmp_path / "cur.json"
        current.write_text(json.dumps(doc), encoding="utf-8")
        assert main(["perf", "diff", str(base),
                     "--current", str(current)]) == 0  # +40% under 200%
        assert main(["perf", "diff", str(base), "--current", str(current),
                     "--wallclock-tol-pct", "10"]) == 1
