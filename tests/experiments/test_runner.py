"""Unit tests for the experiment-suite result container."""

from repro.experiments import ExperimentSuiteResult


class TestExperimentSuiteResult:
    def build(self):
        suite = ExperimentSuiteResult()
        suite.add("table1", [1, 2, 3], "rendered table one")
        suite.add("ordering", {"ok": True}, "rendered ordering")
        return suite

    def test_sections_and_report(self):
        suite = self.build()
        assert set(suite.sections) == {"table1", "ordering"}
        assert suite.sections["table1"] == [1, 2, 3]
        report = suite.report()
        assert "rendered table one" in report
        assert "rendered ordering" in report
