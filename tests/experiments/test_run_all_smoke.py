"""End-to-end smoke test of the full experiment runner.

Runs every experiment (E1-E8) on reduced account subsets so the whole
pipeline — testbed construction, all four engines, every analysis — is
exercised in one pass, in about a minute.
"""

import pytest

from repro.experiments import (
    PAPER_ACCOUNTS_BY_HANDLE,
    run_all,
)

_TABLE2_SUBSET = [
    PAPER_ACCOUNTS_BY_HANDLE["giovanniallevi"],
    PAPER_ACCOUNTS_BY_HANDLE["pinucciotwit"],   # the pre-cached one
]
_TABLE3_SUBSET = [
    PAPER_ACCOUNTS_BY_HANDLE["RobDWaller"],
    PAPER_ACCOUNTS_BY_HANDLE["davc"],
    PAPER_ACCOUNTS_BY_HANDLE["grossnasty"],
    PAPER_ACCOUNTS_BY_HANDLE["janrezab"],
]


@pytest.fixture(scope="module")
def suite(detector):
    return run_all(
        seed=19,
        detector=detector,
        ordering_days=3,
        coverage_trials=20,
        table2_accounts=_TABLE2_SUBSET,
        table3_accounts=_TABLE3_SUBSET,
    )


class TestRunAllSmoke:
    def test_every_section_present(self, suite):
        assert set(suite.sections) == {
            "table1", "ordering", "table2", "table3", "acquisition",
            "purchased_burst", "deepdive", "sample_size",
        }

    def test_report_contains_every_artefact(self, suite):
        report = suite.report()
        for marker in ("Table I", "Section IV-B", "Table II", "Table III",
                       "acquisition", "E6", "E7", "E8"):
            assert marker in report

    def test_structured_results_consistent(self, suite):
        rows2 = suite.sections["table2"]
        assert len(rows2) == len(_TABLE2_SUBSET)
        rows3, analysis = suite.sections["table3"]
        assert len(rows3) == len(_TABLE3_SUBSET)
        assert analysis.ta_sb_genuine_gap >= 0.0
