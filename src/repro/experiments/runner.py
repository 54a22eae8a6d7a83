"""One-stop experiment runner.

``run_all`` executes every experiment of the paper's evaluation (E1-E8)
and returns a single text report; the CLI and the EXPERIMENTS.md
generator are thin wrappers around it.  Individual experiments remain
importable for targeted runs and for the benchmark suite.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ..core.clock import SimClock
from ..fc.engine import default_detector
from ..fc.training import TrainedDetector
from ..obs.runtime import get_observability
from .acquisition import run_acquisition_experiment
from .api_limits import run_table1
from .bias_demo import run_deepdive_comparison, run_purchased_burst_demo
from .ordering import run_ordering_experiment
from .response_time import run_response_time_experiment
from .results import analyse_disagreement, run_table3
from .sample_size import run_sample_size_experiment
from .testbed import AVERAGE, average_accounts, build_paper_world


@dataclass
class ExperimentSuiteResult:
    """Structured results plus the rendered report of a full run."""

    sections: Dict[str, object] = field(default_factory=dict)
    report_parts: List[str] = field(default_factory=list)

    def add(self, key: str, result: object, rendered: str) -> None:
        """Record one experiment's result and rendered report section."""
        self.sections[key] = result
        self.report_parts.append(rendered)

    def report(self) -> str:
        """The full rendered report, section by section."""
        return "\n\n".join(self.report_parts)


def run_all(*, seed: int = 42,
            detector: Optional[TrainedDetector] = None,
            ordering_days: int = 5,
            coverage_trials: int = 100,
            table2_accounts=None,
            table3_accounts=None) -> ExperimentSuiteResult:
    """Run E1-E8 and collect one report.

    A single detector is trained once and shared by every FC instance;
    pass one explicitly to reuse across suites.  ``table2_accounts`` /
    ``table3_accounts`` restrict the timing and results experiments to
    subsets of the testbed (handy for quick smoke runs); the default is
    the paper's full account lists.
    """
    suite = ExperimentSuiteResult()
    tracer = get_observability().tracer
    if detector is None:
        detector = default_detector(seed=seed)

    with tracer.span("experiment", experiment="table1"):
        measurements, rendered = run_table1()
    suite.add("table1", measurements, rendered)

    world = build_paper_world(seed, SimClock().now(), tiers=(AVERAGE,))
    ordering_pool = (table2_accounts if table2_accounts is not None
                     else average_accounts())
    handles = [account.handle for account in ordering_pool]
    with tracer.span("experiment", experiment="ordering"):
        ordering_results, rendered = run_ordering_experiment(
            world, handles, days=ordering_days)
    suite.add("ordering", ordering_results, rendered)

    with tracer.span("experiment", experiment="table2"):
        rows2, rendered = run_response_time_experiment(
            seed=seed, detector=detector, accounts=table2_accounts)
    suite.add("table2", rows2, rendered)

    with tracer.span("experiment", experiment="table3"):
        rows3, rendered = run_table3(seed=seed, detector=detector,
                                     accounts=table3_accounts)
    analysis = analyse_disagreement(rows3)
    rendered += "\n\n" + "\n".join([
        "Table III claims, quantified on measured rows:",
        f"  corr(log10 followers, fake-estimate stddev) = "
        f"{analysis.followers_vs_disagreement:+.2f} "
        f"(paper: positive - more followers, less agreement)",
        f"  mean |TA good - SB good| = {analysis.ta_sb_genuine_gap:.1f} pts "
        f"(paper: 'similar')",
        f"  mean (FC inact - SB inact) = "
        f"{analysis.fc_minus_sb_inactive:+.1f} pts (paper: large positive)",
        f"  mean (FC inact - SP inact) = "
        f"{analysis.fc_minus_sp_inactive:+.1f} pts",
        f"  SP reports the lowest genuine share on "
        f"{100 * analysis.sp_lowest_genuine_fraction:.0f}% of targets "
        f"(paper: 'SP Fakers minimizes the number of genuine followers')",
    ])
    suite.add("table3", (rows3, analysis), rendered)

    with tracer.span("experiment", experiment="acquisition"):
        estimates, empirical, rendered = run_acquisition_experiment()
    suite.add("acquisition", (estimates, empirical), rendered)

    with tracer.span("experiment", experiment="purchased_burst"):
        burst, rendered = run_purchased_burst_demo(seed=seed,
                                                   detector=detector)
    suite.add("purchased_burst", burst, rendered)

    with tracer.span("experiment", experiment="deepdive"):
        deepdive, rendered = run_deepdive_comparison(seed=seed)
    suite.add("deepdive", deepdive, rendered)

    with tracer.span("experiment", experiment="sample_size"):
        coverage, rendered = run_sample_size_experiment(
            trials=coverage_trials, seed=seed)
    suite.add("sample_size", coverage, rendered)

    return suite
