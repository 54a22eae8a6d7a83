"""Experiment F1 — the three Twitteraudit report charts.

Section II-C of the paper describes the only graphical artefacts in its
evaluation: alongside the fake percentage, a Twitteraudit report shows

1. a chart of how the tool judges the audited base (fake / not sure /
   real);
2. the "quality score" per follower ("with no explanation on what a
   'quality score' is" — ours is the real-points total on a 0-1 scale);
3. the "real points" per follower, "with a maximum scale of 5"
   (from which the paper infers "the three criteria used to evaluate
   the score can sum up to five").

This module renders all three as ASCII bar charts from a live audit.
"""

from __future__ import annotations

from typing import List, Mapping, Optional, Sequence, Tuple

from ..analytics.twitteraudit import Twitteraudit
from ..audit import AuditReport, AuditRequest
from ..core.clock import SimClock
from ..core.errors import ConfigurationError
from ..twitter.generator import add_simple_target, build_world
from ..twitter.population import SyntheticWorld

_BAR_GLYPH = "#"


def ascii_bar_chart(rows: Sequence[Tuple[str, float]], *,
                    title: str = "", width: int = 40) -> str:
    """Render labelled values as a horizontal ASCII bar chart."""
    if not rows:
        raise ConfigurationError("a bar chart needs at least one row")
    if width < 1:
        raise ConfigurationError(f"width must be >= 1: {width!r}")
    if any(value < 0 for __, value in rows):
        raise ConfigurationError("bar values must be non-negative")
    peak = max(value for __, value in rows) or 1.0
    label_width = max(len(label) for label, __ in rows)
    lines: List[str] = [title] if title else []
    for label, value in rows:
        bar = _BAR_GLYPH * int(round(width * value / peak))
        lines.append(f"{label.ljust(label_width)} |{bar} {value:g}")
    return "\n".join(lines)


def render_ta_charts(report: AuditReport) -> str:
    """Render the three charts of one Twitteraudit report."""
    if report.tool != "twitteraudit":
        raise ConfigurationError(
            f"expected a twitteraudit report, got {report.tool!r}")
    verdicts: Mapping[str, int] = report.details["verdict_counts"]
    quality: Mapping[int, int] = report.details["quality_histogram"]
    points: Mapping[int, int] = report.details["real_points_histogram"]

    chart1 = ascii_bar_chart(
        [(label, float(verdicts[label]))
         for label in ("fake", "not sure", "real")],
        title=f"chart 1 — audit verdict for @{report.target} "
              f"({report.sample_size} followers assessed)",
    )
    chart2 = ascii_bar_chart(
        [(f"{decile / 10:.1f}-{(decile + 1) / 10:.1f}",
          float(quality[decile])) for decile in range(10)],
        title="chart 2 — quality score per follower",
    )
    chart3 = ascii_bar_chart(
        [(f"{value} pts", float(points[value])) for value in range(6)],
        title="chart 3 — real points per follower (max scale of 5)",
    )
    score = report.details["mean_quality_score"]
    footer = (f"fake: {report.fake_pct}%   mean quality score: "
              + ("n/a" if score is None else f"{score:.2f}"))
    return "\n\n".join((chart1, chart2, chart3, footer))


def run_ta_charts(*, seed: int = 42,
                  world: Optional[SyntheticWorld] = None,
                  handle: str = "chartdemo") -> Tuple[AuditReport, str]:
    """Audit a target with Twitteraudit and render its report charts.

    With no ``world`` given, a demo target is built: 45 % genuine, 35 %
    inactive, 20 % fake — enough of each class that all three charts
    have visible mass.
    """
    if world is None:
        world = build_world(seed=seed)
        add_simple_target(world, handle, 30_000, 0.35, 0.20, 0.45)
    clock = SimClock(getattr(world, "ref_time", SimClock().now()))
    tool = Twitteraudit(world, clock, seed=seed)
    report = tool.audit(AuditRequest(target=handle))
    return report, render_ta_charts(report)
