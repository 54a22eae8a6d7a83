"""Ablation A7 — sensitivity to the recency-gradient assumption.

The single modelling assumption our Table III reproduction leans on is
the *recency tilt*: long-term followers are more likely inactive than
fresh ones (the paper states it as the explanation for SB/SP's low
inactive counts, Section IV-D).  This experiment sweeps the tilt from 0
(no gradient — the null world where head sampling would be harmless for
inactivity) upward, audits the same target at each level, and measures
the FC-vs-head-sampler inactive gap.

The expected shape: at tilt 0 the gap comes only from definitional
differences (SP's 30-day horizon, SB's suspicious-only flow); as the
tilt grows, the head-frame bias adds on top, linearly — which is what
the closed form ``gradient_head_bias`` predicts.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

from ..audit import AuditRequest, build_engines
from ..core.clock import SimClock
from ..core.errors import ConfigurationError
from ..fc.training import TrainedDetector
from ..stats.bias import gradient_head_bias
from ..twitter.generator import add_simple_target, build_world
from .report import TextTable


@dataclass(frozen=True)
class TiltSensitivityRow:
    """Audit outcomes at one tilt level."""

    tilt: float
    fc_inactive: float
    sp_inactive: float
    sb_inactive: float
    #: Closed-form head-bias prediction for SB's 2000-of-N frame, in
    #: percentage points (negative = underestimate).
    predicted_sb_head_bias: float

    @property
    def fc_minus_sb(self) -> float:
        """The measured FC - SB inactive gap, percentage points."""
        return self.fc_inactive - self.sb_inactive


def run_tilt_sensitivity(
        *,
        tilts: Sequence[float] = (0.0, 0.25, 0.5, 0.75),
        followers: int = 40_000,
        inactive: float = 0.45,
        fake: float = 0.10,
        seed: int = 42,
        detector: TrainedDetector = None,
) -> Tuple[List[TiltSensitivityRow], str]:
    """Sweep the recency tilt and measure the inactive-estimate gaps."""
    if not tilts:
        raise ConfigurationError("need at least one tilt level")
    genuine = 1.0 - inactive - fake
    if genuine <= 0:
        raise ConfigurationError("composition leaves no genuine mass")

    rows: List[TiltSensitivityRow] = []
    for tilt in tilts:
        world = build_world(seed=seed)
        add_simple_target(world, "tiltcase", followers,
                          inactive, fake, genuine, tilt=tilt, pieces=8)
        clock = SimClock(world.ref_time)
        engines = build_engines(
            world, clock, detector, seed,
            engines=("fc", "statuspeople", "socialbakers"),
            sb_daily_quota=10**9)
        request = AuditRequest(target="tiltcase")
        fc_report = engines["fc"].audit(request)
        sp_report = engines["statuspeople"].audit(request)
        sb_report = engines["socialbakers"].audit(request)
        rows.append(TiltSensitivityRow(
            tilt=tilt,
            fc_inactive=fc_report.inactive_pct or 0.0,
            sp_inactive=sp_report.inactive_pct or 0.0,
            sb_inactive=sb_report.inactive_pct or 0.0,
            predicted_sb_head_bias=100.0 * gradient_head_bias(
                inactive, tilt, min(1.0, 2000 / followers)),
        ))

    table = TextTable(
        ["tilt", "FC inactive", "SP inactive", "SB inactive",
         "FC-SB gap", "closed-form head bias (SB frame)"],
        title=f"A7: recency-tilt sensitivity "
              f"({followers} followers, {100 * inactive:.0f}% truly inactive)",
    )
    for row in rows:
        table.add_row(
            f"{row.tilt:.2f}",
            f"{row.fc_inactive:.1f}",
            f"{row.sp_inactive:.1f}",
            f"{row.sb_inactive:.1f}",
            f"{row.fc_minus_sb:+.1f}pp",
            f"{row.predicted_sb_head_bias:+.1f}pp",
        )
    return rows, table.render()
