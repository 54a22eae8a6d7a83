"""The batch-classification contract of the audit engines.

Every engine applies *criteria* to a sample of follower profiles (and
optionally their timelines).  This module defines the shared shape of
that step:

* :class:`Criteria` — the columnar ``classify_block(block, now)``
  over a :class:`SampleBlock` of NumPy columns, which ``classify_all``
  — the one whole-sample entry — runs; the rule engines add the
  per-account rule spec ``classify(user, timeline, now)`` /
  ``explain`` (readable, and the reference the tests compare
  against);
* :class:`VerdictArray` — per-account int64 verdict codes with
  label-ordered ``counts()`` and engine-specific ``extras``
  (histograms etc.);
* :class:`~repro.api.columns.SampleBlock` — the profile column view
  of one sample, built once per classification;
* :class:`EngineInfo` — the uniform engine metadata block
  (``AuditEngine.info()``) that replaced the ad-hoc
  ``"criteria": "..."`` strings in report details.

``Criteria``, ``VerdictArray`` and ``SampleBlock`` are defined in
:mod:`repro.api.columns` and re-exported here.

Every mask pipeline reproduces the per-account rules' float operations
exactly, so ``classify_block`` returns the verdicts a ``classify`` loop
would; the tests hold it to that with a per-account oracle.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from ..api.columns import Criteria, SampleBlock, VerdictArray

__all__ = ["Criteria", "EngineInfo", "SampleBlock", "VerdictArray"]

# hostbench/layers.py wraps this name; nothing in the package calls it.
build_sample_block = SampleBlock


@dataclass(frozen=True)
class EngineInfo:
    """Uniform engine metadata: one structured block per engine.

    ``batch_capable`` is a static fact kept for the report format:
    whether the engine classifies through criteria on the columnar
    path (every bundled engine does; a custom engine without criteria
    does not).
    """

    name: str
    frame_policy: str
    criteria_id: str
    reports_inactive: bool
    batch_capable: bool

    def as_dict(self) -> Dict[str, object]:
        """A plain JSON-serialisable mapping for report details."""
        return {
            "name": self.name,
            "frame_policy": self.frame_policy,
            "criteria_id": self.criteria_id,
            "reports_inactive": self.reports_inactive,
            "batch_capable": self.batch_capable,
        }
