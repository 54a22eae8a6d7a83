"""The batch-classification contract of the audit engines.

Every engine applies *criteria* to a sample of follower profiles (and
optionally their timelines).  This module defines the shared shape of
that step:

* :class:`Criteria` — the per-account rule spec ``classify(user,
  timeline, now)`` / ``explain`` (readable, and the reference the
  tests compare against) plus the columnar ``classify_block(block,
  now)`` over a :class:`SampleBlock` of NumPy columns, which
  ``classify_all`` — the one whole-sample entry — runs;
* :class:`VerdictArray` — per-account int64 verdict codes with
  label-ordered ``counts()`` and engine-specific ``extras``
  (histograms etc.);
* :class:`~repro.api.columns.SampleBlock` — the profile column view
  of one sample (defined in :mod:`repro.api.columns` and re-exported
  here), built once per classification by :func:`build_sample_block`;
* :class:`EngineInfo` — the uniform engine metadata block
  (``CommercialAnalytic.info()``) that replaced the ad-hoc
  ``"criteria": "..."`` strings in report details.

Every mask pipeline reproduces the per-account rules' float operations
exactly, so ``classify_block`` returns the verdicts a ``classify`` loop
would; the tests hold it to that with a per-account oracle.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Tuple

import numpy as np

from ..api.columns import SampleBlock


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


@dataclass
class VerdictArray:
    """Per-account verdicts: int64 ``codes`` indexing into ``labels``.

    ``extras`` carries whatever engine-specific aggregates the criteria
    computed alongside the verdicts (Twitteraudit's histograms and
    quality sum).
    """

    labels: Tuple[str, ...]
    codes: np.ndarray
    extras: Dict[str, object] = field(default_factory=dict)

    def __post_init__(self) -> None:
        self.codes = np.asarray(self.codes, dtype=np.int64)

    def __len__(self) -> int:
        return len(self.codes)

    def counts(self) -> Dict[str, int]:
        """Verdict tallies as ``{label: count}`` in label order."""
        tally = np.bincount(self.codes, minlength=len(self.labels))
        return {label: int(tally[index])
                for index, label in enumerate(self.labels)}


class Criteria:
    """Base contract of an engine's classification criteria.

    Subclasses implement the per-account rule spec :meth:`classify`
    (and :meth:`explain`) and its columnar twin :meth:`classify_block`.
    ``labels`` fixes the verdict vocabulary *and* the key order of
    :meth:`VerdictArray.counts` — engines rely on that order when
    feeding :func:`~repro.analytics.base.percentages`.
    """

    name: str = "criteria"
    needs_timeline: bool = False
    labels: Tuple[str, ...] = ()
    #: Stable rule identifiers, in evaluation order.  Part of the
    #: observable wire format: goldens, metric series and dashboards
    #: key on these strings — renaming one is a breaking change (see
    #: docs/observability.md, "RuleId stability").
    rule_ids: Tuple[str, ...] = ()

    def classify(self, user, timeline, now: float) -> str:
        """Classify one account; returns a label from ``labels``."""
        raise NotImplementedError

    def explain(self, user, timeline, now: float) -> Tuple[str, Tuple[str, ...]]:
        """Classify one account and name the rules that fired.

        Must agree with :meth:`classify` on the label for every input.
        The default reports no rules (criteria without a rule registry
        still classify; they just have nothing to attribute).
        """
        return self.classify(user, timeline, now), ()

    def classify_all(self, users, timelines, now: float,
                     sink=None) -> VerdictArray:
        """Classify a whole sample: build its block, run the masks.

        ``sink`` optionally collects per-rule fire masks; attaching one
        never changes the verdicts.
        """
        return self.classify_block(build_sample_block(users, timelines),
                                   now, sink=sink)

    def classify_block(self, block: "SampleBlock", now: float,
                       sink=None) -> VerdictArray:
        """Columnar classification of a :class:`SampleBlock`."""
        raise NotImplementedError


def build_sample_block(users, timelines=None) -> SampleBlock:
    """Build the :class:`SampleBlock` of one sample."""
    return SampleBlock(users, timelines)
