"""Socialbakers "Fake Follower Check (BETA)" (paper, Section II-B).

Launched November 2012 by the Czech social-media analytics company.
Unusually, its criteria are published (and re-implemented verbatim in
:class:`repro.fc.rulesets.SocialbakersCriteria`); what remains
undisclosed are the point weights and the suspicion threshold.

Operationally the tool considers "up to 2000 followers per account",
declares "a small error margin of roughly 10-15%", and is limited to
ten audits per day per user — all reproduced here.  Because several of
its criteria are content rules (spam phrases, retweet/link ratios,
repeated tweets), it must fetch sampled followers' timelines; its
~10 s response times in Table II are therefore only possible with a
massively parallel crawler, which we model explicitly.

A structural consequence of its published flow — only accounts first
marked *suspicious* are ever tested for inactivity — is that its
"inactive" percentages sit far below FC's, and ordinary abandoned
accounts are reported as genuine.  Table III shows exactly that.
"""

from __future__ import annotations

from ..core.errors import QuotaExceededError
from ..core.timeutil import DAY
from ..fc.rulesets import SocialbakersCriteria
from .base import CommercialAnalytic

#: Followers considered per audit ("up to 2000 followers per account").
SB_SAMPLE = 2000
#: Free-tier usage limit ("can be used ten times a day").
SB_DAILY_QUOTA = 10


class SocialbakersFakeFollowerCheck(CommercialAnalytic):
    """The Fake Follower Check: newest-2000 frame, published criteria."""

    name = "socialbakers"
    reports_inactive = True
    sample_size = SB_SAMPLE

    def __init__(self, world, clock, *, threshold: float = 3.0,
                 daily_quota: int = SB_DAILY_QUOTA, **kwargs) -> None:
        # A fleet-scale crawler: 2000 profiles + 2000 timelines in ~8 s.
        kwargs.setdefault("credentials", 64)
        kwargs.setdefault("parallelism", 512)
        super().__init__(world, clock, **kwargs)
        self._criteria = SocialbakersCriteria(threshold=threshold)
        self._daily_quota = daily_quota
        self._quota_day: int = -1
        self._quota_used = 0

    @property
    def frame_policy(self) -> str:
        """The sampling frame: newest-2000 with timelines."""
        return f"newest {SB_SAMPLE} followers with timelines"

    def _admit(self, request) -> None:
        """Enforce the free tier's ten-per-day usage quota.

        Charged per admitted audit — batched, cached and coalesced
        requests all count, exactly as a click on the hosted app did.
        """
        day = int(self._clock.now() // DAY)
        if day != self._quota_day:
            self._quota_day = day
            self._quota_used = 0
        if self._quota_used >= self._daily_quota:
            raise QuotaExceededError(
                f"Socialbakers free tier allows {self._daily_quota} "
                f"checks per day")
        self._quota_used += 1

    def _analyze_steps(self, screen_name: str):
        """Newest-2000 frame with timelines, classified by the rules."""
        target, users, timelines = yield from self._fetch_head_sample(
            screen_name, head=SB_SAMPLE)
        counts = self._classify_sample(users, timelines).counts()
        return self._outcome(target.followers_count, counts, {
            "declared_error_margin": "10-15%",
            "engine": self.info().as_dict(),
            "inactivity_tested_on": "suspicious accounts only",
        })
