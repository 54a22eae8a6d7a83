"""The commercial fake-follower analytics the paper puts under scrutiny."""

from .base import (
    AnalysisOutcome,
    CommercialAnalytic,
    ResultCache,
    percentages,
)
from .criteria import (
    Criteria,
    EngineInfo,
    SampleBlock,
    VerdictArray,
    build_sample_block,
)
from .socialbakers import (
    SB_DAILY_QUOTA,
    SB_SAMPLE,
    SocialbakersFakeFollowerCheck,
)
from .statuspeople import (
    DEEP_DIVE_CONFIG,
    DEFAULT_CONFIG,
    LAUNCH_CONFIG,
    FakersConfig,
    SP_INACTIVITY_HORIZON,
    StatusPeopleCriteria,
    StatusPeopleFakers,
    is_inactive,
    is_spam,
    spam_score,
)
from .webapp import (
    AppSession,
    DEFAULT_PERMISSIONS,
    HostedCheckerApp,
)
from .twitteraudit import (
    RealScore,
    TA_MAX_POINTS,
    TA_SAMPLE,
    Twitteraudit,
    TwitterauditCriteria,
    real_score,
)

__all__ = [
    "AnalysisOutcome",
    "AppSession",
    "CommercialAnalytic",
    "Criteria",
    "DEFAULT_PERMISSIONS",
    "EngineInfo",
    "HostedCheckerApp",
    "DEEP_DIVE_CONFIG",
    "DEFAULT_CONFIG",
    "FakersConfig",
    "LAUNCH_CONFIG",
    "RealScore",
    "ResultCache",
    "SB_DAILY_QUOTA",
    "SB_SAMPLE",
    "SP_INACTIVITY_HORIZON",
    "SampleBlock",
    "SocialbakersFakeFollowerCheck",
    "StatusPeopleCriteria",
    "StatusPeopleFakers",
    "TA_MAX_POINTS",
    "TA_SAMPLE",
    "Twitteraudit",
    "TwitterauditCriteria",
    "VerdictArray",
    "build_sample_block",
    "is_inactive",
    "is_spam",
    "percentages",
    "real_score",
    "spam_score",
]
