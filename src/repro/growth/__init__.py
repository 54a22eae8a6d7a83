"""Follower-growth monitoring and purchase-burst detection.

The machinery behind the paper's motivating anecdote: spotting the
"sudden jump in the number of followers" that outed the purchased
blocks of the 2012 campaign accounts.
"""

from .detector import BurstDetector, BurstEvent
from .monitor import GrowthMonitor, MonitorReport
from .series import (
    GrowthSeries,
    RollingSeriesBlock,
    series_from_observations,
)

__all__ = [
    "BurstDetector",
    "BurstEvent",
    "GrowthMonitor",
    "GrowthSeries",
    "MonitorReport",
    "RollingSeriesBlock",
    "series_from_observations",
]
