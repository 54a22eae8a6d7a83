"""Simulated Twitter substrate.

Accounts, tweets, timelines, persona archetypes, follower-arrival
schedules (arrivals, bought blocks and their attrition, explicit
unfollows), and the one world: the lazy :class:`SyntheticWorld`, which
generates any follower on demand in O(1) memory (so it scales to tens
of millions of followers) and serves ``users/lookup`` as user objects
or structured row blocks.
"""

from .account import Account, BehaviorProfile, Label, LABELS
from .columnar import build_columnar_world
from .generator import (
    add_simple_target,
    build_world,
    make_target_spec,
)
from .personas import (
    DEFAULT_LABEL_MIXES,
    INACTIVITY_HORIZON,
    PERSONAS,
    Persona,
    persona_mix_from_labels,
)
from .population import (
    AMBIENT_POOL_SIZE,
    FollowerPopulation,
    FollowerSegmentSpec,
    PostRefBurst,
    SyntheticWorld,
    TargetSpec,
    ambient_id,
    decode_follower,
    fake_purchase_burst,
    follower_id,
    namespace_of,
    target_id,
    tilted_segments,
    uniform_segments,
)
from .timeline import TIMELINE_CAP, TimelineBlock, TimelineGenerator
from .tweet import SPAM_PHRASES, Tweet
from .workload import ArrivalSchedule, SegmentWindow, even_schedule

__all__ = [
    "AMBIENT_POOL_SIZE",
    "Account",
    "ArrivalSchedule",
    "BehaviorProfile",
    "DEFAULT_LABEL_MIXES",
    "FollowerPopulation",
    "FollowerSegmentSpec",
    "INACTIVITY_HORIZON",
    "LABELS",
    "Label",
    "PERSONAS",
    "Persona",
    "PostRefBurst",
    "SPAM_PHRASES",
    "SegmentWindow",
    "SyntheticWorld",
    "TIMELINE_CAP",
    "TargetSpec",
    "TimelineBlock",
    "TimelineGenerator",
    "Tweet",
    "add_simple_target",
    "ambient_id",
    "build_columnar_world",
    "build_world",
    "decode_follower",
    "even_schedule",
    "fake_purchase_burst",
    "follower_id",
    "make_target_spec",
    "namespace_of",
    "persona_mix_from_labels",
    "target_id",
    "tilted_segments",
    "uniform_segments",
]
