"""Simulated Twitter substrate.

Accounts, tweets, timelines, persona archetypes, follower-arrival
schedules, and two world backends: the lazy :class:`SyntheticWorld`,
which generates any follower on demand in O(1) memory (so it scales to
tens of millions of followers) and serves ``users/lookup`` as user
objects or structured row blocks, and the explicit mutable
:class:`SocialGraph` (full-fidelity adjacency for small studies).
"""

from .account import Account, BehaviorProfile, Label, LABELS
from .columnar import build_columnar_world
from .generator import (
    add_simple_target,
    build_world,
    make_target_spec,
    populate_graph,
)
from .graph import FollowEdge, SocialGraph
from .live import (
    ChurnProcess,
    LiveSimulation,
    OrganicGrowthProcess,
    Process,
    TweetingProcess,
    follow_block,
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
    World,
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
    "ChurnProcess",
    "DEFAULT_LABEL_MIXES",
    "FollowEdge",
    "FollowerPopulation",
    "FollowerSegmentSpec",
    "INACTIVITY_HORIZON",
    "LABELS",
    "Label",
    "LiveSimulation",
    "OrganicGrowthProcess",
    "PERSONAS",
    "Persona",
    "PostRefBurst",
    "Process",
    "SPAM_PHRASES",
    "SegmentWindow",
    "SocialGraph",
    "SyntheticWorld",
    "TIMELINE_CAP",
    "TargetSpec",
    "TimelineBlock",
    "TimelineGenerator",
    "Tweet",
    "TweetingProcess",
    "World",
    "add_simple_target",
    "ambient_id",
    "build_columnar_world",
    "build_world",
    "decode_follower",
    "even_schedule",
    "fake_purchase_burst",
    "follow_block",
    "follower_id",
    "make_target_spec",
    "namespace_of",
    "persona_mix_from_labels",
    "populate_graph",
    "target_id",
    "tilted_segments",
    "uniform_segments",
]
