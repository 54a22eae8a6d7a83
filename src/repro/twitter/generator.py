"""High-level builders for synthetic Twitter worlds.

These helpers compose the lower-level pieces (personas, arrival
schedules, lazy populations) into ready-to-audit
scenarios: "an account with N followers of which x% inactive, y% fake,
with a recency gradient and an optional purchased burst".
"""

from __future__ import annotations

from typing import List, Sequence

from ..core.errors import ConfigurationError
from ..core.timeutil import PAPER_EPOCH, YEAR
from .personas import persona_mix_from_labels
from .population import (
    FollowerSegmentSpec,
    PostRefBurst,
    SyntheticWorld,
    TargetSpec,
    tilted_segments,
    uniform_segments,
)


def build_world(seed: int = 42, ref_time: float = PAPER_EPOCH) -> SyntheticWorld:
    """Create an empty lazy world anchored at ``ref_time``."""
    return SyntheticWorld(seed=seed, ref_time=ref_time)


def make_target_spec(
        screen_name: str,
        followers: int,
        inactive: float,
        fake: float,
        genuine: float,
        *,
        tilt: float = 0.5,
        pieces: int = 4,
        fake_burst_fraction: float = 0.0,
        fake_burst_position: float = 0.95,
        created_years_before: float = 4.0,
        ref_time: float = PAPER_EPOCH,
        daily_new_followers: float = 0.0,
        post_ref_bursts: Sequence[PostRefBurst] = (),
        verified: bool = False,
        statuses_count: int = 2500,
) -> TargetSpec:
    """Build a :class:`TargetSpec` from a label composition.

    Parameters mirror the experimental knobs the paper's findings hinge
    on:

    * ``tilt`` introduces the recency gradient (older followers more
      often inactive) that biases head-of-list samples;
    * ``fake_burst_fraction`` carves that share of the fake mass out of
      the gradient and delivers it as a single *burst* — the "bought
      10K fake followers" scenario of Section II-D;
    * ``fake_burst_position`` places the burst in arrival order: ``1.0``
      means the fakes are the very latest followers (a just-bought
      block, filling the head of the newest-first listing), while the
      default ``0.95`` models a purchase a few months before
      observation, with organic followers accumulated on top of it
      since — the Romney-style pattern of 2012-2013.

    The overall (inactive, fake, genuine) composition is preserved
    exactly regardless of tilt, burst size and burst position.
    """
    if not 0.0 <= fake_burst_fraction <= 1.0:
        raise ConfigurationError(
            f"fake_burst_fraction must be in [0, 1]: {fake_burst_fraction!r}")
    if not 0.0 <= fake_burst_position <= 1.0:
        raise ConfigurationError(
            f"fake_burst_position must be in [0, 1]: {fake_burst_position!r}")
    total = inactive + fake + genuine
    if total <= 0:
        raise ConfigurationError("label fractions must sum to > 0")
    inactive, fake, genuine = inactive / total, fake / total, genuine / total

    burst = fake * fake_burst_fraction
    organic_mass = 1.0 - burst
    segments: List[FollowerSegmentSpec]
    if organic_mass <= 0:
        segments = []
    else:
        organic = tilted_segments(
            inactive / organic_mass,
            (fake - burst) / organic_mass,
            genuine / organic_mass,
            tilt=tilt,
            pieces=pieces,
        )
        segments = [
            FollowerSegmentSpec(
                fraction=segment.fraction * organic_mass,
                personas=segment.personas,
                duration_frac=segment.duration_frac,
                gamma=segment.gamma,
            )
            for segment in organic
        ]
    if burst > 0:
        # A purchased block is delivered within a sliver of time
        # (duration_frac ~ 0) at the requested point of the arrival
        # order; everything after it arrived organically since the buy.
        burst_segment = FollowerSegmentSpec(
            fraction=burst,
            personas=persona_mix_from_labels(0.0, 1.0, 0.0),
            duration_frac=0.001,
        )
        segments = _splice_burst(segments, burst_segment,
                                 fake_burst_position, organic_mass)
    return TargetSpec(
        screen_name=screen_name,
        followers=followers,
        segments=segments,
        created_at=max(ref_time - created_years_before * YEAR,
                       PAPER_EPOCH - 7 * YEAR),
        daily_new_followers=daily_new_followers,
        post_ref_bursts=post_ref_bursts,
        verified=verified,
        statuses_count=statuses_count,
        display_name=screen_name.replace("_", " ").title(),
    )


def _splice_burst(organic: List[FollowerSegmentSpec],
                  burst: FollowerSegmentSpec,
                  position: float,
                  organic_mass: float) -> List[FollowerSegmentSpec]:
    """Insert ``burst`` so that ``position`` of the *organic* mass
    precedes it, splitting the straddled organic cohort if needed."""
    if not organic:
        return [burst]
    target = position * organic_mass
    result: List[FollowerSegmentSpec] = []
    cumulative = 0.0
    inserted = False
    for segment in organic:
        if not inserted and cumulative + segment.fraction >= target - 1e-12:
            before = target - cumulative
            after = segment.fraction - before
            if before > 1e-9:
                result.append(FollowerSegmentSpec(
                    fraction=before, personas=segment.personas,
                    duration_frac=before, gamma=segment.gamma))
            result.append(burst)
            if after > 1e-9:
                result.append(FollowerSegmentSpec(
                    fraction=after, personas=segment.personas,
                    duration_frac=after, gamma=segment.gamma))
            inserted = True
        else:
            result.append(segment)
        cumulative += segment.fraction
    if not inserted:
        result.append(burst)
    return result


def add_simple_target(world: SyntheticWorld, screen_name: str, followers: int,
                      inactive: float, fake: float, genuine: float,
                      **kwargs) -> None:
    """Shorthand: build a spec via :func:`make_target_spec` and register it."""
    world.add_target(make_target_spec(
        screen_name, followers, inactive, fake, genuine,
        ref_time=world.ref_time, **kwargs))
