"""Lazily materialised Twitter worlds.

The paper audits accounts whose follower bases range from ~1 K to 41 M
(Barack Obama).  Materialising tens of millions of profile objects is
neither necessary nor wise: every engine only ever *samples* followers.
This module therefore represents a follower base as a pure function

    ``(master seed, target, position) -> Account``

so any follower can be generated on demand, identically every time,
with O(1) memory per target regardless of declared size.

Identifier namespaces
---------------------
Synthetic user ids are 63-bit integers whose top bits carry a namespace
tag, letting :class:`SyntheticWorld` resolve any id back to its
generator without a lookup table:

* targets:   ``TARGET_TAG``   — payload is the target ordinal;
* followers: ``FOLLOWER_TAG`` — payload is ``(target ordinal, position)``;
* ambient:   ``AMBIENT_TAG``  — payload is an index into a shared pool of
  background accounts used as "friends" of anyone.

Analytics engines treat ids as opaque, exactly as they must with real
Twitter ids.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from ..core.errors import (
    ConfigurationError,
    DuplicateAccountError,
    GraphError,
    UnknownAccountError,
)
from ..core.rng import WeightedTable
from ..core.timeutil import DAY, HOUR, TWITTER_LAUNCH
from .account import STRING_WIDTHS, Account, BehaviorProfile, Label
from .columns import FollowerColumns, sample_columns
from .draws import draw_matrix, persona_uniforms, stream_keys
from .personas import PERSONAS, Persona, persona_mix_from_labels
from .streams import (
    ambient_rng,
    composition_rng,
    follower_key_state,
    friends_rng,
)
from .timeline import TimelineBlock, TimelineGenerator
from .workload import ArrivalSchedule, SegmentWindow

_NAMESPACE_SHIFT = 60
TARGET_TAG = 4
FOLLOWER_TAG = 2
AMBIENT_TAG = 3

_POSITION_BITS = 38
_ORDINAL_MASK = (1 << (_NAMESPACE_SHIFT - _POSITION_BITS)) - 1
_POSITION_MASK = (1 << _POSITION_BITS) - 1

#: Size of the shared ambient pool backing ``friends/ids`` answers.
AMBIENT_POOL_SIZE = 100_000


def target_id(ordinal: int) -> int:
    """Compose the user id of the ``ordinal``-th registered target."""
    return (TARGET_TAG << _NAMESPACE_SHIFT) | ordinal


def follower_id(ordinal: int, position: int) -> int:
    """Compose the user id of a target's follower at ``position``."""
    if position > _POSITION_MASK:
        raise ConfigurationError(f"position too large: {position!r}")
    return (FOLLOWER_TAG << _NAMESPACE_SHIFT) | (ordinal << _POSITION_BITS) | position


def ambient_id(index: int) -> int:
    """Compose the user id of the ``index``-th ambient-pool account."""
    return (AMBIENT_TAG << _NAMESPACE_SHIFT) | index


def namespace_of(user_id: int) -> int:
    """Return the namespace tag of a synthetic user id."""
    return user_id >> _NAMESPACE_SHIFT


def decode_follower(user_id: int) -> Tuple[int, int]:
    """Recover ``(target ordinal, position)`` from a follower id."""
    if namespace_of(user_id) != FOLLOWER_TAG:
        raise UnknownAccountError(user_id)
    payload = user_id & ((1 << _NAMESPACE_SHIFT) - 1)
    return (payload >> _POSITION_BITS) & _ORDINAL_MASK, payload & _POSITION_MASK


def _id_array(user_ids: Sequence[int]) -> np.ndarray:
    """``user_ids`` as int64; an id no int64 holds becomes -1 (no account)."""
    try:
        return np.asarray(user_ids, dtype=np.int64)
    except OverflowError:
        return np.array([user_id if -(1 << 63) <= user_id < 1 << 63 else -1
                         for user_id in user_ids], dtype=np.int64)


def _check_mix(personas: Mapping[str, float], owner: str) -> None:
    """Reject an empty, unknown, negative or massless persona mix."""
    if not personas:
        raise ConfigurationError(f"a {owner} needs a non-empty persona mix")
    for name, weight in personas.items():
        if name not in PERSONAS:
            raise ConfigurationError(f"unknown persona: {name!r}")
        if weight < 0:
            raise ConfigurationError(f"persona weight must be >= 0: {weight!r}")
    if sum(personas.values()) <= 0:
        raise ConfigurationError("persona mix weights must sum to > 0")


@dataclass(frozen=True)
class FollowerSegmentSpec:
    """One cohort of a target's follower base, in arrival order.

    Attributes
    ----------
    fraction:
        Share of the historical follower base arriving in this cohort.
    personas:
        Persona-name -> weight mix of the cohort's members.
    duration_frac:
        Share of the target's follow window occupied by the cohort;
        defaults to ``fraction`` (steady growth).  A purchased-fake burst
        is a cohort with a tiny ``duration_frac``.
    gamma:
        Intra-cohort pacing (see :class:`SegmentWindow`).
    """

    fraction: float
    personas: Mapping[str, float]
    duration_frac: Optional[float] = None
    gamma: float = 1.0

    def __post_init__(self) -> None:
        if not 0.0 < self.fraction <= 1.0:
            raise ConfigurationError(f"fraction must be in (0, 1]: {self.fraction!r}")
        _check_mix(self.personas, "segment")


def uniform_segments(inactive: float, fake: float, genuine: float,
                     pieces: int = 1) -> List[FollowerSegmentSpec]:
    """Build ``pieces`` identical segments realising a label composition.

    With one piece the follower base is homogeneous in arrival order —
    the null hypothesis under which head-of-list sampling would be
    harmless.  Experiments contrasting biased and unbiased sampling use
    :func:`tilted_segments` instead.
    """
    mix = persona_mix_from_labels(inactive, fake, genuine)
    return [
        FollowerSegmentSpec(fraction=1.0 / pieces, personas=mix)
        for _ in range(pieces)
    ]


def tilted_segments(inactive: float, fake: float, genuine: float,
                    tilt: float = 0.5,
                    pieces: int = 4) -> List[FollowerSegmentSpec]:
    """Build segments with the *recency gradient* the paper observes.

    Long-term followers are more likely to have gone inactive than fresh
    ones ("new followers are less likely to be inactive than long-term
    followers", Section IV-D).  The overall (inactive, fake, genuine)
    composition is preserved exactly, but the inactive mass is shifted
    toward early cohorts: cohort ``i`` of ``pieces`` gets its inactive
    fraction scaled by a linear ramp from ``1 + tilt`` (oldest) down to
    ``1 - tilt`` (newest), with genuine mass absorbing the difference.

    ``tilt`` must lie in ``[0, 1)``.  A cohort's inactive share is
    capped at ``inactive + genuine`` (its genuine mass cannot go
    negative); any mass lost to that cap is redistributed to the
    cohorts that still have genuine headroom, so the aggregate
    composition matches *exactly* even at extreme inactive rates — the
    gradient simply flattens where there is no room for it.
    """
    if not 0.0 <= tilt < 1.0:
        raise ConfigurationError(f"tilt must be in [0, 1): {tilt!r}")
    if pieces < 1:
        raise ConfigurationError(f"pieces must be >= 1: {pieces!r}")
    total = inactive + fake + genuine
    inactive, fake, genuine = inactive / total, fake / total, genuine / total

    # Per-cohort inactive multipliers averaging exactly 1.
    if pieces == 1:
        multipliers = [1.0]
    else:
        multipliers = [
            1.0 + tilt * (1.0 - 2.0 * i / (pieces - 1)) for i in range(pieces)
        ]
    cap = inactive + genuine
    cohort_inactive = [min(cap, inactive * m) for m in multipliers]
    # Water-fill the clipped-off mass into cohorts below the cap.
    deficit = inactive * pieces - sum(cohort_inactive)
    while deficit > 1e-12:
        headroom = [cap - value for value in cohort_inactive]
        open_cohorts = [i for i, room in enumerate(headroom) if room > 1e-12]
        if not open_cohorts:
            break  # cap == inactive everywhere: nothing to redistribute
        share = deficit / len(open_cohorts)
        for i in open_cohorts:
            added = min(headroom[i], share)
            cohort_inactive[i] += added
            deficit -= added
    segments = []
    for value in cohort_inactive:
        cohort_genuine = max(0.0, genuine + inactive - value)
        mix = persona_mix_from_labels(value, fake, cohort_genuine)
        segments.append(
            FollowerSegmentSpec(fraction=1.0 / pieces, personas=mix))
    return segments


@dataclass(frozen=True)
class PostRefBurst:
    """A follower block bought *after* the reference instant.

    The mid-monitoring analogue of a purchased-burst segment: where
    :class:`FollowerSegmentSpec` shapes the historical base, a
    ``PostRefBurst`` delivers ``count`` new followers, drawn from
    ``personas``, from exactly ``days_after`` days past the reference
    instant, interleaved with the ordinary ``daily_new_followers``
    trickle in arrival order.

    Attributes
    ----------
    delivery_per_hour:
        Size of the hourly delivery tranches, the first landing at the
        order instant ("Followers or Phantoms?" reports staged
        delivery); ``None`` delivers the whole block at once.
    daily_attrition:
        Share of the block's remaining members leaving per day, from
        one day after the last tranche ("The Follower Count Fallacy"
        reports the drop-off).  The rule is exact integer arithmetic:
        each day ``alive * ppm // 1_000_000`` members leave, ``ppm``
        being the share rounded to parts per million, earliest
        delivered first (see :class:`ArrivalSchedule`).  A departed
        member leaves ``follower_count`` and ``followers/ids``, while
        ``users/lookup`` still resolves it, as after an unfollow.
    """

    days_after: float
    count: int
    personas: Mapping[str, float]
    delivery_per_hour: Optional[int] = None
    daily_attrition: float = 0.0

    def __post_init__(self) -> None:
        if self.days_after < 0:
            raise ConfigurationError(
                f"days_after must be >= 0: {self.days_after!r}")
        if self.count < 1:
            raise ConfigurationError(f"count must be >= 1: {self.count!r}")
        if self.delivery_per_hour is not None and self.delivery_per_hour < 1:
            raise ConfigurationError(
                f"delivery_per_hour must be >= 1: {self.delivery_per_hour!r}")
        if not 0.0 <= self.daily_attrition < 1.0:
            raise ConfigurationError(
                f"daily_attrition must be in [0, 1): {self.daily_attrition!r}")
        _check_mix(self.personas, "burst")


def fake_purchase_burst(days_after: float, count: int) -> PostRefBurst:
    """Shorthand for an all-fake :class:`PostRefBurst` (a bought block)."""
    return PostRefBurst(days_after=days_after, count=count,
                        personas=persona_mix_from_labels(0.0, 1.0, 0.0))


@dataclass(frozen=True)
class TargetSpec:
    """Declarative description of an auditable target account.

    Attributes
    ----------
    screen_name:
        Unique handle of the target.
    followers:
        Historical follower-base size at the reference instant.
    segments:
        Arrival-ordered cohorts whose fractions sum to 1.
    created_at:
        Target account creation time (epoch seconds).
    follow_window_days:
        How far before the reference instant the first follower arrived;
        defaults to the span between creation and reference.
    daily_new_followers:
        Trickle of fresh arrivals per day after the reference instant
        (drawn from the newest cohort's persona mix); drives the daily
        snapshot ordering experiment.
    post_ref_bursts:
        :class:`PostRefBurst` blocks bought after the reference
        instant, interleaved with the trickle in arrival order; each
        burst's members draw from its own persona mix.
    statuses_count, friends_count, verified, display_name, description:
        Profile attributes of the target itself.
    behavior:
        Tweeting behaviour of the target (used for its own timeline).
    """

    screen_name: str
    followers: int
    segments: Sequence[FollowerSegmentSpec]
    created_at: float
    follow_window_days: Optional[float] = None
    daily_new_followers: float = 0.0
    post_ref_bursts: Sequence[PostRefBurst] = ()
    statuses_count: int = 2500
    friends_count: int = 300
    verified: bool = False
    display_name: str = ""
    description: str = "Official account."
    behavior: BehaviorProfile = field(default=BehaviorProfile(tweets_per_day=3.0))

    def __post_init__(self) -> None:
        if self.followers < 0:
            raise ConfigurationError(f"followers must be >= 0: {self.followers!r}")
        if not self.screen_name:
            raise ConfigurationError("screen_name must be non-empty")
        if self.followers > 0:
            if not self.segments:
                raise ConfigurationError("a followed target needs >= 1 segment")
            total = sum(segment.fraction for segment in self.segments)
            if not 0.999 <= total <= 1.001:
                raise ConfigurationError(
                    f"segment fractions must sum to 1, got {total!r}")
        if self.created_at < TWITTER_LAUNCH:
            raise ConfigurationError("target cannot predate Twitter's launch")
        if self.daily_new_followers < 0:
            raise ConfigurationError("daily_new_followers must be >= 0")
        # The target's own users/lookup row holds these texts.
        for field_name, text in (
                ("screen_name", self.screen_name),
                ("name", self.display_name or self.screen_name),
                ("description", self.description)):
            if len(text) > STRING_WIDTHS[field_name] or text.endswith("\x00"):
                raise ConfigurationError(
                    f"target {field_name} {text!r} does not fit its "
                    f"{STRING_WIDTHS[field_name]}-character row column")


#: Persona tables by mix: sorted ``(name, weight, Persona)`` triples.
_PersonaTables = Dict[Tuple[Tuple[str, float, Persona], ...], WeightedTable]


def _persona_table(tables: _PersonaTables,
                   mix: Mapping[str, float]) -> WeightedTable:
    """The :class:`WeightedTable` of ``mix`` over its sorted names.

    Sorted names keep the picks of the running-sum oracle
    ``weighted_choice(rng, sorted(mix), ...)`` in
    ``tests/core/rng_oracle.py``.  A mix already in ``tables`` reuses
    its table; the key holds the registered :class:`Persona` objects,
    so a re-registered name gets a new one.
    """
    names = sorted(mix)
    key = tuple((name, mix[name], PERSONAS[name]) for name in names)
    table = tables.get(key)
    if table is None:
        table = tables[key] = WeightedTable([PERSONAS[name] for name in names],
                                            [mix[name] for name in names])
    return table


class FollowerPopulation:
    """Lazy follower universe of one target.

    Exposes arrival-ordered positions ``0 .. arrived_at(now) - 1``, of
    which the ``size_at(now)`` not departed form the follower list;
    every query is a deterministic function of the master seed, so
    repeated audits of the same target observe the same world.  A world passes
    every target the same ``persona_tables``, so targets with equal
    persona mixes share their pick tables.
    """

    def __init__(self, spec: TargetSpec, ordinal: int, seed: int,
                 ref_time: float,
                 persona_tables: Optional[_PersonaTables] = None) -> None:
        self._spec = spec
        self._ordinal = ordinal
        self._seed = seed
        self._ref_time = ref_time

        window_days = spec.follow_window_days
        if window_days is None:
            window_days = max(1.0, (ref_time - spec.created_at) / DAY)
        window_start = max(spec.created_at, ref_time - window_days * DAY)
        span = ref_time - window_start

        # Translate cohort fractions into chronological segment windows.
        duration_total = sum(
            segment.duration_frac if segment.duration_frac is not None
            else segment.fraction
            for segment in spec.segments
        ) or 1.0
        windows: List[SegmentWindow] = []
        cursor = window_start
        remaining = spec.followers
        for index, segment in enumerate(spec.segments):
            if index == len(spec.segments) - 1:
                count = remaining
            else:
                count = int(round(spec.followers * segment.fraction))
                count = min(count, remaining)
            remaining -= count
            duration = (
                segment.duration_frac if segment.duration_frac is not None
                else segment.fraction
            ) / duration_total * span
            windows.append(SegmentWindow(
                count=count, start=cursor, end=cursor + duration,
                gamma=segment.gamma))
            cursor += duration
        # Kept in the schedule's (sorted-by-time) burst order so pseudo
        # segment indices map straight back to their persona mixes.
        bursts = sorted(
            spec.post_ref_bursts, key=lambda b: (b.days_after, b.count))
        schedule_ref = windows[-1].end if windows else ref_time
        self._schedule = ArrivalSchedule(
            windows, post_ref_daily=spec.daily_new_followers,
            post_ref_bursts=[
                (schedule_ref + burst.days_after * DAY, burst.count,
                 burst.delivery_per_hour, burst.daily_attrition)
                for burst in bursts])
        # One persona table per schedule segment index: the historical
        # segments, then the post-reference trickle (which inherits the
        # newest cohort's mix), then each burst's own mix.
        shared = {} if persona_tables is None else persona_tables
        tables = [_persona_table(shared, segment.personas)
                  for segment in spec.segments]
        tables.append(tables[-1])
        tables.extend(_persona_table(shared, burst.personas)
                      for burst in bursts)
        self._persona_tables = tables
        # Every persona of the population once, and per table the
        # population-wide code of each of its items.
        self._personas: List[Persona] = list(dict.fromkeys(
            persona for table in tables for persona in table.items))
        codes = {persona: code for code, persona in enumerate(self._personas)}
        self._table_codes = [
            np.array([codes[persona] for persona in table.items],
                     dtype=np.int64)
            for table in tables]
        self._key_base = follower_key_state(seed, ordinal)
        self._id_base = (FOLLOWER_TAG << _NAMESPACE_SHIFT) | (
            ordinal << _POSITION_BITS)

    @property
    def spec(self) -> TargetSpec:
        """The declarative spec this population realises."""
        return self._spec

    @property
    def ordinal(self) -> int:
        """The target's registration ordinal within its world."""
        return self._ordinal

    @property
    def schedule(self) -> ArrivalSchedule:
        """The arrival schedule mapping positions to instants."""
        return self._schedule

    def size_at(self, now: float) -> int:
        """Follower count at simulated instant ``now`` (departures excluded)."""
        return self._schedule.count_at(now)

    def arrived_at(self, now: float) -> int:
        """Followers arrived by ``now``, departed ones included.

        Every such position resolves through ``users/lookup``, as an
        account that unfollowed still exists.
        """
        return self._schedule.size_at(now)

    def followed_at(self, position: int) -> float:
        """Arrival instant of the follower at ``position``."""
        return self._schedule.arrival_time(position)

    def follower_id_at(self, position: int) -> int:
        """User id of the follower at arrival ``position``."""
        return follower_id(self._ordinal, position)

    def follower_ids(self, start: int, stop: int, now: float) -> np.ndarray:
        """Ids of follower-list entries ``[start, stop)`` at ``now``.

        Chronological, as an int64 array, without the followers
        departed by ``now``.  Composing ids is pure arithmetic, so a
        page of 5000 costs microseconds even for a 41 M-follower base.
        The slice must lie inside the list: past its end an index names
        no follower.
        """
        if start < 0 or stop < start:
            raise ConfigurationError(f"bad slice [{start}, {stop})")
        size = self.size_at(now)
        if stop > size:
            raise ConfigurationError(
                f"slice [{start}, {stop}) past the {size} followers at {now!r}")
        return self._id_base + self._schedule.positions(
            np.arange(start, stop, dtype=np.int64), now)

    def _persona_codes(self, segments: np.ndarray,
                       uniforms: np.ndarray) -> np.ndarray:
        """Population-wide persona codes, one per (segment, slot-0 draw)."""
        if len(segments) == 1:
            index = int(segments[0])
            return self._table_codes[index][[
                self._persona_tables[index].index_of(float(uniforms[0]))]]
        codes = np.empty(len(segments), dtype=np.int64)
        for index in np.unique(segments).tolist():
            rows = np.flatnonzero(segments == index)
            table = self._persona_tables[index]
            codes[rows] = self._table_codes[index][
                table.pick_indices(uniforms[rows])]
        return codes

    def personas_at(self, positions) -> List[Persona]:
        """The persona of each follower at ``positions``.

        Reads only the persona column: one key and one draw per
        position, no sampler.
        """
        positions = np.asarray(positions, dtype=np.int64)
        segments, __ = self._schedule.locate_many(positions)
        uniforms = persona_uniforms(stream_keys(self._key_base, positions))
        personas = self._personas
        return [personas[code] for code in
                self._persona_codes(segments, uniforms).tolist()]

    def persona_at(self, position: int) -> Persona:
        """Deterministically pick the persona of the follower at ``position``."""
        return self.personas_at([position])[0]

    def follower_columns(self, positions, now: float) -> FollowerColumns:
        """The followers at ``positions`` as seen at ``now``, in one pass.

        Row ``i`` is the follower at ``positions[i]``: its key, its draw
        matrix, its persona (slot 0 through its segment's table) and
        its persona sampler's columns, with the follower's arrival as
        the *latest possible creation time*: an account must exist
        before it can follow.
        """
        positions = np.asarray(positions, dtype=np.int64)
        segments, followed = self._schedule.locate_many(positions)
        bits, uniforms = draw_matrix(stream_keys(self._key_base, positions))
        codes = self._persona_codes(segments, uniforms[:, 0])
        return sample_columns(bits, uniforms, self._personas, codes, now,
                              followed, self._id_base + positions)

    def account_at(self, position: int, now: float) -> Account:
        """Materialise the follower at ``position`` as seen at ``now``."""
        return self.follower_columns([position], now).accounts()[0]

    def true_label_at(self, position: int) -> Label:
        """Ground-truth label of the follower at ``position``."""
        return self.persona_at(position).label

    def labels_at(self, positions) -> List[Label]:
        """Ground-truth labels of the followers at ``positions``."""
        return [persona.label for persona in self.personas_at(positions)]

    def composition(self, now: float,
                    sample: Optional[int] = None,
                    seed: int = 0) -> Dict[Label, float]:
        """Ground-truth label fractions of the base at ``now``.

        For very large bases an optional uniform ``sample`` bounds the
        cost; with ``sample=None`` every listed follower is inspected.
        Departed followers (attrition or unfollow) are not counted.
        """
        size = self.size_at(now)
        if size == 0:
            return {label: 0.0 for label in Label}
        if sample is not None and sample < size:
            rng = composition_rng(self._seed, seed)
            entries = rng.sample(range(size), sample)
        else:
            entries = range(size)
        labels = self.labels_at(self._schedule.positions(entries, now))
        return {label: labels.count(label) / len(labels) for label in Label}


class SyntheticWorld:
    """Lazy world: a registry of :class:`FollowerPopulation` targets plus
    a shared ambient pool answering ``friends/ids`` queries.

    ``follower_ids``/``friend_ids`` return slices in *chronological*
    order of edge creation; the API layer is responsible for exposing
    them newest-first, as the real service does (paper, Section IV-B).
    """

    def __init__(self, seed: int, ref_time: float) -> None:
        self._seed = seed
        self._ref_time = ref_time
        self._populations: List[FollowerPopulation] = []
        self._by_name: Dict[str, int] = {}
        self._persona_tables: _PersonaTables = {}
        self._timelines = TimelineGenerator(seed)

    @property
    def ref_time(self) -> float:
        """The world's reference instant (its "present")."""
        return self._ref_time

    @property
    def seed(self) -> int:
        """The master seed every generation derives from."""
        return self._seed

    def add_target(self, spec: TargetSpec) -> FollowerPopulation:
        """Register a target and return its lazy follower population."""
        key = spec.screen_name.lower()
        if key in self._by_name:
            raise DuplicateAccountError(spec.screen_name)
        ordinal = len(self._populations)
        population = FollowerPopulation(spec, ordinal, self._seed,
                                        self._ref_time, self._persona_tables)
        self._populations.append(population)
        self._by_name[key] = ordinal
        return population

    def population(self, screen_name: str) -> FollowerPopulation:
        """Look up a registered target's population by handle."""
        key = screen_name.lower()
        if key not in self._by_name:
            raise UnknownAccountError(screen_name)
        return self._populations[self._by_name[key]]

    def targets(self) -> List[FollowerPopulation]:
        """All registered target populations, in registration order."""
        return list(self._populations)

    # -- account resolution --------------------------------------------------

    def _target_profile(self, ordinal: int, now: float) -> tuple:
        """A target's profile at ``now``: its :class:`Account` fields up
        to ``last_tweet_at``, in field order."""
        population = self._populations[ordinal]
        spec = population.spec
        statuses = spec.statuses_count
        return (target_id(ordinal), spec.screen_name, spec.created_at,
                spec.display_name or spec.screen_name, spec.description,
                "", "", False, spec.verified, population.size_at(now),
                spec.friends_count, statuses,
                max(spec.created_at, now - 2 * HOUR) if statuses > 0
                else None)

    def _target_account(self, ordinal: int, now: float) -> Account:
        return Account(*self._target_profile(ordinal, now),
                       behavior=self._populations[ordinal].spec.behavior,
                       true_label=Label.GENUINE)

    def _record(self, user_id: int, now: float) -> Optional[tuple]:
        """The row of a target or ambient id, ``None`` if it is unknown.

        A target's row comes straight from its spec, with no
        :class:`Account` in between.
        """
        from .columnar.schema import account_record, profile_record

        try:
            if namespace_of(user_id) != TARGET_TAG:
                return account_record(self.account_by_id(user_id, now))
            ordinal = self._ordinal(user_id)
        except UnknownAccountError:
            return None
        return profile_record(self._target_profile(ordinal, now),
                              self._populations[ordinal].spec.behavior,
                              Label.GENUINE)

    def _ordinal(self, user_id: int) -> int:
        """The registered target ordinal a target id names."""
        ordinal = user_id & ((1 << _NAMESPACE_SHIFT) - 1)
        if ordinal >= len(self._populations):
            raise UnknownAccountError(user_id)
        return ordinal

    def _ambient_account(self, index: int, now: float) -> Account:
        rng = ambient_rng(self._seed, index)
        persona = PERSONAS[
            "genuine_active" if rng.random() < 0.8 else "genuine_abandoned"]
        return persona.sample(rng, ambient_id(index), now)

    def account_by_id(self, user_id: int, now: float) -> Account:
        """Resolve a user id to an account snapshot at ``now``."""
        tag = namespace_of(user_id)
        if tag == TARGET_TAG:
            return self._target_account(self._ordinal(user_id), now)
        if tag == FOLLOWER_TAG:
            population, position = self._follower(user_id, now)
            return population.account_at(position, now)
        if tag == AMBIENT_TAG:
            index = user_id & ((1 << _NAMESPACE_SHIFT) - 1)
            if index >= AMBIENT_POOL_SIZE:
                raise UnknownAccountError(user_id)
            return self._ambient_account(index, now)
        raise UnknownAccountError(user_id)

    def account_by_name(self, screen_name: str, now: float) -> Account:
        """Resolve a target's handle to its account snapshot at ``now``."""
        key = screen_name.lower()
        if key in self._by_name:
            return self._target_account(self._by_name[key], now)
        raise UnknownAccountError(screen_name)

    # -- graph queries --------------------------------------------------------

    def follower_count(self, user_id: int, now: float) -> int:
        """Number of followers the account has at ``now``."""
        if namespace_of(user_id) == TARGET_TAG:
            return self._populations[self._ordinal(user_id)].size_at(now)
        return self.account_by_id(user_id, now).followers_count

    def follower_ids(self, user_id: int, start: int, stop: int,
                     now: float) -> Sequence[int]:
        """Chronological slice ``[start, stop)`` of follower ids at ``now``,
        clamped to the list."""
        if namespace_of(user_id) != TARGET_TAG:
            # Leaf accounts' follower lists are not modelled individually;
            # an empty list matches what engines observe for accounts
            # they never audit as targets.
            return []
        population = self._populations[self._ordinal(user_id)]
        size = population.size_at(now)
        start = max(0, min(start, size))
        stop = max(start, min(stop, size))
        return population.follower_ids(start, stop, now)

    def friend_count(self, user_id: int, now: float) -> int:
        """Number of accounts the user follows at ``now``."""
        return self.account_by_id(user_id, now).friends_count

    def friend_ids(self, user_id: int, start: int, stop: int,
                   now: float) -> Sequence[int]:
        """Slice ``[start, stop)`` of the ambient accounts the user follows."""
        count = min(self.friend_count(user_id, now), AMBIENT_POOL_SIZE)
        start = max(0, min(start, count))
        stop = max(start, min(stop, count))
        if stop == start:
            return []
        rng = friends_rng(self._seed, user_id)
        indices = rng.sample(range(AMBIENT_POOL_SIZE), count)
        return [ambient_id(index) for index in indices[start:stop]]

    def unfollow(self, follower_id: int, target_id: int, at: float) -> None:
        """``follower_id`` stops following ``target_id`` at ``at``.

        From ``at`` on the follower leaves the target's count and
        ``followers/ids``, while ``users/lookup`` still resolves it, as
        a departed burst member.  An id naming no account raises
        :class:`UnknownAccountError`; a follower not on the target's
        list at ``at`` (not arrived yet, gone to its burst's attrition,
        already unfollowed, or following someone else) raises
        :class:`GraphError`.
        """
        if namespace_of(target_id) != TARGET_TAG:
            # Either id unknown: UnknownAccountError.
            self.account_by_id(target_id, at)
            self.account_by_id(follower_id, at)
            raise GraphError(f"{target_id} has no modelled follower list")
        population = self._populations[self._ordinal(target_id)]
        if namespace_of(follower_id) != FOLLOWER_TAG:
            self.account_by_id(follower_id, at)
            raise GraphError(f"{follower_id} does not follow {target_id}")
        ordinal, position = decode_follower(follower_id)
        if ordinal >= len(self._populations):
            raise UnknownAccountError(follower_id)
        if ordinal != population.ordinal:
            raise GraphError(f"{follower_id} does not follow {target_id}")
        population.schedule.depart(position, at)

    def _follower(self, user_id: int, now: float) -> Tuple[FollowerPopulation, int]:
        """The population and position of a follower id arrived by ``now``."""
        ordinal, position = decode_follower(user_id)
        if ordinal >= len(self._populations):
            raise UnknownAccountError(user_id)
        population = self._populations[ordinal]
        if position >= population.arrived_at(now):
            raise UnknownAccountError(user_id)
        return population, position

    def _follower_batches(self, user_ids: np.ndarray, now: float
                          ) -> Iterator[Tuple[np.ndarray, FollowerColumns]]:
        """The resolvable followers among ``user_ids``, one batch per target.

        Yields ``(indices into user_ids, columns)``.  Validity is asked
        once per target (``arrived_at(now)``), not once per id.
        """
        # Ordinal -1: not a follower id.
        ordinals = np.where((user_ids >> _NAMESPACE_SHIFT) == FOLLOWER_TAG,
                            (user_ids >> _POSITION_BITS) & _ORDINAL_MASK, -1)
        positions = user_ids & _POSITION_MASK
        for ordinal in sorted(set(ordinals.tolist())):
            if not 0 <= ordinal < len(self._populations):
                continue
            population = self._populations[ordinal]
            rows = np.nonzero((ordinals == ordinal) & (
                positions < population.arrived_at(now)))[0]
            if len(rows):
                yield rows, population.follower_columns(positions[rows], now)

    def timeline(self, user_id: int, count: int, now: float) -> TimelineBlock:
        """The user's recent tweets at ``now``, newest first."""
        return self.timelines([user_id], count, now)[0]

    def timelines(self, user_ids: Sequence[int], count: int,
                  now: float) -> List[TimelineBlock]:
        """:meth:`timeline` of every id at ``now``, in order, in array passes.

        Each target's followers among ``user_ids`` are generated as one
        batch of columns, and their timelines drawn together
        (:meth:`TimelineGenerator.timelines`); a target or ambient
        account is drawn from its :class:`Account`.  An unknown id
        raises :class:`UnknownAccountError`.
        """
        ids = _id_array(user_ids)
        blocks: List[Optional[TimelineBlock]] = [None] * len(ids)
        for rows, columns in self._follower_batches(ids, now):
            for row, block in zip(rows.tolist(), self._timelines.timelines(
                    columns.timeline_profiles(), count)):
                blocks[row] = block
        for row, block in enumerate(blocks):
            if block is None:
                blocks[row] = self._timelines.recent_tweets(
                    self.account_by_id(int(user_ids[row]), now), count)
        return blocks

    def user_objects(self, user_ids: Sequence[int], now: float) -> List["UserObject"]:
        """Resolve ``user_ids`` to API user objects at ``now``, in order.

        Unknown/suspended ids are silently dropped, exactly as the real
        ``users/lookup`` endpoint omits them from its response.  This is
        the object oracle that :meth:`user_row_block` must match row for
        row.
        """
        from ..api.endpoints import UserObject  # deferred: api imports this module

        users: List[UserObject] = []
        for user_id in user_ids:
            try:
                account = self.account_by_id(user_id, now)
            except UnknownAccountError:
                continue
            users.append(UserObject.from_account(account))
        return users

    def user_row_block(self, user_ids: Sequence[int],
                       now: float) -> "UserRowBlock":
        """``users/lookup`` as one structured-row block.

        The input the engines' criteria classify without materialising
        user objects: each target's resolvable followers are generated
        as one batch of columns and rendered to
        :data:`~repro.twitter.columnar.schema.ACCOUNT_DTYPE` record
        tuples, a target's row is built from its spec and an ambient
        account's from its :class:`Account`, and one ``np.array`` call
        packs them all.  Order, duplicates and the silent omission of
        unknown ids match :meth:`user_objects`.
        """
        from .columnar.schema import ACCOUNT_DTYPE, UserRowBlock

        ids = _id_array(user_ids)
        records = [None] * len(ids)
        for rows, columns in self._follower_batches(ids, now):
            for row, record in zip(rows.tolist(), columns.profile_rows()):
                records[row] = record
        others = (ids >> _NAMESPACE_SHIFT) != FOLLOWER_TAG
        for row in np.flatnonzero(others).tolist():
            records[row] = self._record(int(ids[row]), now)
        return UserRowBlock(np.array(
            [record for record in records if record is not None],
            dtype=ACCOUNT_DTYPE))
