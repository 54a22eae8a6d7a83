"""Gold-standard dataset construction.

The Fake Project trained and validated its classifier on "a gold
standard of Twitter accounts, where fake followers, inactive, and
genuine accounts were a priori known" (paper, Section III) — built from
verified human volunteers and fake followers *actually purchased* from
sellers.  Our substrate equivalent samples accounts straight from the
persona library, so labels are known a priori by construction, and
generates each account's recent timeline exactly as a crawler would
retrieve it (a lazily rendered
:class:`~repro.twitter.timeline.TimelineBlock`, so profile-only
training never pays for tweet text).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np

from ..api.endpoints import UserObject
from ..core.errors import ConfigurationError, TrainingError
from ..core.rng import make_rng
from ..core.timeutil import PAPER_EPOCH
from ..twitter.account import Label
from ..twitter.columns import sample_accounts
from ..twitter.personas import PERSONAS
from ..twitter.timeline import TimelineGenerator, TimelineProfiles
from ..twitter.tweet import Tweet
from .features import FeatureSet

#: Personas whose accounts are *active* (recent tweets), by label.
ACTIVE_FAKE_PERSONAS = ("fake_classic", "fake_spammer")
ACTIVE_GENUINE_PERSONAS = ("genuine_active", "genuine_newbie")
INACTIVE_PERSONAS = ("genuine_abandoned", "fake_egg_dormant")


@dataclass(frozen=True)
class GoldExample:
    """One labelled account with its retrievable timeline."""

    user: UserObject
    timeline: Sequence[Tweet]
    label: Label

    @property
    def is_fake(self) -> int:
        """Binary target for the fake-vs-genuine classifier (1 = fake)."""
        return 1 if self.label is Label.FAKE else 0


class GoldStandard:
    """A labelled collection with feature extraction and splitting."""

    def __init__(self, examples: Sequence[GoldExample], now: float) -> None:
        if not examples:
            raise TrainingError("gold standard must be non-empty")
        self._examples = tuple(examples)
        self._now = now

    @property
    def now(self) -> float:
        """Observation instant all examples were captured at."""
        return self._now

    @property
    def examples(self) -> Tuple[GoldExample, ...]:
        """The labelled examples, in order."""
        return self._examples

    def __len__(self) -> int:
        return len(self._examples)

    def labels(self) -> np.ndarray:
        """Binary labels (1 = fake)."""
        return np.array([e.is_fake for e in self._examples], dtype=np.int64)

    def three_way_labels(self) -> List[Label]:
        """Ground-truth labels in the paper's three-way taxonomy."""
        return [e.label for e in self._examples]

    def users(self) -> List[UserObject]:
        """The examples' public profile objects."""
        return [e.user for e in self._examples]

    def timelines(self) -> List[Sequence[Tweet]]:
        """The examples' retrievable timelines."""
        return [e.timeline for e in self._examples]

    def design_matrix(self, feature_set: FeatureSet) -> np.ndarray:
        """Extract the feature matrix for all examples."""
        return feature_set.extract_matrix(
            self.users(), self.timelines(), self._now)

    def subset(self, indices: Sequence[int]) -> "GoldStandard":
        """A new gold standard containing only the given indices."""
        return GoldStandard(
            [self._examples[i] for i in indices], self._now)

    def split(self, train_fraction: float = 0.7,
              seed: int = 0) -> Tuple["GoldStandard", "GoldStandard"]:
        """Shuffled train/test split."""
        if not 0.0 < train_fraction < 1.0:
            raise ConfigurationError(
                f"train_fraction must be in (0, 1): {train_fraction!r}")
        rng = make_rng(seed, "gold-split")
        indices = list(range(len(self._examples)))
        rng.shuffle(indices)
        cut = max(1, min(len(indices) - 1,
                         int(round(len(indices) * train_fraction))))
        return self.subset(indices[:cut]), self.subset(indices[cut:])


def build_gold_standard(
        *,
        n_fake: int = 500,
        n_genuine: int = 500,
        n_inactive: int = 0,
        seed: int = 1234,
        now: float = PAPER_EPOCH,
        timeline_depth: int = 200,
) -> GoldStandard:
    """Sample a labelled dataset straight from the persona library.

    ``n_inactive > 0`` adds behaviourally inactive accounts, useful for
    evaluating the full three-way pipeline; the binary classifier is
    trained with ``n_inactive = 0`` since the FC engine filters
    inactives by rule before classification.
    """
    if min(n_fake, n_genuine) < 1:
        raise ConfigurationError("need at least one fake and one genuine")
    if n_inactive < 0:
        raise ConfigurationError(f"n_inactive must be >= 0: {n_inactive!r}")
    rng = make_rng(seed, "gold")
    timelines = TimelineGenerator(seed)
    examples: List[GoldExample] = []

    def add(count: int, persona_names: Sequence[str]) -> None:
        personas = [PERSONAS[persona_names[index % len(persona_names)]]
                    for index in range(count)]
        keys = [rng.getrandbits(64) for __ in range(count)]
        user_ids = [(7 << 56) | (len(examples) + 1 + index)
                    for index in range(count)]
        accounts = sample_accounts(personas, keys, user_ids, now)
        for persona, account, timeline in zip(
                personas, accounts, timelines.timelines(
                    TimelineProfiles.of(accounts), timeline_depth)):
            examples.append(GoldExample(
                user=UserObject.from_account(account),
                timeline=timeline,
                label=persona.label,
            ))

    add(n_fake, ACTIVE_FAKE_PERSONAS)
    add(n_genuine, ACTIVE_GENUINE_PERSONAS)
    if n_inactive:
        add(n_inactive, INACTIVE_PERSONAS)
    rng.shuffle(examples)
    return GoldStandard(examples, now)
