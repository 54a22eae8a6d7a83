"""Gold-standard dataset construction.

The Fake Project trained and validated its classifier on "a gold
standard of Twitter accounts, where fake followers, inactive, and
genuine accounts were a priori known" (paper, Section III) — built from
verified human volunteers and fake followers *actually purchased* from
sellers.  Our substrate equivalent samples accounts straight from the
persona library as one
:class:`~repro.twitter.columnar.schema.UserRowBlock`, so labels are
known a priori by construction (the rows' ``label`` column), and
generates each account's recent timeline exactly as a crawler would
retrieve it (a lazily rendered
:class:`~repro.twitter.timeline.TimelineBlock`, so profile-only
training never pays for tweet text).
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

import numpy as np

from ..core.errors import ConfigurationError, TrainingError
from ..core.rng import make_rng
from ..core.timeutil import PAPER_EPOCH
from ..twitter.account import LABELS, Label
from ..twitter.columnar.schema import ACCOUNT_DTYPE, UserRowBlock
from ..twitter.columns import sample_keyed
from ..twitter.personas import PERSONAS
from ..twitter.timeline import TimelineGenerator
from ..twitter.tweet import Tweet
from .features import FeatureSet

#: Personas whose accounts are *active* (recent tweets), by label.
ACTIVE_FAKE_PERSONAS = ("fake_classic", "fake_spammer")
ACTIVE_GENUINE_PERSONAS = ("genuine_active", "genuine_newbie")
INACTIVE_PERSONAS = ("genuine_abandoned", "fake_egg_dormant")
#: The ``label`` code of a fake account.
_FAKE = LABELS.index(Label.FAKE)


class GoldStandard:
    """A labelled collection with feature extraction and splitting.

    ``rows`` holds one account per example, whose ``label`` column is
    its a-priori label, and ``timelines`` one retrievable timeline per
    row.
    """

    def __init__(self, rows: UserRowBlock, timelines: Sequence,
                 now: float) -> None:
        if not len(rows):
            raise TrainingError("gold standard must be non-empty")
        if len(timelines) != len(rows):
            raise ConfigurationError(
                f"gold standard has {len(rows)} rows and "
                f"{len(timelines)} timelines")
        self._rows = rows
        self._timelines = tuple(timelines)
        self._now = now

    @property
    def now(self) -> float:
        """Observation instant all examples were captured at."""
        return self._now

    def __len__(self) -> int:
        return len(self._rows)

    def labels(self) -> np.ndarray:
        """Binary labels (1 = fake)."""
        return (self._rows.rows["label"] == _FAKE).astype(np.int64)

    def three_way_labels(self) -> List[Label]:
        """Ground-truth labels in the paper's three-way taxonomy."""
        return [LABELS[code] for code in self._rows.rows["label"].tolist()]

    def users(self) -> UserRowBlock:
        """The examples' profiles, one row each."""
        return self._rows

    def timelines(self) -> List[Sequence[Tweet]]:
        """The examples' retrievable timelines."""
        return list(self._timelines)

    def design_matrix(self, feature_set: FeatureSet) -> np.ndarray:
        """Extract the feature matrix for all examples."""
        return feature_set.extract_matrix(
            self._rows, self._timelines, self._now)

    def subset(self, indices: Sequence[int]) -> "GoldStandard":
        """A new gold standard containing only the given indices."""
        indices = np.asarray(indices, dtype=np.intp)
        return GoldStandard(
            UserRowBlock(self._rows.rows[indices]),
            [self._timelines[index] for index in indices.tolist()],
            self._now)

    def split(self, train_fraction: float = 0.7,
              seed: int = 0) -> Tuple["GoldStandard", "GoldStandard"]:
        """Shuffled train/test split."""
        if not 0.0 < train_fraction < 1.0:
            raise ConfigurationError(
                f"train_fraction must be in (0, 1): {train_fraction!r}")
        rng = make_rng(seed, "gold-split")
        indices = list(range(len(self)))
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
    generator = TimelineGenerator(seed)
    records: list = []
    timelines: list = []

    def add(count: int, persona_names: Sequence[str]) -> None:
        personas = [PERSONAS[persona_names[index % len(persona_names)]]
                    for index in range(count)]
        keys = [rng.getrandbits(64) for __ in range(count)]
        user_ids = [(7 << 56) | (len(records) + 1 + index)
                    for index in range(count)]
        columns = sample_keyed(personas, keys, user_ids, now)
        records.extend(columns.profile_rows())
        timelines.extend(generator.timelines(columns.timeline_profiles(),
                                             timeline_depth))

    add(n_fake, ACTIVE_FAKE_PERSONAS)
    add(n_genuine, ACTIVE_GENUINE_PERSONAS)
    if n_inactive:
        add(n_inactive, INACTIVE_PERSONAS)
    # random.shuffle draws only from the length and the rng state, so
    # shuffling positions permutes the examples as shuffling them would.
    order = list(range(len(records)))
    rng.shuffle(order)
    rows = np.array(records, dtype=ACCOUNT_DTYPE)[order]
    return GoldStandard(UserRowBlock(rows),
                        [timelines[index] for index in order], now)
