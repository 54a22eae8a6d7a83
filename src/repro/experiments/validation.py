"""World self-validation.

Synthetic-data studies live or die by their generators: if ground-truth
labels drift from the behavioural definitions, every downstream result
is garbage.  This module packages the invariants the library's own test
suite enforces into a runtime check any user can point at any world —
especially one they built themselves with custom personas or specs:

1. **label/behaviour consistency** — an account labelled INACTIVE
   never tweeted or last tweeted > 90 days ago, and vice versa;
2. **arrival monotonicity** — follower positions are chronological;
3. **composition accuracy** — realised label shares match the spec's
   declared composition within sampling tolerance;
4. **causality** — no follower's account was created after it followed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from ..core.errors import ConfigurationError
from ..core.rng import make_rng
from ..twitter.account import Label
from ..twitter.personas import INACTIVITY_HORIZON
from ..twitter.population import FollowerPopulation, SyntheticWorld
from .report import TextTable


@dataclass
class ValidationReport:
    """Outcome of validating one target population."""

    handle: str
    checked: int
    label_mismatches: int = 0
    ordering_violations: int = 0
    causality_violations: int = 0
    composition_error: float = 0.0
    #: Allowed composition error, scaled to the sampling noise of
    #: ``checked`` draws (~3 sigma of a worst-case proportion).
    composition_tolerance: float = 0.06
    notes: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        """Whether every invariant held within tolerance."""
        return (self.label_mismatches == 0
                and self.ordering_violations == 0
                and self.causality_violations == 0
                and self.composition_error <= self.composition_tolerance)


def validate_population(population: FollowerPopulation, now: float,
                        *, sample: int = 2000,
                        seed: int = 0) -> ValidationReport:
    """Check one target's follower population against the invariants."""
    size = population.size_at(now)
    handle = population.spec.screen_name
    if size == 0:
        return ValidationReport(handle=handle, checked=0,
                                notes=["empty population: nothing to check"])
    rng = make_rng(seed, "validate", handle)
    if sample < size:
        positions = sorted(rng.sample(range(size), sample))
    else:
        positions = list(range(size))

    tolerance = max(0.02, 3.0 * (0.25 / len(positions)) ** 0.5)
    report = ValidationReport(handle=handle, checked=len(positions),
                              composition_tolerance=tolerance)
    counts: Dict[Label, int] = {label: 0 for label in Label}
    previous_arrival = None
    accounts = population.follower_columns(positions, now).accounts()
    for position, account in zip(positions, accounts):
        label = account.true_label
        counts[label] += 1

        age = account.last_tweet_age(now)
        behaviourally_inactive = age is None or age > INACTIVITY_HORIZON
        if behaviourally_inactive != (label is Label.INACTIVE):
            report.label_mismatches += 1

        arrival = population.followed_at(position)
        if previous_arrival is not None and arrival < previous_arrival:
            report.ordering_violations += 1
        previous_arrival = arrival

        if account.created_at > arrival + 1e-6:
            report.causality_violations += 1

    # Composition accuracy: realised shares vs the spec's persona mass.
    expected = _expected_composition(population)
    total = sum(counts.values())
    report.composition_error = max(
        abs(counts[label] / total - expected[label]) for label in Label)
    return report


def _expected_composition(population: FollowerPopulation
                          ) -> Dict[Label, float]:
    """Label shares implied by the spec's segments and persona labels."""
    from ..twitter.personas import PERSONAS
    shares = {label: 0.0 for label in Label}
    for segment in population.spec.segments:
        mass = sum(segment.personas.values())
        for name, weight in segment.personas.items():
            shares[PERSONAS[name].label] += segment.fraction * weight / mass
    total = sum(shares.values()) or 1.0
    return {label: value / total for label, value in shares.items()}


def validate_world(world: SyntheticWorld, *, sample: int = 2000,
                   seed: int = 0) -> Tuple[List[ValidationReport], str]:
    """Validate every target in a world; returns reports and a table."""
    if not world.targets():
        raise ConfigurationError("the world has no targets to validate")
    now = world.ref_time
    reports = [
        validate_population(population, now, sample=sample, seed=seed)
        for population in world.targets()
    ]
    table = TextTable(
        ["target", "checked", "label mismatches", "ordering violations",
         "causality violations", "max composition error", "verdict"],
        title="world validation",
    )
    for report in reports:
        table.add_row(
            "@" + report.handle,
            report.checked,
            report.label_mismatches,
            report.ordering_violations,
            report.causality_violations,
            f"{100 * report.composition_error:.1f}pp",
            "ok" if report.ok else "FAIL",
        )
    return reports, table.render()
