"""Decision-level provenance: which criteria rules fired, per account.

The paper's central finding (Table III) is that the surveyed engines
*disagree*; the reproduction's engines can finally say **why**.  Every
rule in the rule-based criteria (and the FC pipeline's two decision
stages) carries a stable :data:`RuleId`; classification optionally
emits one boolean fire mask per rule into a :class:`ProvenanceSink`,
and the per-audit masks aggregate into :class:`RuleStats` (fire
counts, co-fire matrix, per-verdict attribution) attached to
``AuditReport.details["provenance"]``.

Design constraints, in order:

* **Bit identity.**  Provenance is a *pure observation*: enabling it
  changes no verdict bytes.  The criteria record the very mask arrays
  their verdict arithmetic consumes, packed MSB-first by
  :func:`pack_mask`.
* **RuleId stability.**  Rule ids are part of the observable surface:
  goldens, dashboards and the ``rule_fired_total`` metric series key
  on them.  Renaming a rule is a breaking change — treat the registry
  like a wire format (see docs/observability.md).
* **Zero overhead when off.**  No collector, no sink, no masks: the
  hot paths pass ``sink=None`` and skip every recording branch.

The cross-engine view is :class:`DisagreementReport`: per-account
verdicts of 2+ engines joined on user id, each disagreement cell
attributed to the rules that separated the engines.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Sequence, Tuple

import numpy as np

from ..core.errors import ConfigurationError

#: A stable rule identifier, ``<engine-prefix>.<rule>`` (wire format).
RuleId = str

#: Canonical verdict vocabulary the cross-engine join maps onto.  Each
#: engine's own labels ("good", "real", "genuine"; "not sure") collapse
#: to one of these so disagreement cells compare like with like.
CANONICAL_VERDICTS: Tuple[str, ...] = ("fake", "inactive", "unsure", "genuine")

_CANONICAL = {
    "fake": "fake",
    "inactive": "inactive",
    "not sure": "unsure",
    "good": "genuine",
    "real": "genuine",
    "genuine": "genuine",
}


def canonical_verdict(label: str) -> str:
    """Map an engine's verdict label onto the canonical vocabulary."""
    try:
        return _CANONICAL[label]
    except KeyError:
        raise ConfigurationError(f"unknown verdict label: {label!r}")


def pack_mask(mask) -> bytes:
    """Pack a boolean mask into an MSB-first bitmap (``np.packbits``).

    Accepts a NumPy boolean array or any sequence of truthy values;
    both pack to byte-identical bitmaps.
    """
    return np.packbits(np.asarray(mask, dtype=bool)).tobytes()


def _unpacked(data: bytes, size: int) -> np.ndarray:
    """The first ``size`` bits of an MSB-first bitmap, as a bool array."""
    return np.unpackbits(np.frombuffer(data, dtype=np.uint8))[:size] \
        .astype(bool)


def unpack_mask(data: bytes, size: int) -> List[bool]:
    """Unpack an MSB-first bitmap back into ``size`` booleans."""
    return _unpacked(data, size).tolist()


class ProvenanceSink:
    """Per-rule fire masks of **one** classification, in rule order.

    The criteria call :meth:`add` once per rule, handing over the very
    boolean mask arrays their verdict arithmetic uses.  Order of
    :meth:`add` calls fixes the rule order of the resulting record.
    """

    def __init__(self) -> None:
        self._masks: "Dict[RuleId, object]" = {}

    def add(self, rule_id: RuleId, mask) -> None:
        """Record one rule's boolean fire mask."""
        if rule_id in self._masks:
            raise ConfigurationError(f"duplicate rule id: {rule_id!r}")
        self._masks[rule_id] = mask

    @property
    def rule_ids(self) -> Tuple[RuleId, ...]:
        """Rules recorded so far, in :meth:`add` order."""
        return tuple(self._masks)

    def mask(self, rule_id: RuleId):
        """The raw mask recorded for one rule."""
        return self._masks[rule_id]

    def masks(self) -> "Dict[RuleId, object]":
        """All recorded masks, keyed by rule id, in add order."""
        return dict(self._masks)

    def packed(self) -> "Dict[RuleId, bytes]":
        """Every mask packed to its canonical bitmap."""
        return {rule: pack_mask(mask) for rule, mask in self._masks.items()}

    def __len__(self) -> int:
        return len(self._masks)


@dataclass(frozen=True)
class RuleStats:
    """Aggregates of one audit's rule fires.

    ``fired`` counts accounts each rule fired on; ``co_fired`` is the
    symmetric co-fire matrix (diagonal == ``fired``); ``by_verdict``
    attributes fires to the verdict each account received — the
    "decisive rule" view (e.g. how many *fake* verdicts had
    ``sp.ratio_20`` fired).
    """

    rules: Tuple[RuleId, ...]
    sample_size: int
    fired: Mapping[RuleId, int]
    co_fired: Mapping[RuleId, Mapping[RuleId, int]]
    by_verdict: Mapping[str, Mapping[RuleId, int]]

    def as_dict(self) -> Dict[str, object]:
        """A compact JSON-safe mapping for ``AuditReport.details``.

        Zero entries are dropped so the payload stays proportional to
        what actually fired, and keys iterate deterministically (rule
        order for rules, label order for verdicts).
        """
        co = {a: {b: count for b, count in row.items() if count and a != b}
              for a, row in self.co_fired.items()}
        return {
            "rules": list(self.rules),
            "sample_size": self.sample_size,
            "fired": {rule: count for rule, count in self.fired.items()
                      if count},
            "co_fired": {a: row for a, row in co.items() if row},
            "by_verdict": {
                label: {rule: count for rule, count in row.items() if count}
                for label, row in self.by_verdict.items()
                if any(row.values())
            },
        }


@dataclass(frozen=True)
class AuditProvenance:
    """The full provenance record of one audit's classification.

    ``bitmaps`` hold one packed fire mask per rule over the sampled
    accounts (``user_ids`` order == ``codes`` order), so any account's
    fired set is recoverable exactly; ``stats`` is the aggregate view
    that rides in the report details.
    """

    engine: str
    target: str
    labels: Tuple[str, ...]
    rules: Tuple[RuleId, ...]
    user_ids: Tuple[int, ...]
    codes: Tuple[int, ...]
    bitmaps: Mapping[RuleId, bytes]
    stats: RuleStats

    @property
    def sample_size(self) -> int:
        """Accounts classified in this audit."""
        return len(self.user_ids)

    def verdicts_by_user(self) -> Dict[int, str]:
        """``{user_id: verdict label}`` of the whole sample."""
        return {uid: self.labels[code]
                for uid, code in zip(self.user_ids, self.codes)}

    def fired_matrix(self) -> np.ndarray:
        """The ``(rules, sample)`` boolean fire matrix, in rule order."""
        size = len(self.user_ids)
        matrix = np.zeros((len(self.rules), size), dtype=bool)
        for row, rule in enumerate(self.rules):
            bits = _unpacked(self.bitmaps[rule], size)
            matrix[row, :len(bits)] = bits
        return matrix

    def fired_by_user(self) -> Dict[int, Tuple[RuleId, ...]]:
        """``{user_id: rules fired}`` recovered from the bitmaps."""
        fired = self.fired_matrix()
        return {
            uid: tuple(rule for rule, hit in zip(self.rules, fired[:, index])
                       if hit)
            for index, uid in enumerate(self.user_ids)
        }


def build_stats(labels: Sequence[str], codes, sink: ProvenanceSink,
                sample_size: int) -> RuleStats:
    """Aggregate one sink's masks into :class:`RuleStats`."""
    rules = sink.rule_ids
    masks = {rule: np.asarray(mask, dtype=bool)
             for rule, mask in sink.masks().items()}
    codes = np.asarray(codes, dtype=np.int64)
    fired = {rule: int(masks[rule].sum()) for rule in rules}
    co = {a: {b: int((masks[a] & masks[b]).sum()) for b in rules}
          for a in rules}
    by_verdict = {
        label: {rule: int((masks[rule] & (codes == code)).sum())
                for rule in rules}
        for code, label in enumerate(labels)}
    return RuleStats(rules=rules, sample_size=sample_size, fired=fired,
                     co_fired=co, by_verdict=by_verdict)


class ProvenanceCollector:
    """One run's provenance records, plus the metric/stream fan-out.

    Hand one collector to :func:`repro.audit.build_engines` (or the
    batch scheduler) and every fresh classification appends an
    :class:`AuditProvenance` here.  Each record also increments the
    lazy ``rule_fired_total{engine,rule}`` counters of the active
    observability context (series exist only for rules that actually
    fired, keeping unused exports byte-identical) and feeds the
    ``rules.<engine>`` drift streams of an attached live-telemetry
    plane.
    """

    def __init__(self) -> None:
        self._records: List[AuditProvenance] = []

    @property
    def records(self) -> Tuple[AuditProvenance, ...]:
        """Every record, in classification order."""
        return tuple(self._records)

    def __len__(self) -> int:
        return len(self._records)

    def record(self, engine: str, target: str, verdicts,
               sink: ProvenanceSink, user_ids: Sequence[int],
               t: float) -> AuditProvenance:
        """Aggregate one classification's sink into a record.

        ``verdicts`` is the :class:`~repro.analytics.criteria.
        VerdictArray` the classification produced; ``t`` is the
        simulated instant the rules evaluated at (feeds drift streams).
        """
        code_tuple = tuple(verdicts.codes.tolist())
        stats = build_stats(verdicts.labels, code_tuple, sink,
                            len(code_tuple))
        provenance = AuditProvenance(
            engine=engine,
            target=target,
            labels=tuple(verdicts.labels),
            rules=sink.rule_ids,
            user_ids=tuple(int(uid) for uid in user_ids),
            codes=code_tuple,
            bitmaps=sink.packed(),
            stats=stats,
        )
        self._records.append(provenance)
        self._export(provenance, t)
        return provenance

    def _export(self, provenance: AuditProvenance, t: float) -> None:
        """Fan one record out to the metric registry and live streams."""
        from .runtime import get_observability  # deferred: cycle

        obs = get_observability()
        if obs.enabled:
            registry = obs.registry
            for rule, count in provenance.stats.fired.items():
                if count:
                    registry.counter(
                        "rule_fired_total",
                        help="criteria rule fires by engine and rule",
                        engine=provenance.engine, rule=rule).inc(count)
        live = obs.live
        if live is not None:
            live.on_rules(provenance.engine, t,
                          dict(provenance.stats.fired),
                          provenance.sample_size)

    def for_target(self, target: str) -> Dict[str, AuditProvenance]:
        """Latest record per engine for one target (case-insensitive)."""
        wanted = target.lower()
        latest: Dict[str, AuditProvenance] = {}
        for record in self._records:
            if record.target.lower() == wanted:
                latest[record.engine] = record
        return latest


# ---------------------------------------------------------------------------
# Cross-engine disagreement drill-down
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DisagreementCell:
    """One cross-engine disagreement class for one target.

    ``count`` accounts (present in both engines' samples) received
    canonical verdict ``verdict_a`` from ``engine_a`` but ``verdict_b``
    from ``engine_b``; ``rules_a``/``rules_b`` are the rules that fired
    on those accounts in each engine, with fire counts, most-fired
    first — the rules that *separated* the two engines.
    """

    engine_a: str
    engine_b: str
    verdict_a: str
    verdict_b: str
    count: int
    rules_a: Tuple[Tuple[RuleId, int], ...]
    rules_b: Tuple[Tuple[RuleId, int], ...]

    @property
    def separating_rules(self) -> Tuple[RuleId, ...]:
        """Every rule implicated on either side, most-fired first."""
        merged: Dict[RuleId, int] = {}
        for rule, count in self.rules_a + self.rules_b:
            merged[rule] = merged.get(rule, 0) + count
        return tuple(sorted(merged, key=lambda r: (-merged[r], r)))


@dataclass(frozen=True)
class DisagreementReport:
    """All pairwise disagreement cells of one target's audits."""

    target: str
    engines: Tuple[str, ...]
    overlap: Mapping[Tuple[str, str], int]
    cells: Tuple[DisagreementCell, ...]

    def render(self) -> str:
        """The ASCII drill-down table of every disagreement cell."""
        lines = [f"disagreement drill-down @{self.target} "
                 f"(engines: {', '.join(self.engines)})"]
        if not self.cells:
            lines.append("  no cross-engine disagreement on shared accounts")
            return "\n".join(lines)
        for cell in self.cells:
            overlap = self.overlap[(cell.engine_a, cell.engine_b)]
            lines.append(
                f"  {cell.engine_a}={cell.verdict_a} vs "
                f"{cell.engine_b}={cell.verdict_b}: {cell.count}"
                f"/{overlap} shared accounts")
            for engine, rules in ((cell.engine_a, cell.rules_a),
                                  (cell.engine_b, cell.rules_b)):
                if rules:
                    fired = ", ".join(f"{rule} x{count}"
                                      for rule, count in rules[:4])
                    lines.append(f"    {engine} rules: {fired}")
        return "\n".join(lines)


def build_disagreement(target: str,
                       records: Mapping[str, AuditProvenance]
                       ) -> DisagreementReport:
    """Join 2+ engines' provenance records into a disagreement report.

    Accounts are joined on user id (engines sample different frames, so
    only the shared accounts compare); verdicts compare on the
    canonical vocabulary.  Cells are emitted in (engine_a, engine_b,
    verdict_a, verdict_b) sorted order with deterministic rule
    rankings, so renderings are golden-stable.
    """
    engines = tuple(sorted(records))
    if len(engines) < 2:
        raise ConfigurationError(
            f"need records from >= 2 engines, got {list(engines)!r}")
    verdicts = {}
    columns = {}
    for engine in engines:
        record = records[engine]
        canonical = [canonical_verdict(label) for label in record.labels]
        verdicts[engine] = {uid: canonical[code]
                            for uid, code in zip(record.user_ids, record.codes)}
        columns[engine] = {uid: index
                           for index, uid in enumerate(record.user_ids)}
    fired = {engine: records[engine].fired_matrix() for engine in engines}
    cells: List[DisagreementCell] = []
    overlap: Dict[Tuple[str, str], int] = {}
    for index, engine_a in enumerate(engines):
        for engine_b in engines[index + 1:]:
            shared = sorted(set(verdicts[engine_a]) & set(verdicts[engine_b]))
            overlap[(engine_a, engine_b)] = len(shared)
            buckets: Dict[Tuple[str, str], List[int]] = {}
            for uid in shared:
                pair = (verdicts[engine_a][uid], verdicts[engine_b][uid])
                if pair[0] != pair[1]:
                    buckets.setdefault(pair, []).append(uid)
            for (verdict_a, verdict_b) in sorted(buckets):
                uids = buckets[(verdict_a, verdict_b)]
                cells.append(DisagreementCell(
                    engine_a=engine_a, engine_b=engine_b,
                    verdict_a=verdict_a, verdict_b=verdict_b,
                    count=len(uids),
                    rules_a=_rule_tally(records[engine_a].rules,
                                        fired[engine_a],
                                        [columns[engine_a][uid]
                                         for uid in uids]),
                    rules_b=_rule_tally(records[engine_b].rules,
                                        fired[engine_b],
                                        [columns[engine_b][uid]
                                         for uid in uids]),
                ))
    return DisagreementReport(target=target, engines=engines,
                              overlap=overlap, cells=tuple(cells))


def _rule_tally(rules: Sequence[RuleId], fired: np.ndarray,
                columns: Sequence[int]) -> Tuple[Tuple[RuleId, int], ...]:
    """Fire counts of every rule over sample ``columns``, most-fired first."""
    counts = fired[:, columns].sum(axis=1).tolist()
    tally = [(rule, count) for rule, count in zip(rules, counts) if count]
    return tuple(sorted(tally, key=lambda item: (-item[1], item[0])))


def render_rule_table(records: Mapping[str, AuditProvenance]) -> str:
    """The per-engine ASCII rule table of ``repro explain``.

    One row per (engine, rule) with the fire count, the fired share of
    the engine's sample, and the per-verdict attribution of the fires.
    """
    lines = ["rule fires by engine",
             f"{'engine':<14} {'rule':<32} {'fired':>6} {'share':>7}  "
             f"verdict attribution"]
    for engine in sorted(records):
        record = records[engine]
        stats = record.stats
        total = max(1, stats.sample_size)
        for rule in stats.rules:
            count = stats.fired[rule]
            if not count:
                continue
            attribution = ", ".join(
                f"{label}={stats.by_verdict[label][rule]}"
                for label in record.labels
                if stats.by_verdict[label][rule])
            lines.append(
                f"{engine:<14} {rule:<32} {count:>6} "
                f"{100.0 * count / total:>6.1f}%  {attribution}")
    return "\n".join(lines)
