"""Unit tests for decision-level provenance (``repro.obs.provenance``)."""

from __future__ import annotations

import pytest

from repro.analytics.criteria import VerdictArray
from repro.core.errors import ConfigurationError
from repro.obs.provenance import (
    AuditProvenance,
    ProvenanceCollector,
    ProvenanceSink,
    build_disagreement,
    build_stats,
    canonical_verdict,
    pack_mask,
    render_rule_table,
    unpack_mask,
)
from repro.obs.runtime import observed

import numpy


class TestPackMask:
    def test_msb_first_single_byte(self):
        assert pack_mask([True] + [False] * 7) == b"\x80"
        assert pack_mask([False] * 7 + [True]) == b"\x01"

    def test_partial_trailing_byte_zero_padded(self):
        assert pack_mask([True, False, True]) == b"\xa0"

    def test_empty(self):
        assert pack_mask([]) == b""
        assert unpack_mask(b"", 0) == []

    def test_round_trip(self):
        bits = [bool((i * 7) % 3) for i in range(21)]
        assert unpack_mask(pack_mask(bits), 21) == bits

    def test_numpy_and_pure_python_pack_identically(self):
        """Plain lists and boolean arrays pack to the same bitmap."""
        for size in (0, 1, 7, 8, 9, 16, 23, 64):
            bits = [bool((i * 5) % 3 == 1) for i in range(size)]
            array = numpy.array(bits, dtype=bool)
            assert pack_mask(array) == pack_mask(bits), size
            assert pack_mask(array) == numpy.packbits(
                array.astype(numpy.uint8)).tobytes()


class TestSink:
    def test_preserves_add_order(self):
        sink = ProvenanceSink()
        sink.add("b.two", [True])
        sink.add("a.one", [False])
        assert sink.rule_ids == ("b.two", "a.one")
        assert len(sink) == 2
        assert sink.mask("b.two") == [True]
        assert sink.packed() == {"b.two": b"\x80", "a.one": b"\x00"}

    def test_duplicate_rule_rejected(self):
        sink = ProvenanceSink()
        sink.add("x.r", [True])
        with pytest.raises(ConfigurationError):
            sink.add("x.r", [False])


class TestCanonicalVerdict:
    def test_vocabulary(self):
        assert canonical_verdict("good") == "genuine"
        assert canonical_verdict("real") == "genuine"
        assert canonical_verdict("not sure") == "unsure"
        assert canonical_verdict("fake") == "fake"
        assert canonical_verdict("inactive") == "inactive"

    def test_unknown_label_rejected(self):
        with pytest.raises(ConfigurationError):
            canonical_verdict("suspicious")


def _sink(masks):
    sink = ProvenanceSink()
    for rule, mask in masks.items():
        sink.add(rule, mask)
    return sink


class TestBuildStats:
    LABELS = ("fake", "good")
    CODES = (0, 0, 1, 1)
    MASKS = {"e.a": [True, True, False, False],
             "e.b": [True, False, False, True]}

    def test_aggregates(self):
        stats = build_stats(self.LABELS, self.CODES,
                            _sink(self.MASKS), 4)
        assert stats.sample_size == 4
        assert stats.fired == {"e.a": 2, "e.b": 2}
        assert stats.co_fired["e.a"]["e.b"] == 1
        assert stats.co_fired["e.a"]["e.a"] == 2
        assert stats.by_verdict["fake"] == {"e.a": 2, "e.b": 1}
        assert stats.by_verdict["good"] == {"e.a": 0, "e.b": 1}

    def test_numpy_and_pure_python_agree(self):
        """Plain-list and array masks and codes aggregate the same."""
        pure = build_stats(self.LABELS, self.CODES, _sink(self.MASKS), 4)
        columnar = build_stats(
            self.LABELS, numpy.array(self.CODES),
            _sink({rule: numpy.array(mask)
                   for rule, mask in self.MASKS.items()}), 4)
        assert columnar.fired == pure.fired
        assert columnar.co_fired == pure.co_fired
        assert columnar.by_verdict == pure.by_verdict

    def test_as_dict_drops_zero_entries_and_diagonal(self):
        stats = build_stats(self.LABELS, self.CODES, _sink(self.MASKS), 4)
        payload = stats.as_dict()
        assert payload["fired"] == {"e.a": 2, "e.b": 2}
        assert "e.a" not in payload["co_fired"].get("e.a", {})
        assert payload["by_verdict"]["good"] == {"e.b": 1}
        assert "e.a" not in payload["by_verdict"]["good"]


def _record(collector, engine, labels, codes, masks, user_ids, t=0.0):
    return collector.record(
        engine, "target", VerdictArray(labels=labels, codes=list(codes)),
        _sink(masks), user_ids, t)


class TestCollector:
    def test_record_round_trips_fired_sets(self):
        collector = ProvenanceCollector()
        record = _record(collector, "sp", ("fake", "good"), (0, 1),
                         {"sp.r1": [True, False], "sp.r2": [True, True]},
                         (11, 22))
        assert isinstance(record, AuditProvenance)
        assert record.sample_size == 2
        assert record.verdicts_by_user() == {11: "fake", 22: "good"}
        assert record.fired_by_user() == {
            11: ("sp.r1", "sp.r2"), 22: ("sp.r2",)}
        assert len(collector) == 1

    def test_for_target_keeps_latest_per_engine(self):
        collector = ProvenanceCollector()
        _record(collector, "sp", ("fake",), (0,), {"sp.r": [True]}, (1,))
        latest = _record(collector, "sp", ("fake",), (0,),
                         {"sp.r": [False]}, (1,))
        assert collector.for_target("TARGET") == {"sp": latest}
        assert collector.for_target("elsewhere") == {}

    def test_metrics_lazy_only_fired_rules(self):
        with observed() as obs:
            collector = ProvenanceCollector()
            _record(collector, "sp", ("fake", "good"), (0, 1),
                    {"sp.hot": [True, True], "sp.cold": [False, False]},
                    (1, 2))
            series = {
                labels: instrument.value
                for name, __, labels, instrument in obs.registry.series()
                if name == "rule_fired_total"}
        assert series == {
            (("engine", "sp"), ("rule", "sp.hot")): 2}

    def test_no_metrics_outside_observed_context(self):
        collector = ProvenanceCollector()
        _record(collector, "sp", ("fake",), (0,), {"sp.r": [True]}, (1,))
        assert len(collector) == 1  # records still accumulate


class TestDisagreement:
    def _records(self):
        collector = ProvenanceCollector()
        # Engine A: user 1 fake, user 2 good; engine B: both real.
        a = _record(collector, "a", ("fake", "good"), (0, 1),
                    {"a.spam": [True, False]}, (1, 2))
        b = _record(collector, "b", ("fake", "real"), (1, 1),
                    {"b.quiet": [False, False]}, (1, 2))
        return {"a": a, "b": b}

    def test_cells_attribute_separating_rules(self):
        report = build_disagreement("target", self._records())
        assert report.engines == ("a", "b")
        assert report.overlap[("a", "b")] == 2
        assert len(report.cells) == 1
        cell = report.cells[0]
        assert (cell.verdict_a, cell.verdict_b) == ("fake", "genuine")
        assert cell.count == 1
        assert cell.rules_a == (("a.spam", 1),)
        assert cell.separating_rules == ("a.spam",)

    def test_render_names_rules(self):
        rendered = build_disagreement("target", self._records()).render()
        assert "a=fake vs b=genuine: 1/2 shared accounts" in rendered
        assert "a.spam x1" in rendered

    def test_requires_two_engines(self):
        records = self._records()
        with pytest.raises(ConfigurationError):
            build_disagreement("target", {"a": records["a"]})

    def test_agreement_renders_empty_drilldown(self):
        collector = ProvenanceCollector()
        a = _record(collector, "a", ("good",), (0,), {"a.r": [False]}, (1,))
        b = _record(collector, "b", ("real",), (0,), {"b.r": [False]}, (1,))
        rendered = build_disagreement("t", {"a": a, "b": b}).render()
        assert "no cross-engine disagreement" in rendered

    def test_rule_table_lists_fired_rules_with_attribution(self):
        rendered = render_rule_table(self._records())
        assert "rule fires by engine" in rendered
        assert "a.spam" in rendered
        assert "fake=1" in rendered
        assert "b.quiet" not in rendered  # zero fires are dropped
