"""End-to-end tests for the monitored fleet (repro monitor workload).

The golden alert log in ``golden/monitor_fleet_alerts.jsonl`` pins the
compressed incident scenario: the purchased-follower burst fires and
resolves, then the 503 storm pages the poll-success SLO.  The CI smoke
job diffs the full 200-tick CLI run against
``golden/monitor_smoke_alerts.jsonl``.
"""

import dataclasses
import gc
import json
from pathlib import Path

import pytest

from repro.cli import main
from repro.core import ConfigurationError
from repro.experiments.monitor_fleet import FleetSpec, run_monitor_fleet
from repro.obs.live import snapshot_to_json

GOLDEN = Path(__file__).parent / "golden" / "monitor_fleet_alerts.jsonl"

#: The compressed incident scenario most tests below share: purchase
#: on day 12, a six-day 503 storm from day 20, 40 monitored days.  The
#: fleet polls all three targets in one ``users/lookup`` request per
#: tick, so a shorter storm sees too few requests to page the SLO on
#: every seed.
SPEC = FleetSpec(ticks=40, purchase_tick=12, storm_start_tick=20,
                 storm_days=6)

#: The thousand-account configuration, shrunk to test scale: batched
#: fleet polling plus delta re-audits of the watchlist.  The full-size
#: (1000-account) run is pinned by the CI ``fleet-smoke`` job against
#: ``golden/delta_smoke_alerts.jsonl``.
DELTA_SPEC = FleetSpec(accounts=25, ticks=45, purchase_tick=12,
                       storm_start_tick=20, storm_days=3,
                       delta=True, reaudit_every=10)


@pytest.fixture(scope="module")
def fleet_result():
    return run_monitor_fleet(SPEC)


@pytest.fixture(scope="module")
def delta_result():
    return run_monitor_fleet(DELTA_SPEC)


def _alert_names(result):
    return [(event.kind, event.name) for event in result.alerts.events]


def _snapshots(result):
    return [snapshot_to_json(snapshot) for snapshot in result.snapshots]


class TestScenario:
    def test_alert_log_matches_golden(self, fleet_result):
        assert fleet_result.alerts.to_jsonl() == GOLDEN.read_text(
            encoding="utf-8")

    def test_burst_fires_on_the_buyer_and_resolves(self, fleet_result):
        names = _alert_names(fleet_result)
        buyer = SPEC.buyer
        assert ("fire", f"burst:{buyer}") in names
        assert ("resolve", f"burst:{buyer}") in names

    def test_storm_pages_the_slo_and_recovers(self, fleet_result):
        names = _alert_names(fleet_result)
        assert ("fire", "slo:poll-success") in names
        assert ("resolve", "slo:poll-success") in names
        assert fleet_result.alerts.active() == ()

    def test_burst_triggers_an_fc_audit_of_the_buyer(self, fleet_result):
        (audit,) = fleet_result.audits
        assert audit["handle"] == SPEC.buyer
        assert audit["engine"] == "fc"
        assert audit["fake_pct"] > 10.0  # the purchase is visible

    def test_storm_degrades_polls_but_retries_absorb_most(self, fleet_result):
        assert fleet_result.poll_failures > 0
        live = fleet_result.live
        faults = live.streams()["polls.faults"].total_sum
        assert faults > fleet_result.poll_failures  # retry pressure

    def test_snapshots_cover_every_tick(self, fleet_result):
        assert len(fleet_result.snapshots) == SPEC.ticks
        final = fleet_result.snapshots[-1]
        assert final["fleet"]["audits_run"] == 1
        assert set(final["fleet"]["followers"]) == set(SPEC.handles)

    def test_summary_reads_as_an_after_action_report(self, fleet_result):
        summary = fleet_result.summary()
        assert "monitored 3 accounts for 40 days" in summary
        assert "burst:fleet_1" in summary
        assert "slo:poll-success" in summary

    @pytest.mark.parametrize("seed", [1, 3])
    def test_incident_shape_holds_across_seeds(self, seed):
        result = run_monitor_fleet(dataclasses.replace(SPEC, seed=seed))
        assert _alert_names(result) == [
            ("fire", f"burst:{SPEC.buyer}"),
            ("resolve", f"burst:{SPEC.buyer}"),
            ("fire", "slo:poll-success"),
            ("resolve", "slo:poll-success"),
        ]
        assert [audit["handle"] for audit in result.audits] == [SPEC.buyer]
        assert result.alerts.active() == ()


class TestDeterminism:
    def test_two_runs_are_byte_identical(self, fleet_result):
        again = run_monitor_fleet(SPEC)
        assert again.alerts.to_jsonl() == fleet_result.alerts.to_jsonl()
        assert _snapshots(again) == _snapshots(fleet_result)

    def test_serial_audits_do_not_perturb_telemetry(self, fleet_result):
        serial = run_monitor_fleet(dataclasses.replace(SPEC, serial=True))
        assert serial.alerts.to_jsonl() == fleet_result.alerts.to_jsonl()
        assert _snapshots(serial) == _snapshots(fleet_result)
        assert serial.audits == fleet_result.audits


class TestSpecValidation:
    def test_rejects_bad_fields(self):
        with pytest.raises(ConfigurationError):
            FleetSpec(accounts=0)
        with pytest.raises(ConfigurationError):
            FleetSpec(ticks=0)
        with pytest.raises(ConfigurationError):
            FleetSpec(slo_objective=1.0)
        with pytest.raises(ConfigurationError):
            FleetSpec(snapshot_every=0)
        with pytest.raises(ConfigurationError):
            FleetSpec(purchase_tick=0)
        with pytest.raises(ConfigurationError):
            FleetSpec(reaudit_every=-1)
        with pytest.raises(ConfigurationError, match="graph fleet"):
            FleetSpec(columnar=False)
        FleetSpec(columnar=True, delta=True, reaudit_every=5)

    def test_single_account_fleet_buys_for_itself(self):
        assert FleetSpec(accounts=1).buyer == "fleet_0"


class TestMonitorCli:
    def test_fleet_run_writes_alerts_and_snapshots(self, tmp_path, capsys):
        alerts_path = tmp_path / "alerts.jsonl"
        snaps_path = tmp_path / "snaps.jsonl"
        code = main([
            "monitor", "--ticks", "40", "--cadence", "20", "--dashboard",
            "--alerts-out", str(alerts_path),
            "--snapshots-out", str(snaps_path),
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "fleet health" in out
        assert "monitored 3 accounts for 40 days" in out
        alert_lines = alerts_path.read_text(
            encoding="utf-8").strip().splitlines()
        assert all(json.loads(line)["name"] for line in alert_lines)
        assert len(snaps_path.read_text(
            encoding="utf-8").strip().splitlines()) == 40

    def test_without_ticks_runs_the_paper_demo(self, capsys):
        assert main(["monitor"]) == 0
        assert "ALERT: burst" in capsys.readouterr().out


class TestStatsCli:
    def test_digests_a_trace_file(self, tmp_path, capsys):
        path = tmp_path / "trace.jsonl"
        spans = [
            {"span_id": 1, "parent_id": None, "name": "audit",
             "start": 0.0, "end": 2.0, "duration": 2.0, "attributes": {}},
            {"span_id": 2, "parent_id": 1, "name": "api.call",
             "start": 0.5, "end": 1.0, "duration": 0.5, "attributes": {}},
        ]
        path.write_text("".join(json.dumps(s) + "\n" for s in spans),
                        encoding="utf-8")
        assert main(["stats", str(path)]) == 0
        out = capsys.readouterr().out
        assert "2 spans" in out
        assert "audit" in out and "api.call" in out

    def test_tolerates_a_mid_write_truncated_tail(self, tmp_path, capsys):
        path = tmp_path / "trace.jsonl"
        full = json.dumps({"span_id": 1, "parent_id": None, "name": "a",
                           "start": 0.0, "end": 1.0, "duration": 1.0,
                           "attributes": {}}) + "\n"
        path.write_text(full + '{"span_id": 2, "name": "b", "sta',
                        encoding="utf-8")
        assert main(["stats", str(path)]) == 0
        out = capsys.readouterr().out
        assert "1 spans" in out
        assert "truncated final line dropped" in out


class TestColumnarDeltaFleet:
    """The delta watchlist fleet (``DELTA_SPEC``)."""

    def test_burst_fires_and_first_audit_is_full(self, delta_result):
        names = _alert_names(delta_result)
        assert ("fire", f"burst:{DELTA_SPEC.buyer}") in names
        first = delta_result.audits[0]
        assert first["handle"] == DELTA_SPEC.buyer
        assert first["mode"] == "full"

    def test_watchlist_reaudits_go_through_the_delta_path(self, delta_result):
        modes = [audit["mode"] for audit in delta_result.audits]
        assert modes.count("delta") >= 2  # every re-audit after the first
        assert modes.count("full") == 1
        for audit in delta_result.audits:
            assert audit["handle"] == DELTA_SPEC.buyer
            assert audit["fake_pct"] > 10.0

    def test_repeat_run_is_byte_identical(self, delta_result):
        again = run_monitor_fleet(DELTA_SPEC)
        assert again.alerts.to_jsonl() == delta_result.alerts.to_jsonl()
        assert again.audits == delta_result.audits
        assert _snapshots(again) == _snapshots(delta_result)

    def test_serial_audits_do_not_perturb_the_fleet(self, delta_result):
        serial = run_monitor_fleet(
            dataclasses.replace(DELTA_SPEC, serial=True))
        assert serial.alerts.to_jsonl() == delta_result.alerts.to_jsonl()
        assert serial.audits == delta_result.audits
        assert _snapshots(serial) == _snapshots(delta_result)

    def test_fleet_polls_are_paged_not_per_account(self, delta_result):
        polls = delta_result.live.streams()["polls.total"].total_sum
        assert polls == DELTA_SPEC.accounts * DELTA_SPEC.ticks


class TestReleasesItsWorld:
    def test_a_finished_run_leaves_no_world_in_cyclic_garbage(self):
        """Dropping the result frees the world by reference counting.

        A cycle through the run's observability context (which tracks
        every engine it saw) would keep the whole world alive until a
        full collection, growing peak memory with every run.
        """
        spec = FleetSpec(accounts=4, ticks=14, purchase_tick=10,
                         storm_start_tick=12, storm_days=1)
        was_enabled, flags = gc.isenabled(), gc.get_debug()
        gc.collect()
        gc.disable()
        try:
            gc.garbage.clear()
            gc.set_debug(gc.DEBUG_SAVEALL)
            result = run_monitor_fleet(spec)
            assert result.audits  # the burst alert built an FC engine
            del result
            gc.collect()
            leaked = {type(obj).__name__ for obj in gc.garbage} \
                & {"FollowerPopulation", "SyntheticWorld"}
        finally:
            gc.set_debug(flags)
            gc.garbage.clear()
            if was_enabled:
                gc.enable()
        assert not leaked
