"""Unit tests for the tacharts and monitor CLI subcommands, the matrix
of flags the CLI rejects instead of ignoring, and the ``python -m
repro`` entry point."""

import os
import pathlib
import subprocess
import sys

import pytest

from repro import cli
from repro.cli import main


@pytest.fixture
def no_dispatch(monkeypatch):
    """A rejected command line must never start the command."""
    def dispatch(args, seed):
        raise AssertionError(f"{args.command} ran despite its flags")
    monkeypatch.setattr(cli, "_dispatch", dispatch)


class TestTaChartsCommand:
    def test_renders_three_charts(self, capsys):
        assert main(["tacharts"]) == 0
        out = capsys.readouterr().out
        assert "chart 1" in out
        assert "chart 2" in out
        assert "chart 3" in out


class TestMonitorCommand:
    def test_flags_the_buyer_only(self, capsys):
        assert main(["monitor", "--days", "12"]) == 0
        out = capsys.readouterr().out
        organic, buyer = out.split("@buyer")
        assert "@organic" in organic
        assert "no anomaly detected" in organic
        assert "ALERT" in buyer
        assert "purchased block" in buyer

    def test_seed_changes_nothing_structural(self, capsys):
        assert main(["--seed", "9", "monitor", "--days", "12"]) == 0
        out = capsys.readouterr().out
        assert "ALERT" in out


class TestMonitorModeFlags:
    """Options of the other monitor mode fail loudly instead of being
    silently ignored."""

    @pytest.mark.parametrize("flags", [
        ["--accounts", "1000"],
        ["--delta"],
        ["--reaudit-every", "10"],
        ["--provenance"],
        ["--slo", "0.9"],
        ["--dashboard"],
        ["--cadence", "5"],
        ["--alerts-out", "alerts.jsonl"],
        ["--snapshots-out", "snapshots.jsonl"],
    ], ids=lambda flags: flags[0])
    def test_fleet_flags_without_ticks_are_usage_errors(self, flags, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["monitor", *flags])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert f"monitor {flags[0]} only applies to the fleet run" in err

    def test_removed_columnar_flag_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["monitor", "--ticks", "5", "--columnar"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --columnar" \
            in capsys.readouterr().err

    @pytest.mark.parametrize("flags, message", [
        (["--accounts", "0"], "accounts must be >= 1"),
        (["--slo", "1.5"], "slo_objective must be in (0, 1)"),
        (["--reaudit-every", "-1"], "reaudit_every must be >= 0"),
        (["--dashboard", "--cadence", "0"], "--cadence must be at least 1"),
        (["--dashboard", "--cadence", "-3"], "--cadence must be at least 1"),
        (["--cadence", "5"], "--cadence only applies with --dashboard"),
    ], ids=["accounts-0", "slo-1.5", "reaudit-every--1", "cadence-0",
            "cadence--3", "cadence-without-dashboard"])
    def test_invalid_fleet_options_are_usage_errors(self, flags, message,
                                                     no_dispatch, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["monitor", "--ticks", "3", *flags])
        assert exc.value.code == 2
        assert message in capsys.readouterr().err

    def test_demo_days_with_ticks_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["monitor", "--ticks", "5", "--days", "3"])
        assert exc.value.code == 2
        assert "--days only applies to the demo" in capsys.readouterr().err

    def test_non_positive_ticks_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["monitor", "--ticks", "0"])
        assert exc.value.code == 2
        assert "--ticks must be at least 1" in capsys.readouterr().err


@pytest.mark.usefixtures("no_dispatch")
class TestIgnoredFlags:
    """Options the selected command would ignore are usage errors."""

    @pytest.mark.parametrize("command", [
        ["table1"], ["ordering"], ["acquisition"], ["burst"], ["deepdive"],
        ["latency"], ["samplesize", "--trials", "2"], ["tacharts"],
        ["monitor"], ["monitor", "--ticks", "5"], ["stats", "t.jsonl"],
        ["validate"], ["all"], ["perf", "record"],
    ], ids=lambda command: "-".join(command[:1] + command[1:2]))
    @pytest.mark.parametrize("placement", ["before", "after"])
    def test_faults_on_a_fault_free_command(self, command, placement,
                                            capsys):
        faults = ["--faults", "bursty", "--fault-seed", "3"]
        argv = (faults + command if placement == "before"
                else command + faults)
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert f"--faults does not apply to {command[0]}" \
            in capsys.readouterr().err

    @pytest.mark.parametrize("experiment", [
        "table1", "ordering", "acquisition", "burst", "deepdive",
        "latency", "samplesize", "tacharts", "monitor", "validate", "all",
    ])
    def test_faults_through_run(self, experiment, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["run", experiment, "--faults", "bursty"])
        assert exc.value.code == 2
        assert f"--faults does not apply to {experiment}" \
            in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["--fault-seed", "3", "table1"],
        ["table2", "--fault-seed", "3"],
        ["table3", "--fault-seed", "3"],
        ["batch-audit", "--fault-seed", "3"],
        ["explain", "RobDWaller", "--fault-seed", "3"],
        ["run", "table2", "--fault-seed", "3"],
    ], ids=lambda argv: "-".join(argv[:2]))
    def test_fault_seed_without_faults(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "--fault-seed needs --faults" in capsys.readouterr().err

    def test_serial_in_monitor_demo(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["monitor", "--serial"])
        assert exc.value.code == 2
        assert "monitor --serial only applies to the fleet run" \
            in capsys.readouterr().err

    @pytest.mark.parametrize("experiment", [
        "monitor", "table1", "samplesize", "validate",
    ])
    def test_serial_through_run(self, experiment, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["run", experiment, "--serial"])
        assert exc.value.code == 2
        assert f"--serial does not apply to {experiment}" \
            in capsys.readouterr().err

    def test_batch_audit_serial_with_compare_serial(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["batch-audit", "--serial", "--compare-serial"])
        assert exc.value.code == 2
        assert "drop --serial" in capsys.readouterr().err


class TestFaultAwareCommands:
    def test_fault_flags_still_reach_fault_aware_commands(self, capsys):
        assert main(["--faults", "bursty", "--fault-seed", "3", "explain",
                     "RobDWaller", "--engines", "statuspeople",
                     "--max-followers", "300"]) == 0
        assert "verdict provenance @RobDWaller" in capsys.readouterr().out


class TestModuleEntryPoint:
    def test_python_dash_m_repro_runs_the_cli(self):
        src = pathlib.Path(__file__).resolve().parents[2] / "src"
        env = dict(os.environ, PYTHONPATH=str(src))
        done = subprocess.run([sys.executable, "-m", "repro", "table1"],
                              env=env, capture_output=True, text=True,
                              check=False)
        assert done.returncode == 0, done.stderr
        assert "Table I" in done.stdout
