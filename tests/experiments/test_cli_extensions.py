"""Unit tests for the tacharts and monitor CLI subcommands, and the
``python -m repro`` entry point."""

import os
import pathlib
import subprocess
import sys

import pytest

from repro.cli import main


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
        ["--columnar"],
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


class TestModuleEntryPoint:
    def test_python_dash_m_repro_runs_the_cli(self):
        src = pathlib.Path(__file__).resolve().parents[2] / "src"
        env = dict(os.environ, PYTHONPATH=str(src))
        done = subprocess.run([sys.executable, "-m", "repro", "table1"],
                              env=env, capture_output=True, text=True,
                              check=False)
        assert done.returncode == 0, done.stderr
        assert "Table I" in done.stdout
