"""Smoke runs of the examples the README advertises.

Each example runs as a script, the way a reader would start it, and
its key lines are checked: the growth monitor's alert, and the audits
around the purchase.
"""

import os
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]


def run_example(name):
    """Stdout of ``python examples/<name>``, which must exit cleanly."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, str(ROOT / "examples" / name)], env=env,
        capture_output=True, text=True, timeout=300, check=True)
    return result.stdout


def test_growth_monitoring_alerts_on_the_challenger_only():
    out = run_example("growth_monitoring.py")
    incumbent, challenger = out.split("=== @challenger")
    assert "no anomaly" in incumbent
    assert "ALERT: burst on" not in incumbent
    assert "ALERT: burst on 2014-02-26" in challenger


def test_live_attack_simulation_alerts_and_audits_around_the_purchase():
    out = run_example("live_attack_simulation.py")
    assert "growth monitor over days 10-24: ALERT" in out
    assert "burst on 2014-03-11: 8200 arrivals" in out
    before = out.index("--- audit BEFORE the purchase (4000 followers")
    after = out.index("--- audit AFTER the purchase (day 25)")
    assert before < after
    assert out.count("  StatusPeople: ") == out.count("  Fake Project: ") == 2
    assert "of the 8000 purchased followers already unfollowed" in out
