"""Shared fixtures for the benchmark suite.

Every bench regenerates one of the paper's tables/figures (or one of
the DESIGN.md ablations), asserts the paper's *shape* claims on the
measured rows, and writes the rendered table to
``benchmarks/results/<name>.txt`` so the regenerated artefacts survive
the run.
"""

from __future__ import annotations

import pathlib
import sys

import pytest

from repro.fc import default_detector

RESULTS_DIR = pathlib.Path(__file__).parent / "results"

# Benches that time a per-row reference import it from the test suite's
# oracles (``tests.fc``), however pytest was launched.
REPO_ROOT = str(pathlib.Path(__file__).resolve().parents[1])
if REPO_ROOT not in sys.path:
    sys.path.insert(0, REPO_ROOT)


@pytest.fixture(scope="session")
def detector():
    """The production FC detector, trained once per session."""
    return default_detector(seed=0)


@pytest.fixture(scope="session")
def save_result():
    """Persist a rendered experiment table under benchmarks/results/."""
    RESULTS_DIR.mkdir(exist_ok=True)

    def _save(name: str, text: str) -> None:
        (RESULTS_DIR / f"{name}.txt").write_text(text + "\n")

    return _save


@pytest.fixture
def once(benchmark):
    """Run a heavy experiment exactly once under the benchmark timer."""

    def _run(fn, *args, **kwargs):
        return benchmark.pedantic(fn, args=args, kwargs=kwargs,
                                  rounds=1, iterations=1)

    return _run
