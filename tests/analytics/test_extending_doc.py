"""The engine example of docs/extending.md runs as documented.

The guide's code block is the advertised way to add an engine, so it
is executed verbatim here and audited against a small world, with
the lazy world's rows and rows packed from its user objects, and
through the batch scheduler's step protocol.
"""

import pathlib
import re

import pytest

from repro.audit import AuditRequest, drain_steps
from repro.core import PAPER_EPOCH, SimClock

from ..conftest import object_lookups

GUIDE = pathlib.Path(__file__).resolve().parents[2] / "docs" / "extending.md"


def engine_example() -> str:
    """The first python block of the guide's engine section."""
    text = GUIDE.read_text(encoding="utf-8")
    section = text.split("## Adding a detection engine", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)


@pytest.fixture(scope="module")
def inspector_class():
    namespace = {}
    exec(compile(engine_example(), str(GUIDE), "exec"), namespace)
    return namespace["FollowerInspector"]


def test_example_audits_a_small_world(inspector_class, small_world):
    engine = inspector_class(small_world, SimClock(PAPER_EPOCH))
    report = engine.audit(AuditRequest(target="smalltown"))
    assert report.tool == "followerinspector"
    assert report.sample_size == 1500
    assert report.completeness == 1.0
    assert report.fake_pct + report.genuine_pct + report.inactive_pct \
        == pytest.approx(100.0)
    assert 0.0 < report.inactive_pct < 100.0
    # A repeat is answered from the result cache, like every engine.
    assert engine.audit(AuditRequest(target="smalltown")).cached


def test_example_is_substrate_and_step_invariant(inspector_class,
                                                 small_world):
    request = AuditRequest(target="smalltown")
    expected = inspector_class(small_world, SimClock(PAPER_EPOCH)).audit(
        request)
    on_objects = inspector_class(
        object_lookups(small_world), SimClock(PAPER_EPOCH)).audit(request)
    stepped = drain_steps(inspector_class(
        small_world, SimClock(PAPER_EPOCH)).begin_audit(request))
    assert on_objects == expected
    assert stepped == expected
