"""Every module path the documentation names must exist.

The docs name code as backticked dotted paths (```repro.fc.cost```,
```repro.analytics.base.ResultCache```).  Each is resolved the way a
reader would follow it: import the longest prefix that is a module,
then look the remaining names up as attributes.  A path left behind
by a rename or a deletion fails here instead of misleading a reader.
"""

import importlib
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DOCS = [ROOT / "README.md", ROOT / "DESIGN.md", ROOT / "EXPERIMENTS.md",
        *sorted((ROOT / "docs").glob("*.md"))]
PATH = re.compile(r"`(repro(?:\.[A-Za-z_]\w*)+)")


def documented_paths():
    """``(file:line, dotted path)`` for every backticked ``repro.`` path."""
    found = {}
    for doc in DOCS:
        for number, line in enumerate(doc.read_text().splitlines(), 1):
            for path in PATH.findall(line):
                found.setdefault(path, f"{doc.name}:{number}")
    return sorted((where, path) for path, where in found.items())


def resolve(path):
    """Import the longest module prefix of ``path``, then walk attributes."""
    parts = path.split(".")
    for cut in range(len(parts), 0, -1):
        try:
            target = importlib.import_module(".".join(parts[:cut]))
        except ModuleNotFoundError:
            continue
        for name in parts[cut:]:
            target = getattr(target, name)
        return target
    raise ModuleNotFoundError(path)


PATHS = documented_paths()


def test_the_docs_name_code():
    assert len(PATHS) > 50


@pytest.mark.parametrize("where,path", PATHS,
                         ids=[path for __, path in PATHS])
def test_documented_path_resolves(where, path):
    try:
        resolve(path)
    except (ImportError, AttributeError) as error:
        pytest.fail(f"{where} names {path}: {error}")
