"""README's Python snippets run as documented.

The blocks are executed in order in one namespace (later blocks reuse
the earlier imports).  The Obama-scale follower count is scaled down so
the suite stays fast; the code path is the same.
"""

import pathlib
import re

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def python_blocks():
    """The README's ```python blocks, in document order."""
    text = README.read_text(encoding="utf-8")
    return re.findall(r"```python\n(.*?)```", text, re.DOTALL)


def test_readme_python_blocks_run(capsys):
    blocks = python_blocks()
    assert len(blocks) >= 2
    namespace = {}
    for index, block in enumerate(blocks):
        code = block.replace("10_000_000", "100_000")
        exec(compile(code, f"{README}:block{index}", "exec"), namespace)
    assert namespace["report"].sample_size == 9604
    assert "9604" in capsys.readouterr().out
