"""README's ``python`` code blocks run unchanged.

The blocks run in order in one namespace, as a reader pasting them into
one session would run them; a block that raises fails the test.
"""

from __future__ import annotations

import contextlib
import io
import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"
_BLOCK = re.compile(r"^```python\n(.*?)^```$", re.DOTALL | re.MULTILINE)


def python_blocks() -> list[tuple[int, str]]:
    """(first line number, source) of each ``python`` block of README."""
    text = README.read_text(encoding="utf-8")
    return [(text.count("\n", 0, m.start(1)) + 1, m.group(1))
            for m in _BLOCK.finditer(text)]


def test_readme_python_blocks_run():
    blocks = python_blocks()
    assert len(blocks) >= 4
    namespace = {"__name__": "readme"}
    for line, source in blocks:
        # padded so that a traceback names the README line
        code = compile("\n" * (line - 1) + source, str(README), "exec")
        with contextlib.redirect_stdout(io.StringIO()):
            exec(code, namespace)
