"""README's ``python`` code blocks run unchanged, and its table of each
command's options matches the parser.

The blocks run in order in one namespace, as a reader pasting them into
one session would run them; a block that raises fails the test.
"""

from __future__ import annotations

import contextlib
import io
import re
from pathlib import Path

from ladderwalk import cli

README = Path(__file__).resolve().parent.parent / "README.md"
_BLOCK = re.compile(r"^```python\n(.*?)^```$", re.DOTALL | re.MULTILINE)
# A row of the options table, ``| command | options |``, naming a flag.
_OPTION_ROW = re.compile(r"^\| *([a-z0-9]+) *\|(.*--.*)\|$", re.MULTILINE)


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


def test_readme_option_table_matches_the_parser():
    # The table lists --out and --format once, in the sentence above it.
    text = README.read_text(encoding="utf-8")
    rows = {command: set(re.findall(r"`(--[a-z-]+)`", options))
            for command, options in _OPTION_ROW.findall(text)}
    assert sorted(rows) == sorted(cli._COMMANDS)
    for command, flags in rows.items():
        expected = {"--" + name.replace("_", "-") for name in cli._option_names(command)}
        assert flags == expected - {"--out", "--format"}, command
