"""The README's library quick start runs as written."""

from __future__ import annotations

import pathlib
import re

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def _quick_start() -> str:
    """The first python block under "Library quick start", at its README line numbers."""
    text = README.read_text(encoding="utf-8")
    section = text.index("## Library quick start")
    match = re.compile(r"```python\n(.*?)```", re.DOTALL).search(text, section)
    assert match is not None, "no python block under 'Library quick start'"
    return "\n" * text.count("\n", 0, match.start(1)) + match.group(1)


def test_quick_start_runs(capsys):
    exec(compile(_quick_start(), str(README), "exec"), {"__name__": "readme"})
    assert capsys.readouterr().out
