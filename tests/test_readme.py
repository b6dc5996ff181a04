"""The README's library quick start runs, and its experiment file loads, as written."""

from __future__ import annotations

import pathlib
import re

from sqglab.config import load_experiment, parse_config_text

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def _block(heading: str, language: str) -> str:
    """The first ``language`` block under ``heading``, at its README line numbers."""
    text = README.read_text(encoding="utf-8")
    section = text.index(heading)
    match = re.compile(rf"```{language}\n(.*?)```", re.DOTALL).search(text, section)
    assert match is not None, f"no {language} block under {heading!r}"
    return "\n" * text.count("\n", 0, match.start(1)) + match.group(1)


def test_quick_start_runs(capsys):
    code = _block("## Library quick start", "python")
    exec(compile(code, str(README), "exec"), {"__name__": "readme"})
    assert capsys.readouterr().out


def test_experiment_file_example_loads():
    # a config error cites the README's own line
    text = _block("### Experiment files", "ini")
    experiment = load_experiment(parse_config_text(text, source=str(README)))
    assert experiment.initial_field().domain.n == 128
