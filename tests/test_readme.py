"""The README as a user reads it: its command examples run, and it names
no private identifier (internals are described in the modules)."""

import re
import shlex
from pathlib import Path

import pytest

from cubicham.cli import main

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()
FENCE = re.compile(r"^```[^\n]*\n(.*?)^```", re.M | re.S)
EXAMPLES = [
    line for block in FENCE.findall(README) for line in block.splitlines() if line.startswith("cubicham ")
]


def test_readme_has_command_examples():
    assert len(EXAMPLES) >= 10


@pytest.mark.parametrize("line", EXAMPLES)
def test_readme_command_example_exits_0(tmp_path, monkeypatch, capsys, line):
    monkeypatch.chdir(tmp_path)
    code = main(shlex.split(line)[1:])
    assert code == 0, capsys.readouterr().err


def test_readme_names_no_private_identifier():
    spans = FENCE.findall(README) + re.findall(r"`([^`\n]+)`", FENCE.sub("", README))
    names = {name for span in spans for name in re.findall(r"[A-Za-z_][\w.]*", span)}
    assert sorted(name for name in names if re.search(r"(?:^|\.)_", name)) == []
