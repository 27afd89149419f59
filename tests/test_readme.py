"""README.md's examples run as written.

Each ```python block is executed, and each ``netgame ...`` line of the
```sh blocks (with ``\\`` continuations joined) runs through
``netgame.cli.main`` and must exit 0, in a fresh working directory.
"""
from __future__ import annotations

import re
import shlex
from pathlib import Path

import pytest

from netgame.cli import main

README = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
BLOCKS = re.findall(r"^```(\w*)\n(.*?)^```", README, flags=re.DOTALL | re.MULTILINE)
PYTHON_BLOCKS = [code for lang, code in BLOCKS if lang == "python"]
COMMANDS = [
    " ".join(line.split())
    for lang, code in BLOCKS
    if lang == "sh"
    for line in code.replace("\\\n", " ").splitlines()
    if line.strip().startswith("netgame ")
]


def test_readme_has_examples():
    assert len(PYTHON_BLOCKS) >= 2 and len(COMMANDS) >= 6


@pytest.mark.parametrize("code", PYTHON_BLOCKS, ids=[f"block{i + 1}" for i in range(len(PYTHON_BLOCKS))])
def test_python_block_runs(code, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    exec(compile(code, "README.md", "exec"), {})


@pytest.mark.parametrize("command", COMMANDS)
def test_command_exits_zero(command, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert main(shlex.split(command)[1:]) == 0, capsys.readouterr().err
