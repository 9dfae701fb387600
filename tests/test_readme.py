"""Every ``treecap`` line of the README's "Command line" block runs and exits 0."""

import re
import shlex
from pathlib import Path

import pytest

from treecap.cli import main

README = Path(__file__).resolve().parent.parent / "README.md"


def readme_commands() -> list[str]:
    section = README.read_text().split("## Command line", 1)[1]
    block = re.search(r"```bash\n(.*?)```", section, re.DOTALL).group(1)
    return [line for line in block.splitlines() if line.startswith("treecap ")]


def test_block_found():
    assert len(readme_commands()) >= 10


@pytest.mark.parametrize("line", readme_commands())
def test_readme_command(line, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)  # --field-out and --out write here
    assert main(shlex.split(line, comments=True)[1:]) == 0, capsys.readouterr().err
