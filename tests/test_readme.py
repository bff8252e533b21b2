"""Every documented ``qruler`` command in README.md runs and exits 0.

The acceptance suite is left out here; tests/test_acceptance.py runs it.
"""

import os
import re
import shlex

import pytest

from qruler import cli

README = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")


def _readme_commands() -> list[str]:
    with open(README, "r", encoding="utf-8") as fh:
        text = fh.read()
    blocks = re.findall(r"```sh\n(.*?)```", text, flags=re.S)
    lines = [ln.strip() for block in blocks for ln in block.splitlines()]
    return [ln for ln in lines if ln.startswith("qruler ") and ln.split()[1] != "acceptance"]


COMMANDS = _readme_commands()


def test_readme_lists_the_examples():
    assert len(COMMANDS) >= 7


@pytest.mark.parametrize("line", COMMANDS)
def test_readme_command(line, tmp_path):
    argv = shlex.split(line, comments=True)[1:]
    assert cli.main(argv + ["--out", str(tmp_path / "out")]) == 0
