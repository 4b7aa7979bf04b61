"""Every ``casualstable`` command shown in the README's sh blocks runs
in-process through ``cli.main`` and exits 0."""

import re
import shlex
from pathlib import Path

import pytest

from casualstable import cli

README = Path(__file__).resolve().parent.parent / "README.md"


def readme_commands() -> list[str]:
    blocks = re.findall(r"```sh\n(.*?)```", README.read_text(), flags=re.S)
    return [line for block in blocks for line in block.splitlines() if line.startswith("casualstable ")]


def run_line(line: str) -> int:
    """Exit code of one documented command line; argparse errors exit through SystemExit."""
    try:
        return cli.main(shlex.split(line)[1:])
    except SystemExit as stop:
        return stop.code


def test_readme_shows_every_subcommand():
    assert {line.split()[1] for line in readme_commands()} == {"check-stability", "check-pgf", "citations", "converge"}


@pytest.mark.parametrize("line", readme_commands())
def test_readme_command_exits_zero(line, capsys):
    assert run_line(line) == 0
    capsys.readouterr()


def test_runner_sees_an_unknown_flag(capsys):
    # negative control: the same runner reports argparse's usage error
    assert run_line("casualstable converge --no-such-flag 1") == 2
    capsys.readouterr()
