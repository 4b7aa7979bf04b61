"""Every ``casualstable`` command shown in the README's sh blocks runs
in-process through ``cli.main`` and exits 0, and every ``--flag`` the
README names is an option of the parser."""

import re
import shlex
from pathlib import Path

import pytest

from casualstable import cli

README = Path(__file__).resolve().parent.parent / "README.md"
FLAG = re.compile(r"--[a-z][a-z-]*")


def readme_commands(text: str | None = None) -> list[str]:
    text = README.read_text() if text is None else text
    blocks = re.findall(r"```sh\n(.*?)```", text, flags=re.S)
    return [line for block in blocks for line in block.splitlines() if line.startswith("casualstable ")]


def unknown_flags(text: str) -> list[str]:
    """Flags named on a ``casualstable`` line that its subcommand lacks, or
    in backticked prose that no parser knows, in order of appearance."""
    parser = cli.build_parser()
    options = {command: set(sub._option_string_actions) for command, sub in parser.subcommand_parsers.items()}
    every = set(parser._option_string_actions).union(*options.values())
    unknown = []
    for line in readme_commands(text):
        known = options.get(line.split()[1], set()) | set(parser._option_string_actions)
        unknown += [flag for flag in FLAG.findall(line) if flag not in known]
    prose = re.sub(r"```.*?```", "", text, flags=re.S)
    for span in re.findall(r"`([^`]+)`", prose):
        unknown += [flag for flag in FLAG.findall(span) if flag not in every]
    return unknown


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


def test_readme_names_only_parser_flags():
    assert unknown_flags(README.read_text()) == []


def test_flag_check_reports_an_unknown_flag():
    # negative control: a flag of another subcommand on a command line,
    # and a flag no parser knows in prose
    text = "```sh\ncasualstable converge --tol 1 --n 2\n```\nUse `--no-such-flag` here.\n"
    assert unknown_flags(text) == ["--tol", "--no-such-flag"]
