"""Every ``repro`` command the docs show parses and passes the flag checks.

The commands are read from the fenced blocks of ``README.md``,
``docs/*.md`` and ``EXPERIMENTS.md`` (backslash continuations joined,
``# comments`` dropped) and run through the CLI's parser and
``_check_flags`` only — nothing is dispatched, so the check is fast
and a documented option that the CLI no longer accepts fails here.
"""

import pathlib
import shlex

import pytest

from repro import cli

ROOT = pathlib.Path(__file__).resolve().parents[1]
DOCUMENTS = [ROOT / "README.md", *sorted((ROOT / "docs").glob("*.md")),
             ROOT / "EXPERIMENTS.md"]


def documented_commands():
    """``(file:line, argv)`` of every ``repro`` line in a fenced block."""
    commands = []
    for path in DOCUMENTS:
        fenced, command, start = False, "", 0
        lines = path.read_text(encoding="utf-8").splitlines()
        for number, line in enumerate(lines, 1):
            if line.lstrip().startswith("```"):
                fenced = not fenced
                continue
            if not fenced:
                continue
            if not command:
                start = number
            command += line
            if command.endswith("\\"):
                command = command[:-1]
                continue
            if command.split(None, 1)[:1] == ["repro"]:
                commands.append((f"{path.name}:{start}",
                                 shlex.split(command, comments=True)[1:]))
            command = ""
    return commands


COMMANDS = documented_commands()


def test_the_docs_show_commands():
    assert len(COMMANDS) >= 20


@pytest.mark.parametrize("argv", [argv for __, argv in COMMANDS],
                         ids=[where for where, __ in COMMANDS])
def test_documented_command_parses(argv, capsys):
    parser = cli._build_parser()
    try:
        cli._check_flags(parser, parser.parse_args(argv))
    except SystemExit:
        pytest.fail(f"repro {' '.join(argv)}: "
                    f"{capsys.readouterr().err.strip()}")
