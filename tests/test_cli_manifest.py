"""The committed CLI command list: every command exits as listed, and the list covers the whole parser."""
import argparse

import pytest
from cli_manifest import COMMANDS, run

from bellbidir.channels import SCHEMES
from bellbidir.cli import build_parser
from bellbidir.protocols import DIRECTIONS


def subcommands(parser):
    (action,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    return action.choices


@pytest.mark.parametrize(("argv", "code"), COMMANDS, ids=[" ".join(argv) or "(none)" for argv, _ in COMMANDS])
def test_every_listed_command_exits_as_listed(monkeypatch, argv, code):
    monkeypatch.setenv("COLUMNS", "80")
    got, out, err = run(argv)
    assert got == code, err
    if code == 0:
        assert out and not err
    else:
        assert not out and err.startswith("usage: bellbidir")


def test_the_list_covers_every_subcommand_and_every_choice():
    succeeded = [argv for argv, code in COMMANDS if code == 0]
    choices = {}
    for name, parser in subcommands(build_parser()).items():
        runs = [argv[1:] for argv in succeeded if argv[:1] == [name] and "--help" not in argv]
        assert runs, f"no successful {name!r} command is listed"
        for action in parser._actions:
            for choice in action.choices or ():
                pairs = {(argv[i], argv[i + 1]) for argv in runs for i in range(len(argv) - 1)}
                assert any((flag, choice) in pairs for flag in action.option_strings), (name, action.dest, choice)
            choices[action.dest] = choices.get(action.dest, set()) | set(action.choices or ())
    assert choices["scheme"] == set(SCHEMES) and choices["direction"] == set(DIRECTIONS)
    assert choices["figure"] == {"3a", "3b", "3c", "4"} and choices["format"] == {"csv", "json"}
