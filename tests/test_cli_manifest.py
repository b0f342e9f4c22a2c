"""The committed lists: every command exits as listed and the commands cover the whole parser; every sampler call
gives states and the calls cover every kind of sampler input; ``--compare`` reports how far differing outputs moved."""
import argparse
import math
from pathlib import Path

import numpy as np
import pytest
import cli_manifest
from cli_manifest import COMMANDS, SAMPLES, run, sample

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


@pytest.mark.parametrize("call", SAMPLES, ids=[repr(call) for call in SAMPLES])
def test_every_listed_sampler_call_gives_one_state_per_trial(call):
    out = sample(call)
    assert out.shape == (call[5], 2, 2) and out.dtype == complex
    assert np.allclose(np.trace(out, axis1=1, axis2=2), 1.0, rtol=0.0, atol=1e-12)


def test_the_sampler_calls_cover_every_kind_of_input():
    schemes, directions, inputs, seeds, corners, trials = (set() for _ in range(6))
    for scheme, angles, t, direction, (_, phi), count, seed in SAMPLES:
        schemes.add(scheme)
        directions.add(direction)
        inputs.add("complex" if phi else "real")
        seeds.add(type(seed))
        used = {"independent": angles[:2], "common": angles[2:], "mixed": angles}[scheme]
        corners.update(scheme for angle in used if angle in (0.0, math.pi))
        trials.add(count)
    assert schemes == set(SCHEMES) and directions == set(DIRECTIONS) and inputs == {"real", "complex"}
    assert seeds == {int, tuple} and corners == set(SCHEMES) and {0, 1} <= trials
    assert any(call[2] in (0.0, 1.0) for call in SAMPLES)  # the mixed scheme at a t corner


def test_compare_prints_the_largest_difference_of_each_differing_sampler_output(monkeypatch, capsys):
    # two trees that differ only in the second sampler call's output, by 3e-16 in one entry
    def digests_of(tree, dump):
        dump.mkdir()
        lines = [f"0 out err {' '.join(argv)}" for argv, _ in COMMANDS]
        for i, call in enumerate(SAMPLES):
            out = np.zeros((2, 2, 2), dtype=complex)
            out[1, 0, 1] = 3e-16 if (i, dump.name) == (1, "there") else 0.0
            np.save(dump / f"{i}.npy", out)
            lines.append(f"sample {out.tobytes().hex()} 2x2x2 {call!r}")
        return lines

    monkeypatch.setattr(cli_manifest, "_digests_of", digests_of)
    assert cli_manifest.compare(Path("parent")) == 1
    lines = capsys.readouterr().out.splitlines()
    differing = [line for line in lines if line.startswith("DIFFERS")]
    assert differing == [f"DIFFERS {SAMPLES[1]!r}  max |difference| 3e-16"]
    counts = f"({len(COMMANDS)} commands, {len(SAMPLES)} sampler calls)"
    assert lines[-1] == f"{len(lines) - 2} of {len(lines) - 1} lines equal {counts}"
