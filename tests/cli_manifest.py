"""The CLI commands whose output a change compares with its parent's, each with its expected exit code.

    PYTHONPATH=src python tests/cli_manifest.py   # per command: exit code, sha256 of stdout and stderr, argv
    python tests/cli_manifest.py --compare TREE    # this tree's src against TREE's; exit 1 unless all are equal

Each command runs in-process through ``bellbidir.cli.main`` with the terminal 80 columns wide, since argparse wraps
its usage and help text to the terminal.  No digest is committed: full-precision output depends on numpy and BLAS.
``tests/test_cli_manifest.py`` runs every command with its exit code and checks that the list covers every
subcommand and every choice of the parser.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import os
import subprocess
import sys
from pathlib import Path

SIMULATE_POINTS = {
    "independent": (["--theta1", "1.1", "--theta2", "0.7"], ["--p1", "0.25", "--p2", "1"]),
    "common": (["--theta", "0.4"], ["--p", "0.5"]),
    "mixed": (["--t", "0.3"], ["--p1", "0.9", "--p2", "0.2", "--p", "0.6", "--t", "0.6666666666666666"]),
}

COMMANDS: tuple[tuple[list[str], int], ...] = (
    (["verify"], 0),
    (["verify", "--grid", "3", "--points", "5"], 0),
    (["verify", "--grid", "17", "--points", "11"], 0),
    *((["sweep", "--figure", figure, *options], 0) for figure in ("3a", "3b", "3c", "4") for options in (
        [], ["--format", "csv"], ["--format", "json"], ["--points", "7"], ["--points", "2", "--format", "json"],
    )),
    *((["simulate", "--scheme", scheme, *point, "--direction", direction], 0)
      for scheme, points in SIMULATE_POINTS.items() for point in points for direction in ("ab", "ba")),
    (["simulate", "--scheme", "common"], 0),
    (["--help"], 0),
    (["simulate", "--help"], 0),
    (["verify", "--help"], 0),
    (["sweep", "--help"], 0),
    ([], 2),
    (["nonsense"], 2),
    (["sweep"], 2),
    (["sweep", "--figure", "5"], 2),
    (["sweep", "--figure", "3c", "--points", "1"], 2),
    (["sweep", "--figure", "4", "--format", "xml"], 2),
    (["simulate", "--scheme", "mixed"], 2),
    (["simulate", "--scheme", "independent", "--theta1", "1.0", "--p1", "0.5"], 2),
    (["simulate", "--scheme", "independent", "--t", "0.5"], 2),
    (["simulate", "--scheme", "common", "--theta", "nan"], 2),
    (["simulate", "--scheme", "common", "--p", "1.5"], 2),
    (["simulate", "--scheme", "common", "--direction", "aa"], 2),
    (["verify", "--grid", "1"], 2),
    (["verify", "--points", "0"], 2),
)


def run(argv: list[str]) -> tuple[int, str, str]:
    """Exit code, stdout and stderr of one in-process ``cli.main(argv)``."""
    from bellbidir.cli import main  # here, so that --compare runs without the package on the path

    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, stdout.getvalue(), stderr.getvalue()


def digests() -> list[str]:
    """One line per command: its exit code, the sha256 of its stdout and of its stderr, and its argv."""
    lines = []
    for argv, _ in COMMANDS:
        code, out, err = run(argv)
        sums = (hashlib.sha256(text.encode()).hexdigest() for text in (out, err))
        lines.append(" ".join([str(code), *sums, *argv]))
    return lines


def _digests_of(tree: Path) -> list[str]:
    """:func:`digests` of a source tree, from a fresh interpreter with only its ``src`` on the path."""
    env = {**os.environ, "PYTHONPATH": str(tree.resolve() / "src"), "COLUMNS": "80"}
    done = subprocess.run([sys.executable, __file__], env=env, capture_output=True, text=True, check=True)
    return done.stdout.splitlines()


if __name__ == "__main__":
    os.environ["COLUMNS"] = "80"
    if sys.argv[1:2] == ["--compare"] and len(sys.argv) == 3:
        here, there = _digests_of(Path(__file__).resolve().parents[1]), _digests_of(Path(sys.argv[2]))
        for mine, theirs in zip(here, there, strict=True):
            print("equal  " if mine == theirs else "DIFFERS", mine.split(" ", 3)[-1])
        print(f"{sum(map(str.__eq__, here, there))} of {len(here)} commands equal")
        sys.exit(0 if here == there else 1)
    if sys.argv[1:]:
        sys.exit(f"usage: python {sys.argv[0]} [--compare TREE]")
    print("\n".join(digests()))
