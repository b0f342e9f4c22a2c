"""The CLI commands and seeded sampler calls whose output a change compares with its parent's.

    PYTHONPATH=src python tests/cli_manifest.py   # one line per command, then one per sampler call
    python tests/cli_manifest.py --compare TREE    # this tree's src against TREE's; exit 1 unless all are equal

A command's line holds its exit code, the sha256 of its stdout and stderr, and its argv; each command runs
in-process through ``bellbidir.cli.main`` with the terminal 80 columns wide, since argparse wraps its usage and
help text to the terminal.  A sampler call's line holds the sha256 of its output's ``uint64`` view, the output's
shape and the call.  No digest is committed: full-precision output depends on numpy and BLAS.
``tests/test_cli_manifest.py`` runs every command with its exit code and every sampler call, and checks that the
commands cover every subcommand and every choice of the parser, and the calls every kind of sampler input.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import math
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

# Sampler calls: (scheme, (theta1, theta2, theta), t of the mixed scheme, direction, input (theta, phi), trials, seed);
# an input with phi = 0 is real, and a seed ("generator", s) is passed as np.random.default_rng(s)
SAMPLES: tuple[tuple, ...] = (
    ("independent", (1.1, 0.7, 0.4), None, "ab", (1.1, 0.0), 200, 5),
    ("independent", (-3.3, 5.9, 2.2), None, "ba", (2.3, 0.4), 200, ("generator", 6)),
    ("common", (1.1, 0.7, 0.4), None, "ba", (0.6, -1.2), 200, 7),
    ("common", (6.1, -0.8, -4.4), None, "ab", (2.9, 0.0), 200, ("generator", 8)),
    ("mixed", (1.1, 0.7, 0.4), 0.3, "ab", (1.1, 0.4), 200, 9),
    ("mixed", (-3.3, 5.9, 2.2), 0.8, "ba", (0.9, 0.0), 200, ("generator", 10)),
    ("independent", (0.0, math.pi, 0.4), None, "ab", (1.3, 0.4), 64, 11),
    ("independent", (math.pi, math.pi, 0.4), None, "ba", (1.3, 0.0), 64, 12),
    ("common", (1.1, 0.7, 0.0), None, "ab", (1.3, 0.4), 64, ("generator", 13)),
    ("common", (1.1, 0.7, math.pi), None, "ba", (1.3, 0.0), 64, 14),
    ("mixed", (math.pi, 0.0, 0.0), 1.0, "ab", (0.7, 0.4), 64, 15),
    ("mixed", (1.1, 0.7, 0.4), 0.0, "ba", (1.3, 0.0), 64, 16),
    ("independent", (1.1, 0.7, 0.4), None, "ab", (1.1, 0.4), 0, 17),
    ("mixed", (1.1, 0.7, 0.4), 0.5, "ba", (1.1, 0.0), 0, ("generator", 18)),
    ("common", (1.1, 0.7, 0.4), None, "ab", (1.1, 0.4), 1, ("generator", 19)),
    ("mixed", (1.1, 0.7, 0.4), 0.5, "ba", (1.1, 0.0), 1, 20),
    ("independent", (1.1, 0.7, 0.4), None, "ab", (1.1, 0.4), 4096, 21),
    ("mixed", (1.1, 0.7, 0.4), 0.5, "ba", (1.1, 0.0), 4096, ("generator", 22)),
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


def sample(call: tuple):
    """The ``(trials, 2, 2)`` output of one :data:`SAMPLES` call."""
    import numpy as np
    from bellbidir.protocols import SchemeParams, build_scheme_common, build_scheme_independent, channel_endpoints
    from bellbidir.protocols import sample_mixed_trajectories, sample_trajectories
    from bellbidir.sim import bloch_state

    scheme, angles, t, direction, (theta, phi), trials, seed = call
    params, endpoints, psi = SchemeParams(*angles), channel_endpoints(direction), bloch_state(theta, phi)
    seed = np.random.default_rng(seed[1]) if isinstance(seed, tuple) else seed
    if scheme == "mixed":
        circuits = build_scheme_independent(params), build_scheme_common(params)
        return sample_mixed_trajectories(*circuits, t, *endpoints, psi, trials, seed)
    build = build_scheme_independent if scheme == "independent" else build_scheme_common
    return sample_trajectories(build(params), *endpoints, psi, trials, seed)


def digests() -> list[str]:
    """One line per command: its exit code, the sha256 of its stdout and of its stderr, and its argv; then one per
    sampler call: ``sample``, the sha256 of its output's ``uint64`` view, the output's shape, and the call."""
    lines = []
    for argv, _ in COMMANDS:
        code, out, err = run(argv)
        sums = (hashlib.sha256(text.encode()).hexdigest() for text in (out, err))
        lines.append(" ".join([str(code), *sums, *argv]))
    for call in SAMPLES:
        out = sample(call)
        digest = hashlib.sha256(out.view("u8").tobytes()).hexdigest()
        lines.append(" ".join(["sample", digest, "x".join(map(str, out.shape)), repr(call)]))
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
        counts = f"{len(COMMANDS)} commands, {len(SAMPLES)} sampler calls"
        print(f"{sum(map(str.__eq__, here, there))} of {len(here)} lines equal ({counts})")
        sys.exit(0 if here == there else 1)
    if sys.argv[1:]:
        sys.exit(f"usage: python {sys.argv[0]} [--compare TREE]")
    print("\n".join(digests()))
