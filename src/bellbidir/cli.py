"""Command-line front end: point reports, verification grids, figure sweeps.

Subcommands:

* ``simulate`` -- build the requested scheme, derive the channel by
  simulation, and write a JSON report of the channel state, fidelity, and
  all information measures.
* ``verify`` -- compare simulated channel states against the closed forms
  over parameter grids and check the information measures of simulated
  states against theirs; exit code 0 only if every check passes.
* ``sweep`` -- emit figure-reproduction data as CSV (or JSON).

Exit codes: 0 success, 1 verification failure, 2 usage error, 3 I/O error.
"""
from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import asdict, astuple, dataclass

import numpy as np

from . import __version__, errors
from .channels import SCHEMES, analytic_channel, choi_of_channel, fidelity_closed, mixing_weight, weight_from_choi
from .errors import OutOfRange, is_integer
from .infotheory import (
    aux_info_closed,
    classical_capacity_closed,
    concurrence_closed,
    info_report_from_choi,
    shannon_mutual_information,
    total_info_closed,
    trigger_joint_distribution,
)
from .linalg import trace_distance
from .protocols import (  # the channel_grid benchmark reads MARGINAL_TOL here
    A_TO_B,
    DIRECTIONS,
    MARGINAL_TOL,
    SchemeParams,
    build_scheme_common,
    build_scheme_independent,
    channel_endpoints,
    choi_mixed,
    extract_choi,
    firing_angle,
)

CHOI_TOL = 1e-10
AUX_TOL = 1e-12
TOTAL_TOL = 1e-10
CAPACITY_TOL = 1e-12
CONCURRENCE_TOL = 1e-9
_STACK_POINTS = 81  # points per stacked circuit of channel_deviation: the default 9x9 verify grid in one run


def simulated_choi(scheme: str, params: SchemeParams, direction: str) -> np.ndarray:
    """Channel state of a scheme by circuit simulation, the CLI's only route to one; a grid gives a stack of them.

    The independent- and common-trigger schemes each run one stacked circuit; the mixed one mixes their states by t.
    """
    builders = {"independent": build_scheme_independent, "common": build_scheme_common}
    if scheme == "mixed":
        return choi_mixed(params.t, *(simulated_choi(name, params, direction) for name in ("independent", "common")))
    if scheme not in builders:
        raise ValueError(f"scheme must be one of {SCHEMES}, got {scheme!r}")
    return extract_choi(builders[scheme](params), *channel_endpoints(direction))


def _symmetric_point_states(ts: list[float] | np.ndarray) -> np.ndarray:
    """The mixed scheme's simulated A-to-B channel states at p1 = p2 = p = 1/2, one per t, from two extractions."""
    return simulated_choi("mixed", SchemeParams(t=ts), A_TO_B)


def _fig3_columns(scheme: str, grid: np.ndarray) -> list[np.ndarray]:
    """Grid and fidelity columns of fig 3a (independent triggers, over p1 and p2) or 3b (a common trigger, over p).

    No gate targets a trigger qubit, so a channel state mixes its corner states, each trigger angle at 0 or pi,
    with the trigger basis probabilities [1 - p, p]; the corners are simulated in one stacked run per direction.
    """
    ends = np.array([0.0, math.pi])  # (theta1, theta2) over the 2x2 corners, theta over the two ends
    corners = SchemeParams(theta1=ends[:, None], theta2=ends, theta=ends)
    weights = [weight_from_choi(simulated_choi(scheme, corners, direction)) for direction in DIRECTIONS]
    fire = np.array([1.0 - grid, grid])
    if scheme == "common":
        return [grid, *(fidelity_closed(q @ fire) for q in weights)]
    return [*np.meshgrid(grid, grid, indexing="ij"), *(fidelity_closed(fire.T @ q @ fire) for q in weights)]


def channel_deviation(scheme: str, grid: SchemeParams) -> list[float]:
    """Worst trace distance between simulated and closed-form channel states of a scheme, per direction.

    Returns ``[A to B, B to A]``, each the maximum over the points of ``grid``.  Trace preservation needs no check
    here: ``extract_choi`` raises ``BadChannelState`` on a reference marginal off I/2 by more than MARGINAL_TOL.  The
    flattened grid, t with the angles, runs through :func:`simulated_choi` in blocks of at most _STACK_POINTS points,
    so memory is bounded by one such block; the closed forms take every point at once.
    """
    fields = np.broadcast_arrays(grid.theta1, grid.theta2, grid.theta, grid.t)
    if not fields[0].size:
        raise OutOfRange(f"channel_deviation needs at least one parameter point, got a grid of shape {fields[0].shape}")
    flat = [np.ravel(field) for field in fields]
    blocks = [SchemeParams(*(f[i : i + _STACK_POINTS] for f in flat)) for i in range(0, flat[0].size, _STACK_POINTS)]
    worst = []
    for direction in DIRECTIONS:
        simulated = np.concatenate([simulated_choi(scheme, block, direction) for block in blocks])
        reference = choi_of_channel(analytic_channel(scheme, grid, direction)).reshape(-1, 4, 4)
        worst.append(float(np.max(trace_distance(simulated, reference))))
    return worst


def _t_grid(points: int) -> np.ndarray:
    """``points`` evenly spaced t in [0, 1], for an integer ``points`` of at least 2."""
    if not is_integer(points) or points < 2:
        raise OutOfRange(f"points must be an integer of at least 2, got {points!r}")
    return np.linspace(0.0, 1.0, points)


def trigger_info_deviation(points: int = 101) -> list[float]:
    """Worst deviation of the trigger mutual information from ``aux_info_closed`` over t.

    The information is that of ``trigger_joint_distribution(t)``, the table that ``analytic_channel`` reads: no
    simulated state enters it, so its line checks the oracle's own table, and no extraction error can fail it.
    """
    ts = _t_grid(points)
    info = shannon_mutual_information(trigger_joint_distribution(ts))
    return [float(np.max(np.abs(aux_info_closed(ts) - info)))]


def infotheory_deviations(points: int = 101) -> list[float]:
    """Worst deviation of the fig-4 report's i_tot, i_class and concurrence from their closed forms over t."""
    ts = _t_grid(points)
    report = info_report_from_choi(_symmetric_point_states(ts), ts)
    closed_forms = (total_info_closed, classical_capacity_closed, concurrence_closed)
    measured = (report.i_tot, report.i_class, report.concurrence)
    return [float(np.max(np.abs(closed(ts) - values))) for closed, values in zip(closed_forms, measured)]


@dataclass(frozen=True)
class CheckResult:
    name: str
    deviation: float | None  # None when computing the check raised; ``error`` then holds the message
    tolerance: float
    error: str | None = None

    @property
    def passed(self) -> bool:
        return self.error is None and self.deviation <= self.tolerance


# every exception class of errors.py: raised while a check is computed, it fails the lines that computation feeds
_CHECK_ERRORS = tuple(v for v in vars(errors).values() if isinstance(v, type) and issubclass(v, Exception))


def run_verification(grid: int = 9, points: int = 101) -> list[CheckResult]:
    """All verification checks at the given grid sizes (each at least 2); a raised check fails with its error.

    Each scheme has one channel line per direction.  Every extraction checks trace preservation, so a marginal
    defect has no line of its own: it fails the lines its extraction feeds with ``BadChannelState``.
    """
    if not (is_integer(grid) and is_integer(points)) or grid < 2 or points < 2:
        raise OutOfRange(f"grid and points must be integers of at least 2, got grid={grid!r}, points={points!r}")
    thetas = np.linspace(0.0, math.pi, grid)
    ind_grid = SchemeParams(theta1=thetas[:, None], theta2=thetas)
    com_row = SchemeParams(theta=np.linspace(0.0, math.pi, max(17, grid)))
    directions = [" to ".join(direction.upper()) for direction in DIRECTIONS]  # "ab" -> "A to B"
    checks = [  # one computation, and the name and tolerance of each line it feeds
        (lambda: channel_deviation("independent", ind_grid), [
            (f"independent choi vs closed form ({grid}x{grid}, {direction})", CHOI_TOL) for direction in directions
        ]),
        (lambda: channel_deviation("common", com_row), [
            (f"common choi vs closed form ({max(17, grid)} angles, {direction})", CHOI_TOL) for direction in directions
        ]),
        (lambda: trigger_info_deviation(points), [(f"trigger info closed form vs table ({points} t)", AUX_TOL)]),
        (lambda: infotheory_deviations(points), [
            (f"total info closed form vs channel state ({points} t)", TOTAL_TOL),
            (f"classical capacity closed form vs optimizer ({points} t)", CAPACITY_TOL),
            (f"concurrence closed form vs spectrum ({points} t)", CONCURRENCE_TOL),
        ]),
    ]
    results = []
    for compute, lines in checks:
        try:
            results += [CheckResult(name, dev, tol) for (name, tol), dev in zip(lines, compute(), strict=True)]
        except _CHECK_ERRORS as exc:
            results += [CheckResult(name, None, tol, f"{type(exc).__name__}: {exc}") for name, tol in lines]
    return results


def _emit(text: str, out_path: str | None) -> int:
    if out_path is None:
        sys.stdout.write(text)
        return 0
    try:
        with open(out_path, "w", encoding="utf-8", newline="") as handle:
            handle.write(text)
    except OSError as exc:
        print(f"error: cannot write {out_path}: {exc}", file=sys.stderr)
        return 3
    return 0


# scheme -> the simulate parameter flags it reads; any other one is a usage error
_SCHEME_FLAGS = {"independent": ("theta1", "theta2", "p1", "p2"), "common": ("theta", "p")}
_SCHEME_FLAGS["mixed"] = (*_SCHEME_FLAGS["independent"], *_SCHEME_FLAGS["common"], "t")


def _resolve_params(args) -> SchemeParams:
    for name in _SCHEME_FLAGS["mixed"]:
        if getattr(args, name) is not None and name not in _SCHEME_FLAGS[args.scheme]:
            _PARSER.error(f"--{name} does not apply to the {args.scheme} scheme")
    if args.scheme == "mixed" and args.t is None:
        _PARSER.error("--t is required for the mixed scheme")
    given = {} if args.t is None else {"t": args.t}  # a value that no flag gives keeps SchemeParams' default
    for angle, prob in (("theta1", "p1"), ("theta2", "p2"), ("theta", "p")):
        theta, value = getattr(args, angle), getattr(args, prob)
        if theta is not None and value is not None:
            _PARSER.error(f"--{angle} and --{prob} are mutually exclusive")
        if theta is not None or value is not None:
            given[angle] = theta if value is None else firing_angle(f"--{prob}", value)
    return SchemeParams(**given)


def _cmd_simulate(args) -> int:
    params = _resolve_params(args)
    choi = simulated_choi(args.scheme, params, args.direction)
    q = weight_from_choi(choi)
    report = {
        "scheme": args.scheme,
        "params": {**{name: getattr(params, name) for name in _SCHEME_FLAGS[args.scheme]}, "direction": args.direction},
        "choi": {
            "re": np.real(choi).tolist(),
            "im": np.imag(choi).tolist(),
        },
        "q": q,
        "fidelity": fidelity_closed(q),
        "info": asdict(info_report_from_choi(choi, mixing_weight(args.scheme, params), params.p1, params.p2, params.p)),
        "tool_version": __version__,
    }
    return _emit(json.dumps(report, indent=2) + "\n", args.out)


def _cmd_verify(args) -> int:
    results = run_verification(grid=args.grid, points=args.points)
    for result in results:
        status = "PASS" if result.passed else "FAIL"
        found = f"max dev {result.deviation:.3e}" if result.error is None else result.error
        print(f"{result.name:<58} {found}  tol {result.tolerance:.0e}  {status}")
    all_passed = all(result.passed for result in results)
    print(f"VERIFY: {'PASS' if all_passed else 'FAIL'}")
    return 0 if all_passed else 1


# figure -> (CSV header, columns over a uniform grid of [0, 1]); every value is read off simulated channel states
_SWEEPS = {
    "3a": (["p1", "p2", "F_ab", "F_ba"], lambda grid: _fig3_columns("independent", grid)),
    "3b": (["p", "F_ab", "F_ba"], lambda grid: _fig3_columns("common", grid)),
    "3c": (["t", "F"], lambda grid: [grid, fidelity_closed(weight_from_choi(_symmetric_point_states(grid)))]),
    "4": (
        ["t", "i_aux", "i_tot", "i_class", "discord", "concurrence", "i_coh", "min_pt_eig", "entanglement_breaking"],
        lambda grid: astuple(info_report_from_choi(_symmetric_point_states(grid), grid)),
    ),
}


def _csv_cells(column: np.ndarray) -> list[str]:
    """CSV cells of a column: true/false per bool, ``%.12g`` per number, formatted once per distinct float64 bits."""
    if column.dtype == bool:
        return np.where(column, "true", "false").tolist()
    keys, inverse = np.unique(column.view(np.uint64), return_inverse=True)  # bits keep -0.0 apart
    return np.array(["%.12g" % v for v in keys.view(np.float64).tolist()], dtype=object)[inverse].tolist()


def _cmd_sweep(args) -> int:
    if args.points < 2:
        _PARSER.error("--points must be at least 2")
    header, build_columns = _SWEEPS[args.figure]
    columns = [np.ravel(column) for column in build_columns(np.linspace(0.0, 1.0, args.points))]
    if args.format == "csv":
        text = "\n".join([",".join(header), *map(",".join, zip(*map(_csv_cells, columns)))]) + "\n"
    else:
        payload = {
            "figure": args.figure,
            "points": args.points,
            "columns": header,
            "rows": list(zip(*(column.tolist() for column in columns))),
            "tool_version": __version__,
        }
        text = json.dumps(payload, indent=2) + "\n"
    return _emit(text, args.out)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bellbidir",
        description="Bidirectional single-Bell-pair teleportation: simulation, verification, and sweeps.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="simulate one parameter point and emit a JSON report")
    sim.add_argument("--scheme", choices=SCHEMES, required=True)
    sim.add_argument("--theta1", type=float, default=None, help="Alice's trigger angle in radians")
    sim.add_argument("--theta2", type=float, default=None, help="Bob's trigger angle in radians")
    sim.add_argument("--theta", type=float, default=None, help="common trigger angle in radians")
    sim.add_argument("--p1", type=float, default=None, help="Alice's firing probability (converted to an angle)")
    sim.add_argument("--p2", type=float, default=None, help="Bob's firing probability")
    sim.add_argument("--p", type=float, default=None, help="common firing probability")
    sim.add_argument("--t", type=float, default=None, help="mixing weight, mixed scheme only")
    sim.add_argument("--direction", choices=DIRECTIONS, default=A_TO_B)
    sim.add_argument("--out", default=None, help="output path (default: stdout)")

    verify = sub.add_parser("verify", help="check simulated channels against closed forms")
    verify.add_argument("--grid", type=int, default=9, help="trigger-angle grid size per axis")
    verify.add_argument("--points", type=int, default=101, help="t-grid size for the information checks")

    sweep = sub.add_parser("sweep", help="emit figure-reproduction data")
    sweep.add_argument("--figure", choices=_SWEEPS, required=True)
    sweep.add_argument("--points", type=int, default=101)
    sweep.add_argument("--out", default=None, help="output path (default: stdout)")
    sweep.add_argument("--format", choices=["csv", "json"], default="csv")
    return parser


_PARSER = build_parser()  # one parser per process; its .error formats every usage error


def main(argv: list[str] | None = None) -> int:
    args = _PARSER.parse_args(argv)
    commands = {"simulate": _cmd_simulate, "verify": _cmd_verify, "sweep": _cmd_sweep}
    try:
        return commands[args.command](args)
    except OutOfRange as exc:  # a parameter outside its documented range is a usage error
        _PARSER.error(str(exc))


def entrypoint() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    raise SystemExit(main())
