"""Command-line front end: point reports, verification grids, figure sweeps.

Subcommands:

* ``simulate`` -- build the requested scheme, derive the channel by
  simulation, and write a JSON report of the channel state, fidelity, and
  all information measures.
* ``verify`` -- compare simulated channel states against the closed forms
  over parameter grids and check the closed-form/numeric agreement of the
  information measures; exit code 0 only if every check passes.
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

from . import __version__
from .channels import SCHEMES, analytic_channel, choi_of_channel, fidelity_closed, weight_from_choi
from .errors import OutOfRange, check_unit_interval
from .infotheory import (
    aux_info_closed,
    classical_accessible_info,
    classical_capacity_closed,
    concurrence,
    concurrence_closed,
    info_report,
    info_report_from_choi,
    quantum_mutual_information,
    shannon_mutual_information,
    symmetric_mixed_choi,
    total_info_closed,
    trigger_joint_distribution,
)
from .linalg import max_abs, partial_trace, trace_distance
from .protocols import (
    A_TO_B,
    DIRECTIONS,
    SchemeParams,
    build_scheme_common,
    build_scheme_independent,
    channel_endpoints,
    choi_mixed,
    extract_choi,
)
from .sim import Circuit

CHOI_TOL = 1e-10
MARGINAL_TOL = 1e-10
AUX_TOL = 1e-12
TOTAL_TOL = 1e-10
CAPACITY_TOL = 1e-6
CONCURRENCE_TOL = 1e-9


def _scheme_circuit(scheme: str, params: SchemeParams) -> Circuit:
    """Circuit of the independent- or common-trigger scheme."""
    builders = {"independent": build_scheme_independent, "common": build_scheme_common}
    if scheme not in builders:
        raise ValueError(f"scheme must be one of {SCHEMES}, got {scheme!r}")
    return builders[scheme](params)


def simulated_choi(scheme: str, params: SchemeParams, direction: str) -> np.ndarray:
    """Channel state of a scheme obtained by circuit simulation."""
    if scheme == "mixed":
        parts = [simulated_choi(name, params, direction) for name in ("independent", "common")]
        return choi_mixed(params.t, *parts)
    return extract_choi(_scheme_circuit(scheme, params), *channel_endpoints(direction))


def channel_deviation(scheme: str, points: list[SchemeParams]) -> tuple[float, float]:
    """Worst simulated-vs-closed-form deviation of a scheme over parameter points.

    Returns the maximum trace distance between channel states and the
    maximum deviation of the reference marginal from maximally mixed, over
    the points and both directions.  Each circuit is built once per point.
    """
    worst_choi = 0.0
    worst_marginal = 0.0
    for params in points:
        circuit = _scheme_circuit(scheme, params)
        for direction in DIRECTIONS:
            simulated = extract_choi(circuit, *channel_endpoints(direction))
            reference = choi_of_channel(analytic_channel(scheme, params, direction))
            worst_choi = max(worst_choi, trace_distance(simulated, reference))
            marginal = partial_trace(simulated, 2, [0]) - np.eye(2) / 2
            worst_marginal = max(worst_marginal, max_abs(marginal))
    return worst_choi, worst_marginal


def infotheory_deviations(points: int = 101) -> dict[str, float]:
    """Worst closed-form vs numeric deviation of each measure over a t grid."""
    worst = {"aux": 0.0, "total": 0.0, "capacity": 0.0, "concurrence": 0.0}
    for t in np.linspace(0.0, 1.0, points):
        choi = symmetric_mixed_choi(t)
        table = trigger_joint_distribution(t)
        worst["aux"] = max(worst["aux"], abs(aux_info_closed(t) - shannon_mutual_information(table)))
        worst["total"] = max(worst["total"], abs(total_info_closed(t) - quantum_mutual_information(choi)))
        accessible, _ = classical_accessible_info(choi)
        worst["capacity"] = max(worst["capacity"], abs(classical_capacity_closed(t) - accessible))
        worst["concurrence"] = max(worst["concurrence"], abs(concurrence_closed(t) - concurrence(choi)))
    return worst


@dataclass(frozen=True)
class CheckResult:
    name: str
    deviation: float
    tolerance: float

    @property
    def passed(self) -> bool:
        return self.deviation <= self.tolerance


def run_verification(grid: int = 9, points: int = 101) -> list[CheckResult]:
    """All verification checks at the given grid sizes (each at least 2)."""
    if grid < 2 or points < 2:
        raise OutOfRange(f"grid and points must be at least 2, got grid={grid}, points={points}")
    thetas = np.linspace(0.0, math.pi, grid)
    ind_points = [SchemeParams(theta1=theta1, theta2=theta2) for theta1 in thetas for theta2 in thetas]
    ind_choi, ind_marginal = channel_deviation("independent", ind_points)
    com_points = [SchemeParams(theta=theta) for theta in np.linspace(0.0, math.pi, max(17, grid))]
    com_choi, com_marginal = channel_deviation("common", com_points)
    info = infotheory_deviations(points)
    return [
        CheckResult(f"independent choi vs closed form ({grid}x{grid}, both dirs)", ind_choi, CHOI_TOL),
        CheckResult("independent reference marginal vs I/2", ind_marginal, MARGINAL_TOL),
        CheckResult(f"common choi vs closed form ({max(17, grid)} angles, both dirs)", com_choi, CHOI_TOL),
        CheckResult("common reference marginal vs I/2", com_marginal, MARGINAL_TOL),
        CheckResult(f"trigger info closed form vs table ({points} t)", info["aux"], AUX_TOL),
        CheckResult(f"total info closed form vs channel state ({points} t)", info["total"], TOTAL_TOL),
        CheckResult(f"classical capacity closed form vs optimizer ({points} t)", info["capacity"], CAPACITY_TOL),
        CheckResult(f"concurrence closed form vs spectrum ({points} t)", info["concurrence"], CONCURRENCE_TOL),
    ]


def _format_number(value) -> str:
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    return f"{value:.12g}"


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


def _resolve_params(args, parser: argparse.ArgumentParser) -> SchemeParams:
    def angle(angle_name: str, prob_name: str) -> float:
        theta = getattr(args, angle_name)
        prob = getattr(args, prob_name)
        if theta is not None and prob is not None:
            parser.error(f"--{angle_name} and --{prob_name} are mutually exclusive")
        if prob is not None:
            check_unit_interval(f"--{prob_name}", prob)
            return 2.0 * math.asin(math.sqrt(prob))
        if theta is not None:
            return theta
        return math.pi / 2

    t = args.t
    if args.scheme == "mixed" and t is None:
        parser.error("--t is required for the mixed scheme")
    if args.scheme != "mixed" and t is not None:
        parser.error("--t only applies to the mixed scheme")
    try:
        return SchemeParams(
            theta1=angle("theta1", "p1"),
            theta2=angle("theta2", "p2"),
            theta=angle("theta", "p"),
            t=0.0 if t is None else t,
        )
    except OutOfRange as exc:
        parser.error(str(exc))


def _cmd_simulate(args, parser: argparse.ArgumentParser) -> int:
    params = _resolve_params(args, parser)
    choi = simulated_choi(args.scheme, params, args.direction)
    effective_t = {"independent": 1.0, "common": 0.0, "mixed": params.t}[args.scheme]
    q = weight_from_choi(choi)
    report = {
        "scheme": args.scheme,
        "params": {
            "theta1": params.theta1,
            "theta2": params.theta2,
            "theta": params.theta,
            "t": params.t,
            "p1": params.p1,
            "p2": params.p2,
            "p": params.p,
            "direction": args.direction,
        },
        "choi": {
            "re": np.real(choi).tolist(),
            "im": np.imag(choi).tolist(),
        },
        "q": q,
        "fidelity": (1.0 + q) / 2.0,
        "info": asdict(info_report_from_choi(choi, effective_t)),
        "tool_version": __version__,
    }
    return _emit(json.dumps(report, indent=2) + "\n", args.out)


def _cmd_verify(args, parser: argparse.ArgumentParser) -> int:
    if args.grid < 2 or args.points < 2:
        parser.error("--grid and --points must be at least 2")
    results = run_verification(grid=args.grid, points=args.points)
    for result in results:
        status = "PASS" if result.passed else "FAIL"
        print(f"{result.name:<58} max dev {result.deviation:.3e}  tol {result.tolerance:.0e}  {status}")
    all_passed = all(result.passed for result in results)
    print(f"VERIFY: {'PASS' if all_passed else 'FAIL'}")
    return 0 if all_passed else 1


def _fidelities(scheme: str, params: SchemeParams, directions: tuple[str, ...] = DIRECTIONS) -> list[float]:
    """Closed-form teleportation fidelity of a scheme in each direction."""
    return [fidelity_closed(analytic_channel(scheme, params, direction)) for direction in directions]


# figure -> (CSV header, rows over a uniform grid of [0, 1] given as Python floats)
_SWEEPS = {
    "3a": (
        ["p1", "p2", "F_ab", "F_ba"],
        lambda grid: [
            [p1, p2, *_fidelities("independent", SchemeParams.from_probabilities(p1=p1, p2=p2))]
            for p1 in grid
            for p2 in grid
        ],
    ),
    "3b": (
        ["p", "F_ab", "F_ba"],
        lambda grid: [[p, *_fidelities("common", SchemeParams.from_probabilities(p=p))] for p in grid],
    ),
    "3c": (
        ["t", "F"],
        lambda grid: [[t, *_fidelities("mixed", SchemeParams.from_probabilities(t=t), (A_TO_B,))] for t in grid],
    ),
    "4": (
        ["t", "i_aux", "i_tot", "i_class", "discord", "concurrence", "i_coh", "min_pt_eig", "entanglement_breaking"],
        lambda grid: [list(astuple(info_report(t))) for t in grid],
    ),
}


def _cmd_sweep(args, parser: argparse.ArgumentParser) -> int:
    if args.points < 2:
        parser.error("--points must be at least 2")
    header, build_rows = _SWEEPS[args.figure]
    rows = build_rows(np.linspace(0.0, 1.0, args.points).tolist())
    if args.format == "csv":
        lines = [",".join(header)]
        lines += [",".join(_format_number(value) for value in row) for row in rows]
        text = "\n".join(lines) + "\n"
    else:
        payload = {
            "figure": args.figure,
            "points": args.points,
            "columns": header,
            "rows": [[bool(v) if isinstance(v, (bool, np.bool_)) else float(v) for v in row] for row in rows],
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


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    commands = {"simulate": _cmd_simulate, "verify": _cmd_verify, "sweep": _cmd_sweep}
    return commands[args.command](args, parser)


def entrypoint() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    raise SystemExit(main())
