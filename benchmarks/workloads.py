"""The benchmark's three workloads: seeded inputs, one op, and the op's check.

Each workload is built from the imported ``bellbidir`` submodules and a
seed.  ``run(k)`` makes op ``k``'s calls into the program and is the only
timed part.  ``prepare_checks()`` computes the reference values, and
``check(k, result)`` compares op ``k``'s result against them.  It returns
the number of values it compared and raises :class:`CheckFailed` on a
mismatch.  Every op calls the program with values generated here from the
seed, and only with those.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import time

import numpy as np

PI = math.pi
DIRECTIONS = ("ab", "ba")
ENDPOINTS = {"ab": ("Q_A", "C_B"), "ba": ("Q_B", "C_A")}
RECORD_LABELS = ("M_A1", "M_A2", "M_B1", "M_B2")


class CheckFailed(Exception):
    """An op's output disagrees with its reference."""


def closed_q(scheme: str, direction: str, theta1=PI / 2, theta2=PI / 2, theta=PI / 2, t=0.0) -> float:
    """The paper's closed-form channel weight q, written out here as the oracle.

    Independent triggers: the sender fires and the receiver does not.  A
    common trigger: q = p toward B and 1 - p toward A.  Mixed: weight t of
    the first.  Probabilities are sin^2(angle / 2).
    """
    p1, p2, p = (math.sin(angle / 2) ** 2 for angle in (theta1, theta2, theta))
    q_ind = p1 * (1.0 - p2) if direction == "ab" else p2 * (1.0 - p1)
    q_com = p if direction == "ab" else 1.0 - p
    return {"independent": q_ind, "common": q_com, "mixed": t * q_ind + (1.0 - t) * q_com}[scheme]


def closed_choi(q: float) -> np.ndarray:
    """Channel state q |Phi+><Phi+| + (1 - q) I/4 on (reference, output)."""
    bell = np.array([1.0, 0.0, 0.0, 1.0]) / math.sqrt(2.0)
    return q * np.outer(bell, bell) + (1.0 - q) * np.eye(4) / 4.0


def _angles_from_probs(rng, count: int, lo: float, hi: float) -> list[float]:
    return [2.0 * math.asin(math.sqrt(p)) for p in rng.uniform(lo, hi, count)]


def _half_last_digit(values: np.ndarray) -> np.ndarray:
    """Rounding error bound of values printed with 12 significant digits."""
    magnitude = np.abs(values)
    exponent = np.floor(np.log10(np.where(magnitude > 0.0, magnitude, 1.0)))
    return np.where(magnitude > 0.0, 0.5 * 10.0 ** (exponent - 11), 0.0)


def _compare(name: str, got: np.ndarray, expected: np.ndarray, tol: float, printed: bool = False) -> int:
    got = np.asarray(got, dtype=float)
    expected = np.asarray(expected, dtype=float)
    if got.shape != expected.shape:
        raise CheckFailed(f"{name}: shape {got.shape} != {expected.shape}")
    allowed = np.full(expected.shape, tol)
    if printed:
        allowed += _half_last_digit(got)
    deviation = np.abs(got - expected)
    if not np.all(deviation <= allowed):
        worst = int(np.argmax(deviation - allowed))
        raise CheckFailed(f"{name}: deviation {deviation.flat[worst]:.3e} > {allowed.flat[worst]:.3e}")
    return got.size


class ChannelGrid:
    """One op builds one seeded scheme point and extracts both channel states."""

    name = "channel_grid"
    cycle = 2  # ops alternate independent, common
    setup_repeats = 15
    POOL = 64

    def __init__(self, bb, seed: int):
        self.bb = bb
        rng = np.random.default_rng(seed)
        params = bb.protocols.SchemeParams
        corners_ind = [(0.0, 0.0), (0.0, PI), (PI, 0.0), (PI, PI)]
        random_ind = [(float(a), float(b)) for a, b in rng.uniform(0.0, PI, (self.POOL, 2))]
        random_com = [float(th) for th in rng.uniform(0.0, PI, self.POOL)]
        self.angles = (
            [("independent", {"theta1": a, "theta2": b}) for a, b in (corners_ind + random_ind)[: self.POOL]],
            [("common", {"theta": th}) for th in ([0.0, PI] + random_com)[: self.POOL]],
        )
        self.points = [[(scheme, params(**angles)) for scheme, angles in pool] for pool in self.angles]

    def _point(self, k: int):
        return self.points[k % 2][(k // 2) % self.POOL]

    def items(self, k: int) -> int:
        return len(DIRECTIONS)

    def run(self, k: int):
        scheme, params = self._point(k)
        protocols = self.bb.protocols
        build = protocols.build_scheme_independent if scheme == "independent" else protocols.build_scheme_common
        circuit = build(params)
        return [protocols.extract_choi(circuit, *ENDPOINTS[d]) for d in DIRECTIONS]

    def prepare_checks(self) -> None:
        self.references = [
            [[closed_choi(closed_q(scheme, d, **angles)) for d in DIRECTIONS] for scheme, angles in pool] for pool in self.angles
        ]

    def check(self, k: int, chois) -> int:
        linalg, cli = self.bb.linalg, self.bb.cli
        references = self.references[k % 2][(k // 2) % self.POOL]
        checked = 0
        for direction, choi, reference in zip(DIRECTIONS, chois, references):
            distance = linalg.trace_distance(choi, reference)
            marginal = linalg.max_abs(linalg.partial_trace(choi, 2, [0]) - np.eye(2) / 2)
            checked += _compare(f"op {k} {direction} choi", distance, 0.0, cli.CHOI_TOL)
            checked += _compare(f"op {k} {direction} marginal", marginal, 0.0, cli.MARGINAL_TOL)
        return checked


def _bloch(rho: np.ndarray) -> np.ndarray:
    """Bloch vectors of a stack of (possibly unnormalized) 2x2 density matrices."""
    rho = np.asarray(rho)
    return np.stack([2.0 * rho[..., 0, 1].real, -2.0 * rho[..., 0, 1].imag, (rho[..., 0, 0] - rho[..., 1, 1]).real], axis=-1)


class Trajectories:
    """One op is one trajectory-sampling call with a fixed trial count."""

    name = "trajectories"
    cycle = 3  # ops cycle independent, common, mixed at t = 0.5
    setup_repeats = 9
    POOL = 16
    TRIALS = 1024
    MIXED_T = 0.5
    SIGMAS = 5.0
    # Floor for outputs that do not vary between trials, where the standard error is 0.
    ABS_FLOOR = 1e-9

    def __init__(self, bb, seed: int):
        self.bb = bb
        self.seed = seed
        rng = np.random.default_rng(seed)
        protocols = bb.protocols
        params = protocols.SchemeParams
        # Random trigger angles keep both firing outcomes at probability >= 0.1, so a
        # rare branch cannot make the 5-sigma test fail by chance; the exact corners
        # 0 and pi are kept as well.
        ind = [(0.0, 0.0), (0.0, PI), (PI, 0.0), (PI, PI)]
        ind += list(zip(_angles_from_probs(rng, self.POOL, 0.1, 0.9), _angles_from_probs(rng, self.POOL, 0.1, 0.9)))
        com = [0.0, PI] + _angles_from_probs(rng, self.POOL, 0.1, 0.9)
        mixed = _angles_from_probs(rng, 3 * self.POOL, 0.1, 0.9)
        self.configs = []
        for i in range(self.POOL):
            cos_in, phi_in = rng.uniform(-1.0, 1.0), rng.uniform(0.0, 2.0 * PI)
            psi = bb.sim.bloch_state(math.acos(cos_in), phi_in)
            direction = DIRECTIONS[int(rng.integers(2))]
            self.configs.append(
                (
                    ("independent", (protocols.build_scheme_independent(params(theta1=ind[i][0], theta2=ind[i][1])),)),
                    ("common", (protocols.build_scheme_common(params(theta=com[i])),)),
                    (
                        "mixed",
                        (
                            protocols.build_scheme_independent(params(theta1=mixed[3 * i], theta2=mixed[3 * i + 1])),
                            protocols.build_scheme_common(params(theta=mixed[3 * i + 2])),
                        ),
                    ),
                    psi,
                    direction,
                )
            )

    def _op(self, k: int):
        config = self.configs[(k // 3) % self.POOL]
        scheme, circuits = config[k % 3]
        return scheme, circuits, config[3], config[4]

    def _rng_seed(self, k: int) -> int:
        return int(np.random.SeedSequence([self.seed, k]).generate_state(1)[0])

    def items(self, k: int) -> int:
        return self.TRIALS

    def run(self, k: int):
        scheme, circuits, psi, direction = self._op(k)
        protocols = self.bb.protocols
        if scheme == "mixed":
            return protocols.sample_mixed_trajectories(
                *circuits, self.MIXED_T, *ENDPOINTS[direction], psi, self.TRIALS, self._rng_seed(k)
            )
        return protocols.sample_trajectories(*circuits, *ENDPOINTS[direction], psi, self.TRIALS, self._rng_seed(k))

    def _branches(self, circuit, direction: str, psi: np.ndarray):
        """Probability and output Bloch vector of each of the 16 measurement records.

        Runs the deferred circuit on the input and projects the record qubits,
        which by the deferred-measurement principle gives the same branches as
        measuring them and applying the corrections.
        """
        sim = self.bb.sim
        input_label, output_label = ENDPOINTS[direction]
        prepared = sim.Circuit(circuit.num_qubits, circuit.labels, circuit.gates, {**circuit.prep, input_label: psi})
        final = sim.run_circuit(prepared, prepared.initial_state())
        records = [circuit.index(label) for label in RECORD_LABELS]
        output = circuit.index(output_label)
        rest = [q for q in range(circuit.num_qubits) if q not in records and q != output]
        amps = final.reshape([2] * circuit.num_qubits).transpose(records + [output] + rest).reshape(16, 2, -1)
        rho = np.einsum("mar,mbr->mab", amps, amps.conj())
        prob = (rho[:, 0, 0] + rho[:, 1, 1]).real
        keep = prob > 1e-15
        return prob[keep], _bloch(rho[keep]) / prob[keep, None]

    def prepare_checks(self) -> None:
        protocols = self.bb.protocols
        self.references = []
        for config in self.configs:
            psi, direction = config[3], config[4]
            rho_in = np.outer(psi, psi.conj())
            per_scheme = []
            for scheme, circuits in config[:3]:
                chois = [protocols.extract_choi(c, *ENDPOINTS[direction]) for c in circuits]
                branches = [self._branches(c, direction, psi) for c in circuits]
                if scheme == "mixed":
                    choi = protocols.choi_mixed(self.MIXED_T, *chois)
                    prob = np.concatenate([self.MIXED_T * branches[0][0], (1.0 - self.MIXED_T) * branches[1][0]])
                    bloch = np.concatenate([branches[0][1], branches[1][1]])
                else:
                    choi = chois[0]
                    prob, bloch = branches[0]
                mean = _bloch(protocols.apply_channel_from_choi(choi, rho_in))
                if not np.allclose(prob @ bloch, mean, atol=1e-9):
                    raise CheckFailed(f"{scheme} branch enumeration disagrees with the channel state")
                sigma = np.sqrt(np.maximum(prob @ bloch**2 - mean**2, 0.0))
                per_scheme.append((mean, sigma))
            self.references.append(per_scheme)

    def check(self, k: int, outputs) -> int:
        outputs = np.asarray(outputs)
        if outputs.shape != (self.TRIALS, 2, 2):
            raise CheckFailed(f"op {k}: output shape {outputs.shape}")
        mean, sigma = self.references[(k // 3) % self.POOL][k % 3]
        traces = (outputs[:, 0, 0] + outputs[:, 1, 1]).real
        checked = _compare(f"op {k} trace", traces, np.ones(self.TRIALS), self.ABS_FLOOR)
        tol = self.SIGMAS * sigma / math.sqrt(self.TRIALS) + self.ABS_FLOOR
        got = _bloch(outputs).mean(axis=0)
        for axis in range(3):
            checked += _compare(f"op {k} mean Bloch[{axis}]", got[axis], mean[axis], tol[axis])
        return checked


SIMULATE_POOL = 6
FIG3 = ("3a", "3b", "3c")
FIG4_COLUMNS = ("i_aux", "i_tot", "i_class", "discord", "concurrence", "i_coh", "min_pt_eig", "entanglement_breaking")


def _read_csv(text: str, header: list[str], rows: int) -> list[list[str]]:
    lines = text.splitlines()
    if lines[:1] != [",".join(header)]:
        raise CheckFailed(f"header {lines[:1]} != {header}")
    table = [line.split(",") for line in lines[1:]]
    if len(table) != rows or any(len(row) != len(header) for row in table):
        raise CheckFailed(f"expected {rows} rows of {len(header)} columns")
    return table


class PaperSession:
    """One op is one user session of the documented CLI commands, run in-process.

    ``groups`` limits a session to some command groups; the benchmark
    workload always runs them all.
    """

    name = "paper_session"
    cycle = 1
    setup_repeats = 3
    POINTS = 101  # the sweep and verify defaults
    GROUPS = ("verify", "sweep_fig4", "sweep_fig3", "simulate")

    def __init__(self, bb, seed: int, groups: tuple[str, ...] = GROUPS):
        self.bb = bb
        self.groups = groups
        self.digests: dict[str, str] = {}
        rng = np.random.default_rng(seed)
        r = lambda: repr(float(rng.uniform(0.0, PI)))
        corners = [(0.0, 0.0), (0.0, PI), (PI, 0.0), (PI, PI)]
        ind = [(repr(a), repr(b)) for a, b in corners] + [(r(), r()) for _ in range(SIMULATE_POOL - 4)]
        com = [repr(0.0), repr(PI)] + [r() for _ in range(SIMULATE_POOL - 2)]
        ts = [0.0, 2.0 / 3.0, 1.0] + list(rng.uniform(0.0, 1.0, SIMULATE_POOL - 3))
        simulate = []
        for i in range(SIMULATE_POOL):
            dirs = [DIRECTIONS[int(d)] for d in rng.integers(2, size=3)]
            simulate.append(
                [
                    ["simulate", "--scheme", "independent", "--theta1", ind[i][0], "--theta2", ind[i][1], "--direction", dirs[0]],
                    ["simulate", "--scheme", "common", "--theta", com[i], "--direction", dirs[1]],
                    ["simulate", "--scheme", "mixed", "--theta1", r(), "--theta2", r(), "--theta", r(),
                     "--t", repr(float(ts[i])), "--direction", dirs[2]],
                ]
            )
        self.simulate = simulate

    def commands(self, k: int) -> list[tuple[str, list[str]]]:
        commands = (
            [("verify", ["verify"]), ("sweep_fig4", ["sweep", "--figure", "4"])]
            + [("sweep_fig3", ["sweep", "--figure", f]) for f in FIG3]
            + [("simulate", argv) for argv in self.simulate[k % SIMULATE_POOL]]
        )
        return [(group, argv) for group, argv in commands if group in self.groups]

    def items(self, k: int) -> int:
        return 1

    def run(self, k: int):
        results = []
        for group, argv in self.commands(k):
            buffer = io.StringIO()
            start = time.perf_counter()
            with contextlib.redirect_stdout(buffer):
                code = self.bb.cli.main(argv)
            results.append((group, argv, code, buffer.getvalue(), (start, time.perf_counter())))
        return results

    @staticmethod
    def command_intervals(results) -> list[tuple[str, float, float]]:
        """(command group, start, end) of each command in one session."""
        return [(group, *interval) for group, _, _, _, interval in results]

    def prepare_checks(self) -> None:
        info = self.bb.infotheory
        grid = np.linspace(0.0, 1.0, self.POINTS)
        p1, p2 = (a.ravel() for a in np.meshgrid(grid, grid, indexing="ij"))
        fidelity = lambda q: (1.0 + q) / 2.0
        fig3a = np.stack([p1, p2, fidelity(p1 * (1.0 - p2)), fidelity(p2 * (1.0 - p1))], axis=1)
        fig3b = np.stack([grid, fidelity(grid), fidelity(1.0 - grid)], axis=1)
        fig3c = np.stack([grid, fidelity(0.5 - grid / 4.0)], axis=1)  # symmetric point, q = 1/2 - t/4
        fig4 = []
        for t in grid:
            total, capacity = info.total_info_closed(t), info.classical_capacity_closed(t)
            fig4.append([t, info.aux_info_closed(t), total, capacity, total - capacity, info.concurrence_closed(t)])
        # figure -> (CSV header, expected values, number of leading grid columns)
        self.expected = {
            "3a": (["p1", "p2", "F_ab", "F_ba"], fig3a, 2),
            "3b": (["p", "F_ab", "F_ba"], fig3b, 1),
            "3c": (["t", "F"], fig3c, 1),
            "4": (["t", *FIG4_COLUMNS], np.array(fig4), 1),
        }

    def _check_verify(self, text: str) -> int:
        lines = text.splitlines()
        checks = [line for line in lines[:-1] if line.endswith("  PASS")]
        if len(lines) != 9 or len(checks) != 8 or lines[-1] != "VERIFY: PASS":
            raise CheckFailed(f"verify printed {len(checks)} PASS lines of {len(lines)}")
        for line in checks:
            deviation, tolerance = float(line.split("max dev ")[1].split()[0]), float(line.split(" tol ")[1].split()[0])
            _compare(f"verify {line[:40]!r}", deviation, 0.0, tolerance)
        return len(checks)

    def _check_sweep(self, figure: str, text: str) -> int:
        cli = self.bb.cli
        header, expected, grid = self.expected[figure]
        table = _read_csv(text, header, len(expected))
        if figure == "4":
            table, breaking = [row[:-1] for row in table], [row[-1] for row in table]
        values = np.array(table, dtype=float)
        checked = _compare(f"fig {figure} grid", values[:, :grid], expected[:, :grid], 0.0, printed=True)
        if figure != "4":
            return checked + _compare(f"fig {figure} fidelity", values[:, grid:], expected[:, grid:], cli.CHOI_TOL, printed=True)
        columns = {name: i for i, name in enumerate(header)}
        for column, ix, tol in (
            ("i_aux", 1, cli.AUX_TOL),
            ("i_tot", 2, cli.TOTAL_TOL),
            ("i_class", 3, cli.CAPACITY_TOL),
            ("discord", 4, cli.TOTAL_TOL + cli.CAPACITY_TOL),
            ("concurrence", 5, cli.CONCURRENCE_TOL),
        ):
            checked += _compare(f"fig 4 {column}", values[:, columns[column]], expected[:, ix], tol, printed=True)
        wanted = ["true" if t > 2.0 / 3.0 else "false" for t in expected[:, 0]]  # concurrence 1/4 - 3t/8 vanishes
        if breaking != wanted:
            raise CheckFailed("fig 4 entanglement_breaking disagrees with t > 2/3")
        return checked + len(breaking)

    def _check_simulate(self, argv: list[str], text: str) -> int:
        bb = self.bb
        flags = dict(zip(argv[1::2], argv[2::2]))
        scheme = flags["--scheme"]
        names = {"--theta1": "theta1", "--theta2": "theta2", "--theta": "theta", "--t": "t"}
        q = closed_q(scheme, flags["--direction"], **{names[f]: float(v) for f, v in flags.items() if f in names})
        report = json.loads(text)
        checked = _compare(f"simulate {scheme} q", report["q"], q, bb.cli.CHOI_TOL)
        return checked + _compare(f"simulate {scheme} fidelity", report["fidelity"], (1.0 + q) / 2.0, bb.cli.CHOI_TOL)

    def check(self, k: int, results) -> int:
        checked = 0
        for group, argv, code, text, _ in results:
            key = " ".join(argv)
            if code != 0:
                raise CheckFailed(f"{key!r} exited {code}")
            digest = hashlib.sha256(text.encode()).hexdigest()
            if self.digests.setdefault(key, digest) != digest:
                raise CheckFailed(f"{key!r} output differs from an earlier identical command")
            if group == "verify":
                checked += self._check_verify(text)
            elif group == "simulate":
                checked += self._check_simulate(argv, text)
            else:
                checked += self._check_sweep(argv[-1], text)
        return checked


WORKLOADS = {cls.name: cls for cls in (PaperSession, ChannelGrid, Trajectories)}
