"""Trigger-controlled bidirectional teleportation circuits over one Bell pair.

Register layout (independent-trigger scheme, 10 qubits):

    Q_A, C_A, C_B, Q_B, M_A1, M_A2, M_B1, M_B2, T_A, T_B

C_A/C_B carry the shared Bell pair, prepared by H + CNOT at the head of the
gate list.  Q_A/Q_B hold the states being sent.  Each party runs an indirect
Bell measurement: change (Q, C) into the Bell basis, copy both bits onto the
M ancillas under Toffoli control of the trigger, and undo the basis change.
The common-trigger scheme replaces T_A/T_B with a single trigger T that is
inverted (X) between the two parties' blocks, so exactly one side fires.

Mid-circuit measurement plus classical feed-forward is rewritten in the
deferred form: the M qubits control CNOT (X correction) and CZ (Z
correction) on the receiving half of the Bell pair and are then traced out.
:func:`sample_trajectories` provides the literal measure-and-correct
execution for stochastic cross-checks.

Trigger states cannot be prepared by the closed gate set, so they live in
the circuit's ``prep`` map rather than in the gate list.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import BadChannelState, BadIndex, BadLabel, NonHermitianInput, NotPSD, OutOfRange
from .errors import check_unit_interval, is_integer
from .linalg import _reject_first, psd_eigenvalues
from .sim import (
    CCNOT,
    CNOT,
    Circuit,
    Gate,
    H,
    X,
    apply_gate,
    bloch_state,
    measure_qubit,
    reduced_density_matrix,
    run_circuit,
    run_reduced,
)

A_TO_B = "ab"
B_TO_A = "ba"
DIRECTIONS = (A_TO_B, B_TO_A)

_BASE_LABELS = ("Q_A", "C_A", "C_B", "Q_B", "M_A1", "M_A2", "M_B1", "M_B2")
INDEPENDENT_LABELS = _BASE_LABELS + ("T_A", "T_B")
COMMON_LABELS = _BASE_LABELS + ("T",)
MARGINAL_TOL = 1e-10  # a channel state whose reference marginal is off I/2 by more is not trace preserving

# Measurement-record qubit -> (correction gate kind, corrected qubit).
# M1 holds the copy of the C qubit and drives the X correction; M2 holds the
# copy of the Q qubit and drives the Z correction, applied after the X.
_CORRECTIONS = (
    ("M_A1", "CNOT", "C_B"),
    ("M_A2", "CZ", "C_B"),
    ("M_B1", "CNOT", "C_A"),
    ("M_B2", "CZ", "C_A"),
)

@dataclass(frozen=True)
class SchemeParams:
    """Trigger angles and mixing weight; probabilities are sin^2(angle/2)."""

    theta1: float = math.pi / 2
    theta2: float = math.pi / 2
    theta: float = math.pi / 2
    t: float = 0.0

    def __post_init__(self):
        angles = (self.theta1, self.theta2, self.theta)
        try:
            finite = all(map(math.isfinite, angles))
        except TypeError:  # math.isfinite takes only real numbers
            raise OutOfRange(f"trigger angles (theta1, theta2, theta) = {angles} must be real numbers") from None
        if not finite:
            raise OutOfRange(f"trigger angles (theta1, theta2, theta) = {angles} must be finite")
        check_unit_interval("mixing weight t", self.t)

    @property
    def p1(self) -> float:
        return math.sin(self.theta1 / 2) ** 2

    @property
    def p2(self) -> float:
        return math.sin(self.theta2 / 2) ** 2

    @property
    def p(self) -> float:
        return math.sin(self.theta / 2) ** 2

    @classmethod
    def from_probabilities(cls, p1: float = 0.5, p2: float = 0.5, p: float = 0.5, t: float = 0.0) -> "SchemeParams":
        return cls(theta1=firing_angle("p1", p1), theta2=firing_angle("p2", p2), theta=firing_angle("p", p), t=t)


def firing_angle(name: str, prob: float) -> float:
    """Trigger angle 2 asin(sqrt(prob)) that fires with probability ``prob``; ``name`` labels a range error."""
    check_unit_interval(name, prob)
    return 2.0 * math.asin(math.sqrt(prob))


def build_indirect_bell_block(q: int, c: int, trig: int, m1: int, m2: int) -> list[Gate]:
    """Trigger-controlled indirect Bell measurement of qubits (q, c).

    Basis change into the Bell basis, Toffoli copies of c and q onto m1 and
    m2 (firing only when the trigger is |1>), then the inverse basis change.
    With the trigger in |0> the block is the identity.
    """
    if len({q, c, trig, m1, m2}) != 5:
        raise BadIndex(f"block qubits must be distinct, got {(q, c, trig, m1, m2)}")
    return [
        CNOT(q, c),
        H(q),
        CCNOT(trig, c, m1),
        CCNOT(trig, q, m2),
        H(q),
        CNOT(q, c),
    ]


@functools.cache
def _scheme_gates(labels: tuple[str, ...], alice: str, bob: str, flip: tuple) -> tuple[Gate, ...]:
    """Bell pair, Alice's block under trigger ``alice``, X on each ``flip`` qubit, Bob's block, corrections."""
    ix = {label: i for i, label in enumerate(labels)}
    gates = [H(ix["C_A"]), CNOT(ix["C_A"], ix["C_B"])]
    gates += build_indirect_bell_block(ix["Q_A"], ix["C_A"], ix[alice], ix["M_A1"], ix["M_A2"])
    gates += [X(ix[label]) for label in flip]
    gates += build_indirect_bell_block(ix["Q_B"], ix["C_B"], ix[bob], ix["M_B1"], ix["M_B2"])
    gates += [Gate(kind, (ix[source], ix[target])) for source, kind, target in _CORRECTIONS]
    return tuple(gates)


def _wire_scheme(labels: tuple[str, ...], alice: str, bob: str, prep: dict, flip: tuple = ()) -> Circuit:
    """The scheme circuit on one gate tuple, shared by every build of the same wiring."""
    return Circuit(len(labels), labels, _scheme_gates(labels, alice, bob, flip), prep)


def _trigger_prep(params: SchemeParams | list[SchemeParams], angles: dict[str, str]) -> dict[str, np.ndarray]:
    """Trigger label -> Bloch state of the named angle of ``params``; a sequence of SchemeParams stacks the states."""
    if isinstance(params, SchemeParams):
        return {label: bloch_state(getattr(params, angle)) for label, angle in angles.items()}
    if len(params) == 0:
        raise OutOfRange("a scheme circuit needs at least one parameter point")
    return {label: np.array([bloch_state(getattr(p, angle)) for p in params]) for label, angle in angles.items()}


def build_scheme_independent(params: SchemeParams | list[SchemeParams]) -> Circuit:
    """Both parties act under their own trigger angles theta1 and theta2; a sequence gives one stacked circuit."""
    return _wire_scheme(INDEPENDENT_LABELS, "T_A", "T_B", _trigger_prep(params, {"T_A": "theta1", "T_B": "theta2"}))


def build_scheme_common(params: SchemeParams | list[SchemeParams]) -> Circuit:
    """One shared trigger, inverted between the parties, so one side fires; a sequence gives one stacked circuit."""
    return _wire_scheme(COMMON_LABELS, "T", "T", _trigger_prep(params, {"T": "theta"}), flip=("T",))


def channel_endpoints(direction: str) -> tuple[str, str]:
    """Input and output qubit labels for a channel direction."""
    if direction == A_TO_B:
        return "Q_A", "C_B"
    if direction == B_TO_A:
        return "Q_B", "C_A"
    raise ValueError(f"direction must be one of {DIRECTIONS}, got {direction!r}")


def _validate_choi(choi: np.ndarray) -> None:
    """Raise :class:`BadChannelState` unless ``choi``, or each state of a stack, is a trace-preserving channel state."""
    try:
        psd_eigenvalues(choi)
    except (NonHermitianInput, NotPSD) as err:
        raise BadChannelState(f"extracted state is not a density matrix: {err}") from err
    trace = np.trace(choi, axis1=-2, axis2=-1).real
    _reject_first(np.abs(trace - 1.0) > 1e-10, trace, BadChannelState, "extracted state has trace {:.12g}, not 1")
    marginal = np.trace(choi.reshape(*choi.shape[:-2], 2, 2, 2, 2), axis1=-3, axis2=-1)  # (R, out, R', out') -> R
    defect = np.abs(marginal - np.eye(2) / 2).max(axis=(-2, -1))
    message = "reference marginal off I/2 by {:.3e}: not trace preserving"
    _reject_first(defect > MARGINAL_TOL, defect, BadChannelState, message)


@functools.lru_cache(maxsize=64)
def _extended_circuit(gates: tuple[Gate, ...], labels: tuple[str, ...], input_ix: int) -> Circuit:
    """The prep-less circuit with a reference qubit R appended and Bell-paired with the input before ``gates``."""
    if "R" in labels:
        raise BadLabel("qubit label 'R' is reserved for the reference qubit of a channel state")
    ref = len(labels)
    return Circuit(ref + 1, labels + ("R",), (H(ref), CNOT(ref, input_ix)) + gates)


def extract_choi(circuit: Circuit, input_label: str, output_label: str) -> np.ndarray:
    """Channel state on (reference, output) for the map input -> output.

    An extra reference qubit R is appended to the register and Bell-paired
    with the input qubit; after running the circuit, everything except
    (R, output) is traced out.  The reference is the first tensor factor of
    the returned 4x4 density matrix.  A stacked circuit gives a ``(k, 4, 4)``
    stack of channel states from one run.  The run starts from the circuit's
    own checked preparations with R = |0> and keeps only the amplitudes they
    reach, never the full register (:func:`sim.run_reduced`); the states are
    the bits of the dense run.
    """
    input_ix = circuit.index(input_label)
    output_ix = circuit.index(output_label)
    if input_label in circuit.prep:
        raise BadLabel(f"input qubit {input_label!r} has a fixed preparation; it must start in |0>")
    extended = _extended_circuit(circuit.gates, circuit.labels, input_ix)
    choi = run_reduced(extended, [circuit.num_qubits, output_ix], circuit.prep)
    _validate_choi(choi)
    return choi


def choi_mixed(t, choi_ind: np.ndarray, choi_com: np.ndarray) -> np.ndarray:
    """Convex mixture t * independent + (1 - t) * common of two channel states; a sequence of t gives a stack."""
    for value in np.ravel(t).tolist():
        check_unit_interval("mixing weight t", value)
    t = np.asarray(t, dtype=float)[..., None, None]
    return t * np.asarray(choi_ind) + (1.0 - t) * np.asarray(choi_com)


def apply_channel_from_choi(choi: np.ndarray, rho_in: np.ndarray) -> np.ndarray:
    """Reconstruct the channel action on a qubit state, or on a ``(..., 2, 2)`` stack, from its channel state."""
    rho_in = np.asarray(rho_in, dtype=complex)
    if rho_in.shape[-2:] != (2, 2):
        raise ValueError(f"input must be a 2x2 density matrix, got {rho_in.shape}")
    choi = np.asarray(choi, dtype=complex)
    if choi.shape != (4, 4):
        raise ValueError(f"channel state must be one 4x4 matrix, got shape {choi.shape}")
    return 2.0 * np.einsum("...ca,cqas->...qs", rho_in, choi.reshape(2, 2, 2, 2))


def _sampler_setup(circuit: Circuit, input_label: str, output_label: str, psi_in: np.ndarray, trials: int) -> tuple:
    """``circuit`` rebuilt (so checked) with ``psi_in`` on its input, less its corrections; those; the output qubit."""
    if not is_integer(trials) or trials < 0:
        raise OutOfRange(f"trials must be a non-negative integer, got {trials!r}")
    for label, psi in [("psi_in", psi_in), *circuit.prep.items()]:
        if np.ndim(psi) > 1:
            shape = np.shape(psi)[:-1]
            raise ValueError(f"the trajectory sampler takes one register, got a stack of shape {shape} in {label}")
    output_ix = circuit.index(output_label)
    deferred = [g for g in circuit.gates if g.kind in ("CNOT", "CZ") and circuit.labels[g.qubits[0]].startswith("M_")]
    corrections = [(gate.qubits[0], Gate("X" if gate.kind == "CNOT" else "Z", gate.qubits[1:])) for gate in deferred]
    gates = [gate for gate in circuit.gates if gate not in deferred]
    return replace(circuit, gates=gates, prep={**circuit.prep, input_label: psi_in}), corrections, output_ix


def _generator(seed) -> np.random.Generator:
    """The generator a sampler draws from: ``seed`` itself, or one seeded by a non-negative integer."""
    if isinstance(seed, np.random.Generator):
        return seed
    if not is_integer(seed) or seed < 0:
        raise OutOfRange(f"seed must be a non-negative integer or a np.random.Generator, got {seed!r}")
    return np.random.default_rng(seed)


def _draw_trajectories(stripped: Circuit, corrections: list, output_ix: int, trials: int, rng) -> np.ndarray:
    """Run a :func:`_sampler_setup` circuit once, then measure and correct its records once per trajectory."""
    base = run_circuit(stripped, stripped.initial_state())
    outputs = np.empty((trials, 2, 2), dtype=complex)
    for k in range(trials):
        psi = base
        for record_ix, correction in corrections:
            outcome, psi, _ = measure_qubit(psi, record_ix, rng)
            if outcome == 1:
                psi = apply_gate(psi, correction)
        outputs[k] = reduced_density_matrix(psi, [output_ix])
    return outputs


def sample_trajectories(
    circuit: Circuit,
    input_label: str,
    output_label: str,
    psi_in: np.ndarray,
    trials: int,
    seed: int | np.random.Generator,
) -> np.ndarray:
    """Measure-and-correct execution of a scheme circuit, one run per trajectory.

    The deferred correction gates are removed; their control qubits are
    measured instead and the X/Z corrections applied on the measured-1
    outcomes.  Returns the per-trajectory output density matrices, shape
    ``(trials, 2, 2)``; their mean estimates the channel output for
    ``psi_in``.  ``seed`` is a non-negative integer or a
    ``np.random.Generator``; a generator is drawn from as is, so its state
    advances.  Anything else raises :class:`OutOfRange` before any draw.
    """
    setup = _sampler_setup(circuit, input_label, output_label, psi_in, trials)
    return _draw_trajectories(*setup, trials, _generator(seed))


def sample_mixed_trajectories(
    circuit_ind: Circuit,
    circuit_com: Circuit,
    t: float,
    input_label: str,
    output_label: str,
    psi_in: np.ndarray,
    trials: int,
    seed: int | np.random.Generator,
) -> np.ndarray:
    """Trajectory sampling of the mixed scheme: each run picks a sub-scheme.

    With probability ``t`` a trajectory executes the independent-trigger
    circuit, otherwise the common-trigger circuit.
    """
    check_unit_interval("mixing weight t", t)
    setups = [_sampler_setup(c, input_label, output_label, psi_in, trials) for c in (circuit_ind, circuit_com)]
    rng = _generator(seed)  # drawn from only once both circuits and the seed are checked
    picks = rng.random(trials) < t
    outputs = np.empty((trials, 2, 2), dtype=complex)
    for setup, chosen in zip(setups, (picks, ~picks)):
        if chosen.any():
            outputs[chosen] = _draw_trajectories(*setup, int(chosen.sum()), rng)
    return outputs
