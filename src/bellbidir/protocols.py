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

import math
from dataclasses import dataclass

import numpy as np

from .errors import BadChannelState, BadIndex, BadLabel, OutOfRange, check_unit_interval
from .linalg import max_abs, partial_trace
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
)

A_TO_B = "ab"
B_TO_A = "ba"
DIRECTIONS = (A_TO_B, B_TO_A)

_BASE_LABELS = ("Q_A", "C_A", "C_B", "Q_B", "M_A1", "M_A2", "M_B1", "M_B2")
INDEPENDENT_LABELS = _BASE_LABELS + ("T_A", "T_B")
COMMON_LABELS = _BASE_LABELS + ("T",)

# Measurement-record qubit -> (correction gate kind, corrected qubit).
# M1 holds the copy of the C qubit and drives the X correction; M2 holds the
# copy of the Q qubit and drives the Z correction, applied after the X.
_CORRECTIONS = (
    ("M_A1", "CNOT", "C_B"),
    ("M_A2", "CZ", "C_B"),
    ("M_B1", "CNOT", "C_A"),
    ("M_B2", "CZ", "C_A"),
)

_KET0 = np.array([1.0, 0.0], dtype=complex)


@dataclass(frozen=True)
class SchemeParams:
    """Trigger angles and mixing weight; probabilities are sin^2(angle/2)."""

    theta1: float = math.pi / 2
    theta2: float = math.pi / 2
    theta: float = math.pi / 2
    t: float = 0.0

    def __post_init__(self):
        angles = (self.theta1, self.theta2, self.theta)
        if not all(map(math.isfinite, angles)):
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
        for name, value in (("p1", p1), ("p2", p2), ("p", p)):
            check_unit_interval(name, value)
        angle = lambda prob: 2.0 * math.asin(math.sqrt(prob))
        return cls(theta1=angle(p1), theta2=angle(p2), theta=angle(p), t=t)


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


def _correction_gates(circuit_labels: tuple[str, ...]) -> list[Gate]:
    index = {label: i for i, label in enumerate(circuit_labels)}
    gates = []
    for source, kind, target in _CORRECTIONS:
        gates.append(Gate(kind, (index[source], index[target])))
    return gates


def build_scheme_independent(params: SchemeParams) -> Circuit:
    """Both parties act under their own trigger angles theta1 and theta2."""
    labels = INDEPENDENT_LABELS
    ix = {label: i for i, label in enumerate(labels)}
    gates = [H(ix["C_A"]), CNOT(ix["C_A"], ix["C_B"])]
    gates += build_indirect_bell_block(ix["Q_A"], ix["C_A"], ix["T_A"], ix["M_A1"], ix["M_A2"])
    gates += build_indirect_bell_block(ix["Q_B"], ix["C_B"], ix["T_B"], ix["M_B1"], ix["M_B2"])
    gates += _correction_gates(labels)
    prep = {"T_A": bloch_state(params.theta1), "T_B": bloch_state(params.theta2)}
    return Circuit(len(labels), labels, tuple(gates), prep)


def build_scheme_common(params: SchemeParams) -> Circuit:
    """One shared trigger, inverted between the parties, so one side fires."""
    labels = COMMON_LABELS
    ix = {label: i for i, label in enumerate(labels)}
    gates = [H(ix["C_A"]), CNOT(ix["C_A"], ix["C_B"])]
    gates += build_indirect_bell_block(ix["Q_A"], ix["C_A"], ix["T"], ix["M_A1"], ix["M_A2"])
    gates.append(X(ix["T"]))
    gates += build_indirect_bell_block(ix["Q_B"], ix["C_B"], ix["T"], ix["M_B1"], ix["M_B2"])
    gates += _correction_gates(labels)
    prep = {"T": bloch_state(params.theta)}
    return Circuit(len(labels), labels, tuple(gates), prep)


def channel_endpoints(direction: str) -> tuple[str, str]:
    """Input and output qubit labels for a channel direction."""
    if direction == A_TO_B:
        return "Q_A", "C_B"
    if direction == B_TO_A:
        return "Q_B", "C_A"
    raise ValueError(f"direction must be one of {DIRECTIONS}, got {direction!r}")


def _validate_choi(choi: np.ndarray) -> None:
    if max_abs(choi - choi.conj().T) > 1e-10:
        raise BadChannelState("extracted state is not Hermitian")
    if abs(np.trace(choi).real - 1.0) > 1e-10:
        raise BadChannelState("extracted state does not have unit trace")
    if np.linalg.eigvalsh(choi).min() < -1e-10:
        raise BadChannelState("extracted state is not positive semidefinite")
    reduced_ref = partial_trace(choi, 2, [0])
    if max_abs(reduced_ref - np.eye(2) / 2) > 1e-10:
        raise BadChannelState("reference marginal is not maximally mixed: channel not trace preserving")


def extract_choi(circuit: Circuit, input_label: str, output_label: str) -> np.ndarray:
    """Channel state on (reference, output) for the map input -> output.

    An extra reference qubit R is appended to the register and Bell-paired
    with the input qubit; after running the circuit, everything except
    (R, output) is traced out.  The reference is the first tensor factor of
    the returned 4x4 density matrix.
    """
    input_ix = circuit.index(input_label)
    output_ix = circuit.index(output_label)
    if input_label in circuit.prep:
        raise BadLabel(f"input qubit {input_label!r} has a fixed preparation; it must start in |0>")
    ref = circuit.num_qubits
    extended = Circuit(
        circuit.num_qubits + 1,
        circuit.labels + ("R",),
        (H(ref), CNOT(ref, input_ix)) + circuit.gates,
        circuit.prep,
    )
    initial = np.kron(circuit.initial_state(), _KET0)
    final = run_circuit(extended, initial)
    choi = reduced_density_matrix(final, [ref, output_ix])
    _validate_choi(choi)
    return choi


def choi_mixed(t: float, choi_ind: np.ndarray, choi_com: np.ndarray) -> np.ndarray:
    """Convex mixture t * independent + (1 - t) * common of two channel states."""
    check_unit_interval("mixing weight t", t)
    return t * np.asarray(choi_ind) + (1.0 - t) * np.asarray(choi_com)


def apply_channel_from_choi(choi: np.ndarray, rho_in: np.ndarray) -> np.ndarray:
    """Reconstruct the channel action on a qubit state from its channel state."""
    rho_in = np.asarray(rho_in, dtype=complex)
    if rho_in.shape != (2, 2):
        raise ValueError(f"input must be a 2x2 density matrix, got {rho_in.shape}")
    blocks = np.asarray(choi, dtype=complex).reshape(2, 2, 2, 2)
    return 2.0 * np.einsum("ca,cqas->qs", rho_in, blocks)


def _strip_corrections(circuit: Circuit) -> tuple[Circuit, list[tuple[int, str, int]]]:
    """Split a scheme circuit into its unitary part and the deferred corrections."""
    m_qubits = {circuit.index(label) for label in circuit.labels if label.startswith("M_")}
    pre, corrections = [], []
    for gate in circuit.gates:
        if gate.kind in ("CNOT", "CZ") and gate.qubits[0] in m_qubits:
            kind = "X" if gate.kind == "CNOT" else "Z"
            corrections.append((gate.qubits[0], kind, gate.qubits[1]))
        else:
            pre.append(gate)
    stripped = Circuit(circuit.num_qubits, circuit.labels, tuple(pre), circuit.prep)
    return stripped, corrections


def _trajectories(circuit, input_label, output_label, psi_in, trials, rng):
    circuit.index(input_label)
    output_ix = circuit.index(output_label)
    stripped, corrections = _strip_corrections(circuit)
    prepared = Circuit(stripped.num_qubits, stripped.labels, stripped.gates, {**stripped.prep, input_label: psi_in})
    base = run_circuit(prepared, prepared.initial_state())
    outputs = np.empty((trials, 2, 2), dtype=complex)
    for k in range(trials):
        psi = base
        for record_ix, kind, target_ix in corrections:
            outcome, psi, _ = measure_qubit(psi, record_ix, rng)
            if outcome == 1:
                psi = apply_gate(psi, Gate(kind, (target_ix,)))
        outputs[k] = reduced_density_matrix(psi, [output_ix])
    return outputs


def sample_trajectories(
    circuit: Circuit,
    input_label: str,
    output_label: str,
    psi_in: np.ndarray,
    trials: int,
    seed: int,
) -> np.ndarray:
    """Measure-and-correct execution of a scheme circuit, one run per trajectory.

    The deferred correction gates are removed; their control qubits are
    measured instead and the X/Z corrections applied on the measured-1
    outcomes.  Returns the per-trajectory output density matrices, shape
    ``(trials, 2, 2)``; their mean estimates the channel output for
    ``psi_in``.
    """
    rng = np.random.default_rng(seed)
    return _trajectories(circuit, input_label, output_label, psi_in, trials, rng)


def sample_mixed_trajectories(
    circuit_ind: Circuit,
    circuit_com: Circuit,
    t: float,
    input_label: str,
    output_label: str,
    psi_in: np.ndarray,
    trials: int,
    seed: int,
) -> np.ndarray:
    """Trajectory sampling of the mixed scheme: each run picks a sub-scheme.

    With probability ``t`` a trajectory executes the independent-trigger
    circuit, otherwise the common-trigger circuit.
    """
    check_unit_interval("mixing weight t", t)
    rng = np.random.default_rng(seed)
    picks = rng.random(trials) < t
    n_ind = int(picks.sum())
    outputs = np.empty((trials, 2, 2), dtype=complex)
    if n_ind:
        outputs[picks] = _trajectories(circuit_ind, input_label, output_label, psi_in, n_ind, rng)
    if trials - n_ind:
        outputs[~picks] = _trajectories(circuit_com, input_label, output_label, psi_in, trials - n_ind, rng)
    return outputs
