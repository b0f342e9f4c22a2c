"""Pure-state simulator for the protocol's gate set.

Convention: qubit 0 is the most significant bit of the amplitude index, so
``state.reshape([2] * n)`` exposes qubit ``k`` on axis ``k`` and the first
label of a :class:`Circuit` is the leftmost tensor factor.

Gates are applied by slicing the amplitude array, never by building the
full register unitary; the closed gate set {H, X, Z, CZ, CNOT, CCNOT}
consists entirely of involutions.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import BadIndex, BadLabel, ZeroNorm

GATE_ARITY = {"H": 1, "X": 1, "Z": 1, "CZ": 2, "CNOT": 2, "CCNOT": 3}

_INV_SQRT2 = 1.0 / math.sqrt(2.0)
_KET0 = np.array([1.0, 0.0], dtype=complex)


@dataclass(frozen=True)
class Gate:
    """A single gate application; controls precede the target in ``qubits``."""

    kind: str
    qubits: tuple[int, ...]

    def __post_init__(self):
        if self.kind not in GATE_ARITY:
            raise ValueError(f"unknown gate kind {self.kind!r}")
        qubits = tuple(int(q) for q in self.qubits)
        object.__setattr__(self, "qubits", qubits)
        if len(qubits) != GATE_ARITY[self.kind]:
            raise ValueError(f"{self.kind} takes {GATE_ARITY[self.kind]} qubits, got {qubits}")
        if any(q < 0 for q in qubits):
            raise BadIndex(f"negative qubit index in {qubits}")
        if len(set(qubits)) != len(qubits):
            raise BadIndex(f"repeated qubit index in {qubits}")


def H(q: int) -> Gate:
    return Gate("H", (q,))


def X(q: int) -> Gate:
    return Gate("X", (q,))


def Z(q: int) -> Gate:
    return Gate("Z", (q,))


def CZ(control: int, target: int) -> Gate:
    return Gate("CZ", (control, target))


def CNOT(control: int, target: int) -> Gate:
    return Gate("CNOT", (control, target))


def CCNOT(control1: int, control2: int, target: int) -> Gate:
    return Gate("CCNOT", (control1, control2, target))


@dataclass(frozen=True)
class Circuit:
    """Ordered gate list over a register of labeled qubits.

    ``prep`` optionally assigns a single-qubit state to a label; unlisted
    qubits start in |0>.  This covers preparations (trigger angles) that the
    closed gate set cannot express.
    """

    num_qubits: int
    labels: tuple[str, ...]
    gates: tuple[Gate, ...]
    prep: dict[str, np.ndarray] = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "labels", tuple(self.labels))
        object.__setattr__(self, "gates", tuple(self.gates))
        if len(self.labels) != self.num_qubits:
            raise ValueError(f"{self.num_qubits} qubits but {len(self.labels)} labels")
        if len(set(self.labels)) != len(self.labels):
            raise ValueError("qubit labels must be unique")
        for gate in self.gates:
            if any(q >= self.num_qubits for q in gate.qubits):
                raise BadIndex(f"gate {gate} exceeds register of {self.num_qubits} qubits")
        for label, state in self.prep.items():
            if label not in self.labels:
                raise BadLabel(f"prepared qubit {label!r} not in register")
            state = np.asarray(state, dtype=complex)
            if state.shape != (2,) or not abs(np.linalg.norm(state) - 1.0) <= 1e-10:
                raise ValueError(f"preparation for {label!r} is not a normalized single-qubit state")

    def index(self, label: str) -> int:
        try:
            return self.labels.index(label)
        except ValueError:
            raise BadLabel(f"no qubit labeled {label!r}") from None

    def initial_state(self) -> np.ndarray:
        """Product state of all per-qubit preparations (|0> where unlisted)."""
        state = np.ones(1, dtype=complex)
        for label in self.labels:
            factor = np.asarray(self.prep.get(label, _KET0), dtype=complex)
            state = np.kron(state, factor)
        return state


def bell_state() -> np.ndarray:
    """The maximally entangled pair (|00> + |11>)/sqrt(2)."""
    return np.array([_INV_SQRT2, 0.0, 0.0, _INV_SQRT2], dtype=complex)


def bloch_state(theta: float, phi: float = 0.0) -> np.ndarray:
    """Pure qubit state cos(theta/2)|0> + e^{i phi} sin(theta/2)|1>."""
    return np.array([math.cos(theta / 2), np.exp(1j * phi) * math.sin(theta / 2)], dtype=complex)


def num_qubits_of(state: np.ndarray) -> int:
    size = len(state)
    n = size.bit_length() - 1
    if size < 2 or 2**n != size:
        raise ValueError(f"state length {size} is not a power of two >= 2")
    return n


def _ix(n: int, fixed: dict[int, int]) -> tuple:
    ix: list = [slice(None)] * n
    for axis, value in fixed.items():
        ix[axis] = value
    return tuple(ix)


def apply_gate(state: np.ndarray, gate: Gate) -> np.ndarray:
    """Return the state with one gate applied (the input is left untouched)."""
    n = num_qubits_of(state)
    for q in gate.qubits:
        if q >= n:
            raise BadIndex(f"qubit {q} out of range for {n}-qubit state")
    psi = np.array(state, dtype=complex).reshape([2] * n)
    kind = gate.kind
    if kind == "H":
        (q,) = gate.qubits
        a0 = psi[_ix(n, {q: 0})].copy()
        a1 = psi[_ix(n, {q: 1})]
        psi[_ix(n, {q: 0})] = (a0 + a1) * _INV_SQRT2
        psi[_ix(n, {q: 1})] = (a0 - a1) * _INV_SQRT2
    elif kind in ("Z", "CZ"):
        psi[_ix(n, dict.fromkeys(gate.qubits, 1))] *= -1.0
    else:  # X, CNOT, CCNOT: swap the target's 0 and 1 amplitudes where every control is 1
        *controls, t = gate.qubits
        lo = _ix(n, {**dict.fromkeys(controls, 1), t: 0})
        hi = _ix(n, {**dict.fromkeys(controls, 1), t: 1})
        a0 = psi[lo].copy()
        psi[lo] = psi[hi]
        psi[hi] = a0
    return psi.reshape(-1)


def run_circuit(circuit: Circuit, state: np.ndarray) -> np.ndarray:
    """Apply all gates of the circuit in order to a full-register state."""
    state = np.asarray(state, dtype=complex)
    if len(state) != 2**circuit.num_qubits:
        raise ValueError(f"state length {len(state)} does not match {circuit.num_qubits} qubits")
    for gate in circuit.gates:
        state = apply_gate(state, gate)
    if not abs(np.linalg.norm(state) - 1.0) < 1e-10:
        raise ValueError(f"statevector norm {np.linalg.norm(state)} differs from 1")
    return state


def measure_qubit(state: np.ndarray, index: int, rng: np.random.Generator) -> tuple[int, np.ndarray, float]:
    """Projectively measure one qubit in the computational basis.

    Returns ``(outcome, collapsed_state, probability_of_that_outcome)``; the
    collapsed state is renormalized.
    """
    n = num_qubits_of(state)
    if not 0 <= index < n:
        raise BadIndex(f"qubit {index} out of range for {n}-qubit state")
    psi = np.asarray(state, dtype=complex).reshape([2] * n)
    if np.sum(np.abs(psi) ** 2) < 1e-15:
        raise ZeroNorm("cannot measure a zero-norm state")
    p1 = float(np.sum(np.abs(psi[_ix(n, {index: 1})]) ** 2))
    p1 = min(max(p1, 0.0), 1.0)
    outcome = 1 if rng.random() < p1 else 0
    prob = p1 if outcome == 1 else 1.0 - p1
    if prob < 1e-15:
        raise ZeroNorm(f"outcome {outcome} on qubit {index} has vanishing probability")
    collapsed = psi.copy()
    collapsed[_ix(n, {index: 1 - outcome})] = 0.0
    return outcome, (collapsed / math.sqrt(prob)).reshape(-1), prob


def reduced_density_matrix(state: np.ndarray, keep: list[int]) -> np.ndarray:
    """Density matrix of the kept qubits of a pure state, in the order listed."""
    n = num_qubits_of(state)
    keep = [int(k) for k in keep]
    if len(set(keep)) != len(keep):
        raise BadIndex(f"repeated qubit index in keep={keep}")
    if any(not 0 <= k < n for k in keep):
        raise BadIndex(f"qubit index out of range in keep={keep}")
    rest = [i for i in range(n) if i not in keep]
    psi = np.asarray(state, dtype=complex).reshape([2] * n)
    psi = psi.transpose(keep + rest).reshape(2 ** len(keep), -1)
    return psi @ psi.conj().T
