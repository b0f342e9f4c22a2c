import math
from functools import reduce

import numpy as np
import pytest

from bellbidir.errors import BadIndex, BadLabel
from bellbidir.sim import (
    CCNOT,
    CNOT,
    CZ,
    Circuit,
    Gate,
    H,
    X,
    Z,
    apply_gate,
    bell_state,
    bloch_state,
    measure_qubit,
    reduced_density_matrix,
    run_circuit,
)

KET0 = np.array([1.0, 0.0], dtype=complex)
KET1 = np.array([0.0, 1.0], dtype=complex)

_MATS = {
    "H": np.array([[1.0, 1.0], [1.0, -1.0]]) / math.sqrt(2),
    "X": np.array([[0.0, 1.0], [1.0, 0.0]]),
    "Z": np.diag([1.0, -1.0]),
}
_P0 = np.diag([1.0, 0.0])
_P1 = np.diag([0.0, 1.0])


def full_unitary(gate: Gate, n: int) -> np.ndarray:
    """Independent dense construction: explicit Kronecker factors, qubit 0 leftmost."""

    def chain(factors):
        return reduce(np.kron, factors)

    eye = [np.eye(2)] * n
    if gate.kind in _MATS:
        factors = list(eye)
        factors[gate.qubits[0]] = _MATS[gate.kind]
        return chain(factors)
    if gate.kind in ("CNOT", "CZ"):
        c, t = gate.qubits
        active = _MATS["X"] if gate.kind == "CNOT" else _MATS["Z"]
        idle, fired = list(eye), list(eye)
        idle[c] = _P0
        fired[c] = _P1
        fired[t] = active
        return chain(idle) + chain(fired)
    total = np.zeros((2**n, 2**n))
    c1, c2, t = gate.qubits
    for a in (0, 1):
        for b in (0, 1):
            factors = list(eye)
            factors[c1] = _P1 if a else _P0
            factors[c2] = _P1 if b else _P0
            if a and b:
                factors[t] = _MATS["X"]
            total += chain(factors)
    return total


def random_state(n, rng):
    psi = rng.normal(size=2**n) + 1j * rng.normal(size=2**n)
    return psi / np.linalg.norm(psi)


def random_gate(n, rng):
    kind = rng.choice(["H", "X", "Z", "CZ", "CNOT", "CCNOT"])
    arity = {"H": 1, "X": 1, "Z": 1, "CZ": 2, "CNOT": 2, "CCNOT": 3}[kind]
    qubits = tuple(rng.choice(n, size=arity, replace=False))
    return Gate(kind, qubits)


def test_bell_state_amplitudes():
    s = 1 / math.sqrt(2)
    assert np.allclose(bell_state(), [s, 0.0, 0.0, s])
    assert abs(np.vdot(bell_state(), bell_state()) - 1.0) <= 1e-12


def test_bloch_state_poles_and_equator():
    assert np.allclose(bloch_state(0.0), KET0)
    assert np.allclose(bloch_state(math.pi), KET1, atol=1e-15)
    assert np.allclose(bloch_state(math.pi / 2), [1 / math.sqrt(2), 1 / math.sqrt(2)])


def test_apply_gate_basics():
    plus = (KET0 + KET1) / math.sqrt(2)
    assert np.allclose(apply_gate(KET0, H(0)), plus)
    ket10 = np.kron(KET1, KET0)
    ket11 = np.kron(KET1, KET1)
    assert np.allclose(apply_gate(ket10, CNOT(0, 1)), ket11)
    ket110 = np.kron(ket11, KET0)
    ket111 = np.kron(ket11, KET1)
    assert np.allclose(apply_gate(ket110, CCNOT(0, 1, 2)), ket111)
    assert np.allclose(apply_gate(KET1, Z(0)), -KET1)
    assert np.allclose(apply_gate(ket11, CZ(0, 1)), -ket11)
    assert np.allclose(apply_gate(KET0, X(0)), KET1)


def test_apply_gate_leaves_input_untouched():
    psi = KET0.copy()
    apply_gate(psi, X(0))
    assert np.array_equal(psi, KET0)


def test_apply_gate_bad_index():
    with pytest.raises(BadIndex):
        apply_gate(KET0, Gate("CNOT", (0, 1)))


def test_gate_validation():
    with pytest.raises(ValueError):
        Gate("H", (0, 1))
    with pytest.raises(BadIndex):
        Gate("CNOT", (1, 1))
    with pytest.raises(ValueError):
        Gate("SWAP", (0, 1))


def test_gates_are_involutions():
    rng = np.random.default_rng(2)
    for _ in range(40):
        gate = random_gate(3, rng)
        psi = random_state(3, rng)
        twice = apply_gate(apply_gate(psi, gate), gate)
        assert np.abs(twice - psi).max() <= 1e-12


def test_apply_gate_matches_explicit_unitaries():
    rng = np.random.default_rng(9)
    for _ in range(60):
        gate = random_gate(3, rng)
        psi = random_state(3, rng)
        expected = full_unitary(gate, 3) @ psi
        assert np.abs(apply_gate(psi, gate) - expected).max() <= 1e-12


def test_run_circuit_empty_and_involution():
    circuit = Circuit(1, ("q",), ())
    assert np.allclose(run_circuit(circuit, KET0), KET0)
    circuit = Circuit(1, ("q",), (H(0), H(0)))
    assert np.abs(run_circuit(circuit, KET0) - KET0).max() <= 1e-12


def test_run_circuit_bell_preparation():
    circuit = Circuit(2, ("a", "b"), (H(0), CNOT(0, 1)))
    out = run_circuit(circuit, np.kron(KET0, KET0))
    assert np.abs(out - bell_state()).max() <= 1e-12


def test_run_circuit_norm_preserved_on_random_circuits():
    rng = np.random.default_rng(31)
    for _ in range(25):
        gates = tuple(random_gate(4, rng) for _ in range(30))
        circuit = Circuit(4, tuple(f"q{i}" for i in range(4)), gates)
        out = run_circuit(circuit, random_state(4, rng))
        assert abs(np.linalg.norm(out) - 1.0) <= 1e-10


def test_circuit_validation_and_labels():
    with pytest.raises(ValueError):
        Circuit(2, ("a", "a"), ())
    with pytest.raises(BadIndex):
        Circuit(1, ("a",), (CNOT(0, 1),))
    circuit = Circuit(2, ("a", "b"), ())
    assert circuit.index("b") == 1
    with pytest.raises(BadLabel):
        circuit.index("c")
    with pytest.raises(BadLabel):
        Circuit(1, ("a",), (), prep={"b": KET0})
    with pytest.raises(ValueError):
        Circuit(1, ("a",), (), prep={"a": np.array([1.0, 1.0])})
    with pytest.raises(ValueError):
        Circuit(1, ("a",), (), prep={"a": np.array([math.nan, 0.0])})
    with pytest.raises(ValueError):
        run_circuit(circuit, np.array([1.0, 1.0, 0.0, 0.0]))


def test_circuit_initial_state_with_prep():
    circuit = Circuit(2, ("a", "b"), (), prep={"b": KET1})
    assert np.allclose(circuit.initial_state(), np.kron(KET0, KET1))


def test_measure_deterministic():
    rng = np.random.default_rng(0)
    outcome, collapsed, prob = measure_qubit(KET0, 0, rng)
    assert outcome == 0 and prob == 1.0
    assert np.allclose(collapsed, KET0)


def test_measure_bell_correlations():
    rng = np.random.default_rng(12)
    for _ in range(50):
        first, collapsed, p = measure_qubit(bell_state(), 0, rng)
        assert abs(p - 0.5) <= 1e-12
        second, _, p2 = measure_qubit(collapsed, 1, rng)
        assert second == first
        assert abs(p2 - 1.0) <= 1e-12


def test_measure_statistics_three_sigma():
    theta = 2 * math.asin(math.sqrt(0.3))
    psi = bloch_state(theta)
    rng = np.random.default_rng(99)
    trials = 100_000
    ones = sum(measure_qubit(psi, 0, rng)[0] for _ in range(trials))
    stderr = math.sqrt(0.3 * 0.7 / trials)
    assert abs(ones / trials - 0.3) <= 3 * stderr


def test_measure_bad_index():
    with pytest.raises(BadIndex):
        measure_qubit(KET0, 1, np.random.default_rng(0))


def test_measure_zero_norm_state():
    from bellbidir.errors import ZeroNorm

    with pytest.raises(ZeroNorm):
        measure_qubit(np.zeros(2, dtype=complex), 0, np.random.default_rng(0))


def test_reduced_density_matrix_orders_like_keep():
    psi = np.kron(KET0, bloch_state(1.0))
    rho_b = reduced_density_matrix(psi, [1])
    assert np.abs(rho_b - np.outer(bloch_state(1.0), bloch_state(1.0).conj())).max() <= 1e-12
    swapped = reduced_density_matrix(psi, [1, 0])
    direct = reduced_density_matrix(np.kron(bloch_state(1.0), KET0), [0, 1])
    assert np.abs(swapped - direct).max() <= 1e-12
