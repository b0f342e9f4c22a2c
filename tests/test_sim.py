import math
from functools import reduce

import numpy as np
import pytest
from dense import oracle_apply_gate, oracle_reduced_density_matrix

from bellbidir.errors import BadIndex, BadLabel, BadMatrix, OutOfRange, ZeroNorm
from bellbidir.linalg import partial_trace
from bellbidir.sim import (
    CCNOT,
    CNOT,
    GATE_ARITY,
    Circuit,
    Gate,
    H,
    X,
    bell_state,
    bloch_state,
    measure_qubit,
    run_circuit,
    run_reduced,
)

KET0 = np.array([1.0, 0.0], dtype=complex)
KET1 = np.array([0.0, 1.0], dtype=complex)
BELL = Circuit(2, ("a", "b"), (H(0), CNOT(0, 1)))

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


def test_bloch_state_takes_one_real_number_per_angle():
    # each angle follows the real-number rule of every other parameter, and is one number
    for angles in (("a",), (1.0, "0.5"), (None,), (1j,), (1.0, 1 + 0j)):
        with pytest.raises(OutOfRange, match=r"^(theta|phi)=.* is not a real number$"):
            bloch_state(*angles)
    for angles in (([0.1, 0.2],), (1.0, np.zeros(2))):
        with pytest.raises(OutOfRange, match=r"^bloch_state takes one real number per angle, got theta="):
            bloch_state(*angles)
    for theta, phi in ((True, 0), (np.int64(1), np.float32(0.5)), (np.float64(1.1), np.array(0.6))):  # these pass
        assert np.array_equal(bloch_state(theta, phi), bloch_state(float(theta), float(phi)))


def test_bloch_state_takes_only_finite_angles():
    # a non-finite angle is out of range, as a trigger angle of SchemeParams is: no math error, no NaN amplitudes
    for bad in (math.inf, -math.inf, math.nan, np.float32(math.inf), np.float64(math.nan)):
        for angles in ((bad,), (bad, 0.4), (1.1, bad)):
            with pytest.raises(OutOfRange, match=r"^bloch_state's angles must be finite, got theta="):
                bloch_state(*angles)


def one_gate(state, gate):
    """``run_circuit`` of the one-gate circuit on the register, or each register of a stack, ``state``."""
    n = state.shape[-1].bit_length() - 1
    return run_circuit(Circuit(n, tuple(f"q{i}" for i in range(n)), (gate,)), state)


def test_one_gate_circuit_basics():
    plus = (KET0 + KET1) / math.sqrt(2)
    assert np.allclose(one_gate(KET0, H(0)), plus)
    ket10 = np.kron(KET1, KET0)
    ket11 = np.kron(KET1, KET1)
    assert np.allclose(one_gate(ket10, CNOT(0, 1)), ket11)
    ket110 = np.kron(ket11, KET0)
    ket111 = np.kron(ket11, KET1)
    assert np.allclose(one_gate(ket110, CCNOT(0, 1, 2)), ket111)
    assert np.allclose(one_gate(KET1, Gate("Z", (0,))), -KET1)
    assert np.allclose(one_gate(ket11, Gate("CZ", (0, 1))), -ket11)
    assert np.allclose(one_gate(KET0, X(0)), KET1)


def test_one_gate_circuit_leaves_input_untouched():
    psi = KET0.copy()
    one_gate(psi, X(0))
    assert np.array_equal(psi, KET0)


def test_gate_validation():
    # a gate checks its kind and arity; its circuit checks its indices by the rule every kernel applies, before any
    # run, so a repeated or negative index fails there and a negative one never wraps round to the last qubit
    with pytest.raises(ValueError):
        Gate("H", (0, 1))
    with pytest.raises(ValueError):
        Gate("SWAP", (0, 1))
    for gate in (Gate("CNOT", (1, 1)), CCNOT(0, 2, 0), X(-1), Gate("CZ", (0, -3)), X(3)):
        with pytest.raises(BadIndex, match=r"^qubits \[.*\] are not distinct indices of the 3-qubit register$"):
            Circuit(3, ("a", "b", "c"), (H(0), gate))


def test_gates_are_involutions():
    rng = np.random.default_rng(2)
    for _ in range(40):
        gate = random_gate(3, rng)
        psi = random_state(3, rng)
        twice = one_gate(one_gate(psi, gate), gate)
        assert np.abs(twice - psi).max() <= 1e-12


def test_one_gate_circuit_matches_explicit_unitaries():
    rng = np.random.default_rng(9)
    for _ in range(60):
        gate = random_gate(3, rng)
        psi = random_state(3, rng)
        expected = full_unitary(gate, 3) @ psi
        assert np.abs(one_gate(psi, gate) - expected).max() <= 1e-12
    for kind, arity in GATE_ARITY.items():  # every kind, whatever the draws above gave
        gate = Gate(kind, tuple(int(q) for q in rng.choice(3, arity, replace=False)))
        psi = random_state(3, rng)
        assert np.abs(one_gate(psi, gate) - full_unitary(gate, 3) @ psi).max() <= 1e-12


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


def test_run_circuit_on_a_stack_equals_single_runs():
    rng = np.random.default_rng(5)
    gates = tuple(random_gate(5, rng) for _ in range(40))
    circuit = Circuit(5, tuple(f"q{i}" for i in range(5)), gates)
    stack = np.array([random_state(5, rng) for _ in range(6)])
    out = run_circuit(circuit, stack)
    assert out.shape == (6, 32)
    assert np.array_equal(out, np.array([run_circuit(circuit, psi) for psi in stack]))
    assert np.array_equal(one_gate(stack, gates[0]), np.array([one_gate(psi, gates[0]) for psi in stack]))
    thetas = [0.3, 1.9, 2.8]
    prep = lambda ket: Circuit(1, ("q2",), (), {"q2": ket}).prep
    rdm = run_reduced(circuit, [3, 0], prep(np.array([bloch_state(th) for th in thetas])))
    singles = [run_reduced(circuit, [3, 0], prep(bloch_state(th))) for th in thetas]
    assert rdm.shape == (3, 4, 4) and np.array_equal(rdm, np.array(singles))
    stack[4] *= 1.5
    with pytest.raises(ValueError, match="state 4 of the stack"):
        run_circuit(circuit, stack)


def test_stacked_prep_gives_a_stack_of_registers():
    thetas = [0.0, 0.9, 2.2]
    stacked = Circuit(3, ("a", "t", "b"), (), {"t": np.array([bloch_state(th) for th in thetas]), "b": KET1})
    singles = [Circuit(3, ("a", "t", "b"), (), {"t": bloch_state(th), "b": KET1}) for th in thetas]
    assert np.array_equal(stacked.initial_state(), np.array([c.initial_state() for c in singles]))
    bad = np.array([KET0, KET1, [1.0, 1.0], [math.nan, 0.0]])
    with pytest.raises(ValueError, match="state 2 of the stack"):
        Circuit(1, ("a",), (), prep={"a": bad})
    with pytest.raises(ValueError, match=r"do not broadcast.*'a': \(2,\), 'b': \(3,\)") as unbroadcastable:
        Circuit(2, ("a", "b"), (), prep={"a": np.array([KET0, KET1]), "b": np.array([KET0, KET1, KET0])})
    assert unbroadcastable.type is OutOfRange  # from errors.py, as every other array input's failure
    with pytest.raises(ValueError, match=r"'t': \(2, 1\), 'b': \(\), 'a': \(3, 2\)"):
        Circuit(3, ("a", "t", "b"), (), prep={"t": np.tile(KET1, (2, 1, 1)), "b": KET0, "a": np.tile(KET0, (3, 2, 1))})


def test_circuit_rejects_an_empty_prep_stack():
    # the builders reject an empty row of points with OutOfRange; a hand-built empty stack fails the same way
    from bellbidir.protocols import SchemeParams, build_scheme_independent

    scheme = build_scheme_independent(SchemeParams())
    for label, shape in (("T_A", (0, 2)), ("Q_A", (3, 0, 2)), ("T_B", (0, 1, 2))):
        with pytest.raises(OutOfRange, match=rf"stack for '{label}' is empty, shape \({shape[0]}, "):
            Circuit(scheme.num_qubits, scheme.labels, scheme.gates, {**scheme.prep, label: np.zeros(shape)})


def outer_product(factors):
    """Broadcast outer product of single-qubit states or stacks of them, the first factor most significant."""
    state = np.ones(1)
    for factor in factors:
        state = state[..., :, None] * np.asarray(factor)[..., None, :]
        state = state.reshape(*state.shape[:-2], -1)
    return state


def bits(state):
    """The IEEE bits of each amplitude's real and imaginary part, so that signed zeros count."""
    return np.asarray(state, dtype=complex)[..., None].view(np.uint64)


def test_initial_state_multiplies_only_the_prepared_factors():
    rng = np.random.default_rng(8)
    labels = ("a", "b", "c", "d", "e")
    real = lambda *angles: np.squeeze([bloch_state(theta) for theta in angles])  # complex dtype, no imaginary part
    phased = lambda *angles: np.squeeze([bloch_state(theta, phi) for theta, phi in zip(angles, rng.uniform(-7, 7, 9))])
    cases = [
        {"a": real(*rng.uniform(-7, 7, 4)), "e": real(-2.5)},  # a stack on the first label, one state on the last
        {"c": real(5.0)},
        {"b": real(4.4), "d": np.array([0.6, -0.8])},
        {"a": phased(*rng.uniform(-7, 7, 3)), "e": real(*rng.uniform(-7, 7, 3))},
        {"a": real(-4.0), "c": real(3.9), "e": phased(2.0)},
        {"b": phased(6.5), "d": phased(*rng.uniform(-7, 7, 2))[:, None]},  # stacks (2, 1) and () broadcast
        {},
    ]
    for prep in cases:
        circuit = Circuit(5, labels, (), prep)
        state = circuit.initial_state()
        as_prepared = {label: v if v.imag.any() else v.real for label, v in prep.items()}  # the dtype rule
        complex_prep = any(np.iscomplexobj(v) for v in as_prepared.values())
        assert state.dtype == (np.complex128 if complex_prep else np.float64)
        dense = outer_product([prep.get(label, KET0) for label in labels])  # every label, in complex128
        assert np.array_equal(state, dense)
        # bit for bit: the prepared amplitudes hold the product of the prepared factors in label order, and the
        # real dense chain when every factor is real; every other amplitude is +0.0 (the dense chain has -0.0
        # wherever the product is negative)
        got = bits(state).reshape(*state.shape[:-1], *[2] * 5, 2)
        prepared = (Ellipsis, *(slice(None) if label in prep else 0 for label in labels), slice(None))
        expected = bits(outer_product([as_prepared[label] for label in labels if label in prep]))
        assert np.array_equal(got[prepared].reshape(expected.shape), expected)
        if not complex_prep:
            real_dense = bits(outer_product([as_prepared.get(label, [1.0, 0.0]) for label in labels]))
            assert np.array_equal(got[prepared], real_dense.reshape(got.shape)[prepared])
        got[prepared] = 0
        assert not got.any()


def test_complex_preparation_keeps_its_imaginary_part():
    circuit = Circuit(3, ("a", "q", "b"), (H(0), CNOT(1, 2), Gate("Z", (2,))), {"q": bloch_state(1.1, 0.6), "b": KET1})
    state = circuit.initial_state()
    assert state.dtype == np.complex128
    assert np.array_equal(state.imag, outer_product([KET0, bloch_state(1.1, 0.6), KET1]).imag)
    out = run_circuit(circuit, state)
    assert out.dtype == np.complex128 and np.abs(out.imag).max() > 0.2
    reference = reduce(np.matmul, [full_unitary(gate, 3) for gate in reversed(circuit.gates)]) @ state
    assert np.abs(out - reference).max() <= 1e-12


def test_real_register_runs_bit_for_bit_like_its_complex_copy():
    rng = np.random.default_rng(13)
    for shape in ((), (5,)):
        for _ in range(20):
            gates = tuple(random_gate(5, rng) for _ in range(30))
            circuit = Circuit(5, tuple(f"q{i}" for i in range(5)), gates)
            psi = rng.normal(size=(*shape, 32))
            psi /= np.linalg.norm(psi, axis=-1, keepdims=True)
            real_run, complex_run = run_circuit(circuit, psi), run_circuit(circuit, psi.astype(complex))
            assert real_run.dtype == np.float64 and complex_run.dtype == np.complex128
            assert np.array_equal(bits(real_run)[..., 0], bits(complex_run)[..., 0])
            assert not complex_run.imag.any()
            real_gate = one_gate(psi, gates[0])
            assert real_gate.dtype == np.float64
            assert np.array_equal(bits(real_gate)[..., 0], bits(one_gate(psi.astype(complex), gates[0]))[..., 0])


def assert_runs_like_the_gate_chain(circuit, state):
    # the oracle is the dense one-gate update applied gate by gate; compared by value, because it leaves -0.0
    # where a Z or CZ hits an amplitude that the compact run never holds
    before = bits(state).copy()
    out = run_circuit(circuit, state)
    expected = reduce(oracle_apply_gate, circuit.gates, state)
    assert out.dtype == expected.dtype and out.shape == expected.shape
    assert np.array_equal(out, expected)
    assert np.array_equal(bits(state), before)


def test_run_circuit_equals_the_gate_chain_on_prepared_registers():
    rng = np.random.default_rng(41)
    labels = tuple(f"q{i}" for i in range(6))
    for trial in range(60):
        gates = tuple(random_gate(6, rng) for _ in range(rng.integers(1, 40)))
        prepared = rng.choice(labels, size=trial % 4, replace=False)
        states = [bloch_state(0.0), bloch_state(math.pi), bloch_state(1.3), bloch_state(0.8, 2.1)]
        prep = {label: states[rng.integers(4)] for label in prepared}  # bloch_state(0.0) has an exact zero
        circuit = Circuit(6, labels, gates, prep)
        assert_runs_like_the_gate_chain(circuit, circuit.initial_state())
        if prepared.size:  # a stack whose registers have different zero patterns
            stack = np.array([bloch_state(0.0), bloch_state(1.3), bloch_state(math.pi)])
            stacked = Circuit(6, labels, gates, {**prep, prepared[0]: stack})
            assert_runs_like_the_gate_chain(stacked, stacked.initial_state())


def test_run_circuit_equals_the_gate_chain_on_dense_and_sparse_inputs():
    rng = np.random.default_rng(43)
    for trial in range(40):
        gates = tuple(random_gate(5, rng) for _ in range(30))
        circuit = Circuit(5, tuple(f"q{i}" for i in range(5)), gates)
        shape = (4,) if trial % 2 else ()
        psi = rng.normal(size=(*shape, 32)) + (1j * rng.normal(size=(*shape, 32)) if trial % 4 > 1 else 0)
        psi[rng.random(psi.shape) < trial / 50] = 0.0  # zero patterns that differ across the stack
        psi[..., trial % 32] = 1.0
        psi /= np.linalg.norm(psi, axis=-1, keepdims=True)
        sparse = np.zeros_like(psi)
        sparse[..., [trial % 32, 31 - trial % 32]] = psi[..., [trial % 32, 31 - trial % 32]]
        sparse /= np.linalg.norm(sparse, axis=-1, keepdims=True)
        for state in (sparse, psi, sparse):  # one gate tuple, back to back on different supports
            assert_runs_like_the_gate_chain(circuit, state)


def test_run_circuit_h_keeps_the_signed_zeros_of_a_complex_register():
    # every amplitude is held, so the compact H steps must give the oracle's (a0 + a1, a0 - a1) bits exactly,
    # the signs of zero imaginary parts included; a few gates only, as more H steps turn those signs to +0
    rng = np.random.default_rng(19)
    labels = tuple(f"q{i}" for i in range(4))
    for shape in ((), (3,)):
        for trial in range(24):
            gates = (H(int(rng.integers(4))),) + tuple(random_gate(4, rng) for _ in range(trial % 3))
            real = rng.uniform(0.5, 1.0, (*shape, 16)) * rng.choice([-1.0, 1.0], (*shape, 16))
            state = np.empty((*shape, 16), dtype=complex)
            state.real = real / np.linalg.norm(real, axis=-1, keepdims=True)
            state.imag = rng.choice([-0.0, 0.0], (*shape, 16))
            out = run_circuit(Circuit(4, labels, gates), state)
            assert np.array_equal(bits(out), bits(reduce(oracle_apply_gate, gates, state)))


def test_run_circuit_rejects_a_zero_or_nan_register():
    circuit = Circuit(3, ("a", "b", "c"), (H(0), CNOT(0, 1), Gate("CZ", (1, 2))))
    nan = np.zeros(8)
    nan[[0, 5]] = 1.0, math.nan
    for state in (np.zeros(8), np.zeros(8, dtype=complex), nan, np.array([np.eye(8)[0], np.zeros(8)])):
        with pytest.raises(ValueError, match="norm"):
            run_circuit(circuit, state)


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
    from bellbidir.protocols import SchemeParams, build_scheme_independent

    circuit = Circuit(2, ("a", "b"), (), prep={"b": KET1})
    assert np.allclose(circuit.initial_state(), np.kron(KET0, KET1))
    scheme = build_scheme_independent(SchemeParams(theta1=0.7, theta2=2.3))
    prep = {**scheme.prep, "Q_A": bloch_state(1.1, 0.6), "Q_B": bloch_state(2.9, -1.3)}
    prepared = Circuit(scheme.num_qubits, scheme.labels, scheme.gates, prep)
    single = Circuit(1, ("q",), (), {"q": bloch_state(0.4, 2.0)})
    for circuit in (prepared, single):
        chain = reduce(np.kron, [circuit.prep.get(label, KET0) for label in circuit.labels], np.ones(1, dtype=complex))
        assert np.array_equal(circuit.initial_state(), chain)


def test_built_circuit_prep_is_read_only():
    # a built circuit keeps the checked preparations: neither the mapping nor its arrays can change afterwards
    theta = bloch_state(0.7)
    stack = np.array([KET0, KET1, bloch_state(2.1, 0.4)])
    circuit = Circuit(3, ("a", "t", "b"), (CNOT(1, 0),), {"t": theta, "b": stack})
    with pytest.raises(TypeError):
        circuit.prep["a"] = KET1
    with pytest.raises(TypeError):
        del circuit.prep["t"]
    for label in ("t", "b"):
        with pytest.raises(ValueError, match="read-only"):
            circuit.prep[label][..., 0] = 0.0
    theta[0] = 0.0  # the caller's arrays stay writable and are not shared with the circuit
    stack[0] = KET1
    assert np.array_equal(circuit.prep["t"], bloch_state(0.7))
    assert np.array_equal(circuit.prep["b"][0], KET0)
    widened = Circuit(3, circuit.labels, circuit.gates, {**circuit.prep, "a": KET1})  # the sampler's pattern
    assert sorted(widened.prep) == ["a", "b", "t"]
    assert np.array_equal(widened.initial_state()[:, 4:], circuit.initial_state()[:, :4])


def test_measure_deterministic():
    rng = np.random.default_rng(0)
    outcome, prob = measure_qubit(KET0, 0, rng)
    assert outcome == 0 and prob == 1.0


def test_measure_bell_correlations():
    rng = np.random.default_rng(12)
    for _ in range(50):
        first, p = measure_qubit(bell_state(), 0, rng)
        assert abs(p - 0.5) <= 1e-12
        second, p2 = measure_qubit(bell_state().reshape(2, -1)[first], 0, rng)  # the kept half, as the sampler keeps it
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


def test_measure_unnormalized_state():
    psi = np.array([0.6, 0.6], dtype=complex)
    rng = np.random.default_rng(4)
    trials = 4000
    ones = 0
    for _ in range(trials):
        outcome, prob = measure_qubit(psi, 0, rng)
        ones += outcome
        assert abs(prob - 0.5) <= 1e-15
    assert abs(ones / trials - 0.5) <= 5 * math.sqrt(0.25 / trials)


def test_measure_bad_index():
    with pytest.raises(BadIndex):
        measure_qubit(KET0, 1, np.random.default_rng(0))


def test_measure_zero_norm_state():
    with pytest.raises(ZeroNorm):
        measure_qubit(np.zeros(2, dtype=complex), 0, np.random.default_rng(0))


def test_measure_takes_one_register():
    # a stack of registers would be measured as one register of all its amplitudes
    rng = np.random.default_rng(0)
    with pytest.raises(BadMatrix, match=r"^measure_qubit takes one register, got a stack of shape \(3,\)$"):
        measure_qubit(np.full((3, 4), 0.5), 0, rng)
    with pytest.raises(BadMatrix, match=r"stack of shape \(1,\)$"):
        measure_qubit(bell_state()[None], 0, rng)


@pytest.mark.parametrize(
    "rng", [5, None, np.random.RandomState(0), np.random.PCG64(0)], ids=["5", "None", "RandomState", "PCG64"]
)
def test_measure_takes_only_a_generator(rng):
    # anything else would fail at its first draw with an AttributeError, or draw from another stream
    with pytest.raises(OutOfRange, match=r"^rng must be a np\.random\.Generator, got "):
        measure_qubit(bell_state(), 0, rng)


def test_the_number_rule_names_the_measurement_function():
    rng = np.random.default_rng(0)
    with pytest.raises(BadMatrix, match=r"^measure_qubit's state must hold only numbers, got an array of dtype <U1$"):
        measure_qubit(["1", "0"], 0, rng)
    with pytest.raises(BadMatrix, match=r"^measure_qubit's state must be a length-n vector or a stack of them, got"):
        measure_qubit(np.float64(1.0), 0, rng)
    with pytest.raises(ValueError, match=r"^measure_qubit's state length 3 is not a power of two >= 2$"):
        measure_qubit(np.ones(3), 0, rng)


def test_measure_leaves_a_read_only_register_as_it_was():
    # the sampler measures each cached record-prefix state on many trials, so a write into it would corrupt later ones
    rng = np.random.default_rng(41)
    for state in (rng.normal(size=32), rng.normal(size=32) + 1j * rng.normal(size=32)):
        state /= np.linalg.norm(state)
        state.flags.writeable = False
        before = state.tobytes()
        for index in range(5):
            measure_qubit(state, index, rng)
            assert state.tobytes() == before


def test_run_reduced_orders_like_keep():
    empty = Circuit(2, ("a", "b"), ())
    prep_b, prep_a = (Circuit(2, ("a", "b"), (), {label: bloch_state(1.0)}).prep for label in "ba")
    rho_b = run_reduced(empty, [1], prep_b)
    assert np.abs(rho_b - np.outer(bloch_state(1.0), bloch_state(1.0).conj())).max() <= 1e-12
    swapped = run_reduced(empty, [1, 0], prep_b)
    direct = run_reduced(empty, [0, 1], prep_a)
    assert np.abs(swapped - direct).max() <= 1e-12
    assert np.abs(swapped - np.kron(rho_b, np.diag([1.0, 0.0]))).max() <= 1e-12


def test_run_reduced_equals_the_reduced_state_of_the_full_run_bit_for_bit():
    # the prep covers leading qubits of the run circuit, every other qubit starts in |0>, as in extract_choi; the
    # reference reduces the complex copy of the run, so a real prep's product, which skips conj(), keeps its bits
    rng = np.random.default_rng(47)
    labels = tuple(f"q{i}" for i in range(7))
    states = [bloch_state(0.0), bloch_state(math.pi), bloch_state(1.3), bloch_state(0.8, 2.1)]
    for trial in range(60):
        gates = tuple(random_gate(7, rng) for _ in range(rng.integers(1, 40)))
        circuit = Circuit(7, labels, gates)
        prepared = rng.choice(labels[:5], size=trial % 4, replace=False)
        prep = {label: states[rng.integers(4)] for label in prepared}  # bloch_state(0.0) has an exact zero
        if prepared.size and trial % 3:  # a stack whose registers have different zero patterns
            prep[prepared[0]] = np.array([bloch_state(0.0), bloch_state(1.3, 0.4 * (trial % 2)), bloch_state(math.pi)])
        prepared_circuit = Circuit(5, labels[:5], (), prep)
        head = prepared_circuit.initial_state()
        state = np.zeros((*head.shape[:-1], 2**7), dtype=head.dtype)
        state[..., ::4] = head  # q5 = q6 = |0>
        keep = [int(q) for q in rng.choice(7, size=1 + trial % 3, replace=False)]
        expected = oracle_reduced_density_matrix(run_circuit(circuit, state.astype(complex)), keep)
        got = run_reduced(circuit, keep, prepared_circuit.prep)
        assert got.shape == expected.shape
        assert np.array_equal(bits(got), bits(expected)), (trial, keep)


def test_run_reduced_rejects_a_prep_outside_the_register():
    circuit = Circuit(2, ("a", "b"), (H(0), CNOT(0, 1)))
    with pytest.raises(BadLabel, match="'c'"):
        run_reduced(circuit, [0], Circuit(3, ("a", "b", "c"), (), {"c": KET1}).prep)
    with pytest.raises(BadIndex):
        run_reduced(circuit, [0, 2], {})


def run_reduced_after_an_integer_keep():
    # the float keep must not reach the plan cache, whose key (0, 1.0) equals the cached (0, 1)
    circuit = Circuit(3, ("a", "b", "c"), (H(0), CNOT(0, 1)))
    prep = Circuit(3, circuit.labels, (), {"c": KET1}).prep
    run_reduced(circuit, [0, 1], prep)
    run_reduced(circuit, [0, 1.0], prep)


@pytest.mark.parametrize(
    "call",
    [
        lambda: Gate("H", (1.5,)),
        lambda: Gate("CNOT", (0, 1.9)),
        lambda: Gate("CCNOT", (0, 1, np.float64(2.0))),
        lambda: Gate("H", (True,)),
        lambda: H("0"),
        lambda: CNOT(np.True_, 2),
        lambda: run_reduced(BELL, [1.2], {}),
        lambda: run_reduced(BELL, [False], {}),
        lambda: measure_qubit(bell_state(), 1.5, np.random.default_rng(0)),
        lambda: measure_qubit(bell_state(), True, np.random.default_rng(0)),
        run_reduced_after_an_integer_keep,
        lambda: Gate("H", 0),
        lambda: run_reduced(Circuit(2, ("a", "b"), (H(0),)), 0, {}),
    ],
    ids=["H-1.5", "CNOT-1.9", "CCNOT-float64", "H-True", "H-str", "CNOT-numpy-bool", "run_reduced-1.2",
         "run_reduced-False", "measure-1.5", "measure-True", "run_reduced-1.0-after-1", "Gate-bare-int",
         "run_reduced-bare-int"],
)
def test_a_qubit_index_that_is_not_an_integer_raises_bad_index(call):
    with pytest.raises(BadIndex):
        call()


def test_a_qubit_count_that_is_not_a_non_negative_integer_raises_out_of_range():
    # a float count would pass the label check and fail later in numpy with a TypeError
    for count in (2.0, np.float64(2.0), "2", True, -1):
        with pytest.raises(OutOfRange, match="num_qubits must be a non-negative integer"):
            Circuit(count, ("a", "b"), ())
    circuit = Circuit(np.int64(2), ("a", "b"), (H(0), CNOT(0, 1)))
    assert np.array_equal(run_circuit(circuit, circuit.initial_state()), bell_state().real)


def test_numpy_integer_qubit_indices_are_taken_as_ints():
    gate = CNOT(np.int64(0), np.uint8(2))
    assert gate.qubits == (0, 2) and all(type(q) is int for q in gate.qubits)
    assert np.array_equal(run_reduced(BELL, [np.int64(1)], {}), run_reduced(BELL, [1], {}))


def test_a_one_shot_iterator_of_qubit_indices_is_read_once():
    # the check must not spend the iterator: an empty keep would trace out every qubit
    marginal = run_reduced(BELL, [1], {})
    assert marginal.shape == (2, 2)
    assert np.array_equal(run_reduced(BELL, (q for q in [1]), {}), marginal)
    assert np.array_equal(partial_trace(np.eye(4) / 4, 2, iter([0])), partial_trace(np.eye(4) / 4, 2, [0]))
    assert Gate("CNOT", iter([0, 1])) == CNOT(0, 1)
    assert measure_qubit(bell_state(), np.int32(1), np.random.default_rng(0))[1] == pytest.approx(0.5)
