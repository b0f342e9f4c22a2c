import math
from functools import reduce

import numpy as np
import pytest

from bellbidir.channels import analytic_channel, choi_of_channel
from bellbidir.errors import BadChannelState, BadIndex, BadLabel, OutOfRange
from bellbidir.linalg import max_abs, partial_trace, projector, trace_distance
from bellbidir.protocols import (
    A_TO_B,
    B_TO_A,
    SchemeParams,
    apply_channel_from_choi,
    build_indirect_bell_block,
    build_scheme_common,
    build_scheme_independent,
    channel_endpoints,
    _validate_choi,
    choi_mixed,
    extract_choi,
    sample_mixed_trajectories,
    sample_trajectories,
)
from bellbidir.sim import Circuit, Gate, bell_state, bloch_state, run_circuit

KET0 = np.array([1.0, 0.0], dtype=complex)
KET1 = np.array([0.0, 1.0], dtype=complex)
S = 1 / math.sqrt(2)
PHI_PLUS = np.array([S, 0, 0, S], dtype=complex)
PSI_PLUS = np.array([0, S, S, 0], dtype=complex)
PHI_MINUS = np.array([S, 0, 0, -S], dtype=complex)
PSI_MINUS = np.array([0, S, -S, 0], dtype=complex)

MAX_MIXED_PAIR = np.eye(4, dtype=complex) / 4


def kron_all(*factors):
    return reduce(np.kron, factors)


def block_circuit():
    gates = build_indirect_bell_block(q=0, c=1, trig=2, m1=3, m2=4)
    return Circuit(5, ("q", "c", "trig", "m1", "m2"), tuple(gates))


def test_block_inert_when_trigger_off():
    circuit = block_circuit()
    rng = np.random.default_rng(4)
    psi_qc = rng.normal(size=4) + 1j * rng.normal(size=4)
    psi_qc /= np.linalg.norm(psi_qc)
    initial = kron_all(psi_qc, KET0, KET0, KET0)
    assert max_abs(run_circuit(circuit, initial) - initial) <= 1e-12
    twice = Circuit(5, circuit.labels, circuit.gates + circuit.gates)
    assert max_abs(run_circuit(twice, initial) - initial) <= 1e-12


def test_block_records_bell_index_when_fired():
    # direct 5-qubit evaluation: with the trigger on, the ancillas pick up the
    # computational-basis image of the Bell input under CNOT then H
    circuit = block_circuit()
    cases = [
        (PHI_PLUS, (0, 0)),
        (PSI_PLUS, (1, 0)),
        (PHI_MINUS, (0, 1)),
        (PSI_MINUS, (1, 1)),
    ]
    basis = {0: KET0, 1: KET1}
    for bell_input, (m1, m2) in cases:
        initial = kron_all(bell_input, KET1, KET0, KET0)
        expected = kron_all(bell_input, KET1, basis[m1], basis[m2])
        assert max_abs(run_circuit(circuit, initial) - expected) <= 1e-12


def test_block_rejects_repeated_qubits():
    with pytest.raises(BadIndex):
        build_indirect_bell_block(0, 1, 2, 3, 3)


def test_independent_scheme_limits():
    bell = projector(bell_state())
    cases = [
        (math.pi, 0.0, bell, MAX_MIXED_PAIR),
        (0.0, 0.0, MAX_MIXED_PAIR, MAX_MIXED_PAIR),
        (math.pi, math.pi, MAX_MIXED_PAIR, MAX_MIXED_PAIR),
        (0.0, math.pi, MAX_MIXED_PAIR, bell),
    ]
    for theta1, theta2, want_ab, want_ba in cases:
        circuit = build_scheme_independent(SchemeParams(theta1=theta1, theta2=theta2))
        assert trace_distance(extract_choi(circuit, "Q_A", "C_B"), want_ab) <= 1e-10
        assert trace_distance(extract_choi(circuit, "Q_B", "C_A"), want_ba) <= 1e-10


def test_common_scheme_limits():
    bell = projector(bell_state())
    circuit = build_scheme_common(SchemeParams(theta=math.pi))
    assert trace_distance(extract_choi(circuit, "Q_A", "C_B"), bell) <= 1e-10
    assert trace_distance(extract_choi(circuit, "Q_B", "C_A"), MAX_MIXED_PAIR) <= 1e-10
    circuit = build_scheme_common(SchemeParams(theta=0.0))
    assert trace_distance(extract_choi(circuit, "Q_B", "C_A"), bell) <= 1e-10
    assert trace_distance(extract_choi(circuit, "Q_A", "C_B"), MAX_MIXED_PAIR) <= 1e-10


def test_common_scheme_half_probability():
    circuit = build_scheme_common(SchemeParams(theta=math.pi / 2))
    choi = extract_choi(circuit, "Q_A", "C_B")
    expected = 0.5 * projector(bell_state()) + 0.5 * MAX_MIXED_PAIR
    assert trace_distance(choi, expected) <= 1e-10


def test_independent_scheme_symmetric_point():
    circuit = build_scheme_independent(SchemeParams())
    choi = extract_choi(circuit, "Q_A", "C_B")
    expected = 0.25 * projector(bell_state()) + 0.75 * MAX_MIXED_PAIR
    assert trace_distance(choi, expected) <= 1e-10


def test_choi_matches_analytic_model_on_grid():
    thetas = np.linspace(0.0, math.pi, 5)
    for theta1 in thetas:
        for theta2 in thetas:
            params = SchemeParams(theta1=theta1, theta2=theta2)
            circuit = build_scheme_independent(params)
            for direction in (A_TO_B, B_TO_A):
                simulated = extract_choi(circuit, *channel_endpoints(direction))
                reference = choi_of_channel(analytic_channel("independent", params, direction))
                assert trace_distance(simulated, reference) <= 1e-10
                marginal = partial_trace(simulated, 2, [0])
                assert max_abs(marginal - np.eye(2) / 2) <= 1e-10


def test_direction_exchange_symmetry():
    thetas = np.linspace(0.0, math.pi, 5)
    for theta1 in thetas:
        for theta2 in thetas:
            forward = build_scheme_independent(SchemeParams(theta1=theta1, theta2=theta2))
            swapped = build_scheme_independent(SchemeParams(theta1=theta2, theta2=theta1))
            choi_ab = extract_choi(forward, "Q_A", "C_B")
            choi_ba = extract_choi(swapped, "Q_B", "C_A")
            assert max_abs(choi_ab - choi_ba) <= 1e-10
    for theta in np.linspace(0.0, math.pi, 9):
        forward = build_scheme_common(SchemeParams(theta=theta))
        mirrored = build_scheme_common(SchemeParams(theta=math.pi - theta))
        choi_ab = extract_choi(forward, "Q_A", "C_B")
        choi_ba = extract_choi(mirrored, "Q_B", "C_A")
        assert max_abs(choi_ab - choi_ba) <= 1e-10


def test_extract_choi_label_errors():
    circuit = build_scheme_independent(SchemeParams())
    with pytest.raises(BadLabel):
        extract_choi(circuit, "nope", "C_B")
    with pytest.raises(BadLabel):
        extract_choi(circuit, "T_A", "C_B")  # trigger has a fixed preparation


def test_choi_mixed_endpoints_and_range():
    a = projector(bell_state())
    b = MAX_MIXED_PAIR
    assert max_abs(choi_mixed(1.0, a, b) - a) == 0.0
    assert max_abs(choi_mixed(0.0, a, b) - b) == 0.0
    with pytest.raises(OutOfRange):
        choi_mixed(1.5, a, b)


def test_choi_mixed_symmetric_formula():
    params = SchemeParams.from_probabilities(p1=0.5, p2=0.5, p=0.5)
    choi_ind = extract_choi(build_scheme_independent(params), "Q_A", "C_B")
    choi_com = extract_choi(build_scheme_common(params), "Q_A", "C_B")
    for t in (0.0, 0.4, 2 / 3, 1.0):
        mixed = choi_mixed(t, choi_ind, choi_com)
        expected = (0.5 - t / 4) * projector(bell_state()) + (0.5 + t / 4) * MAX_MIXED_PAIR
        assert trace_distance(mixed, expected) <= 1e-10


def test_apply_channel_from_choi():
    rng = np.random.default_rng(8)
    a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    rho = a @ a.conj().T
    rho /= np.trace(rho)
    assert max_abs(apply_channel_from_choi(projector(bell_state()), rho) - rho) <= 1e-12
    out = apply_channel_from_choi(MAX_MIXED_PAIR, rho)
    assert max_abs(out - np.eye(2) / 2) <= 1e-12
    for t in (0.0, 0.5, 1.0):
        choi = (0.5 - t / 4) * projector(bell_state()) + (0.5 + t / 4) * MAX_MIXED_PAIR
        out = apply_channel_from_choi(choi, rho)
        expected = (0.5 - t / 4) * rho + (0.5 + t / 4) * np.eye(2) / 2
        assert max_abs(out - expected) <= 1e-12


def _corrupt_corrections(circuit):
    m_qubits = {circuit.index(label) for label in circuit.labels if label.startswith("M_")}
    gates = []
    for gate in circuit.gates:
        if gate.kind in ("CNOT", "CZ") and gate.qubits[0] in m_qubits:
            gates.append(Gate("CZ" if gate.kind == "CNOT" else "CNOT", gate.qubits))
        else:
            gates.append(gate)
    return Circuit(circuit.num_qubits, circuit.labels, tuple(gates), circuit.prep)


def test_corrupted_correction_assignment_is_detected():
    params = SchemeParams(theta1=math.pi, theta2=0.0)
    corrupted = _corrupt_corrections(build_scheme_independent(params))
    choi = extract_choi(corrupted, "Q_A", "C_B")
    reference = choi_of_channel(analytic_channel("independent", params, A_TO_B))
    assert trace_distance(choi, reference) > 1e-3


def _assert_within_three_sigma(samples, expected):
    n = len(samples)
    for part in (np.real, np.imag):
        values = part(samples)
        stderr = values.std(axis=0, ddof=1) / math.sqrt(n)
        delta = np.abs(values.mean(axis=0) - part(expected))
        assert np.all(delta <= np.maximum(3.0 * stderr, 1e-9)), (delta, stderr)


def test_sampling_matches_deterministic_channel():
    params = SchemeParams()
    circuit = build_scheme_independent(params)
    psi = bloch_state(1.1, 0.6)
    samples = sample_trajectories(circuit, "Q_A", "C_B", psi, trials=2500, seed=14)
    choi = extract_choi(circuit, "Q_A", "C_B")
    expected = apply_channel_from_choi(choi, projector(psi))
    _assert_within_three_sigma(samples, expected)


def test_sampling_rejects_unnormalized_input():
    circuit = build_scheme_independent(SchemeParams())
    with pytest.raises(ValueError):
        sample_trajectories(circuit, "Q_A", "C_B", np.array([1.0, 1.0]), trials=4, seed=0)


def test_invalid_channel_state_raises_package_error():
    bell = projector(bell_state())
    not_hermitian = bell + 1e-6j * np.triu(np.ones((4, 4)), 1)
    not_psd = np.diag([1.2, -0.2, 0.0, 0.0])
    not_trace_preserving = np.diag([1.0, 0.0, 0.0, 0.0])
    for bad in (not_hermitian, 2.0 * bell, not_psd, not_trace_preserving):
        with pytest.raises(BadChannelState):
            _validate_choi(bad)


def test_mixed_sampling_matches_deterministic_channel():
    params = SchemeParams(t=0.5)
    circuit_ind = build_scheme_independent(params)
    circuit_com = build_scheme_common(params)
    psi = bloch_state(2.0, -0.3)
    samples = sample_mixed_trajectories(circuit_ind, circuit_com, 0.5, "Q_A", "C_B", psi, trials=2500, seed=21)
    choi = choi_mixed(0.5, extract_choi(circuit_ind, "Q_A", "C_B"), extract_choi(circuit_com, "Q_A", "C_B"))
    expected = apply_channel_from_choi(choi, projector(psi))
    _assert_within_three_sigma(samples, expected)


def test_scheme_params_validation():
    with pytest.raises(OutOfRange):
        SchemeParams(t=1.2)
    for name in ("theta1", "theta2", "theta"):
        for value in (math.nan, math.inf, -math.inf):
            with pytest.raises(OutOfRange):
                SchemeParams(**{name: value})
    with pytest.raises(OutOfRange):
        SchemeParams.from_probabilities(p1=1.5)
    params = SchemeParams.from_probabilities(p1=0.25, p2=0.75, p=0.5)
    assert abs(params.p1 - 0.25) <= 1e-12
    assert abs(params.p2 - 0.75) <= 1e-12
    assert abs(params.p - 0.5) <= 1e-12


def test_channel_endpoints():
    assert channel_endpoints(A_TO_B) == ("Q_A", "C_B")
    assert channel_endpoints(B_TO_A) == ("Q_B", "C_A")
    with pytest.raises(ValueError):
        channel_endpoints("sideways")
