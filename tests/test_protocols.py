import math
import re
import tracemalloc
from dataclasses import replace
from decimal import Decimal
from fractions import Fraction
from functools import partial, reduce

import numpy as np
import pytest
from dense import oracle_apply_gate

from bellbidir.channels import analytic_channel, choi_of_channel
from bellbidir.cli import simulated_choi
from bellbidir.errors import BadChannelState, BadIndex, BadLabel, OutOfRange
from bellbidir.infotheory import info_report_from_choi, trigger_joint_distribution
from bellbidir.linalg import max_abs, partial_trace, projector, trace_distance
from bellbidir.protocols import (
    A_TO_B,
    B_TO_A,
    DIRECTIONS,
    INDEPENDENT_LABELS,
    SchemeParams,
    apply_channel_from_choi,
    build_indirect_bell_block,
    build_scheme_common,
    build_scheme_independent,
    channel_endpoints,
    _extended_circuit,
    _scheme_gates,
    _validate_choi,
    choi_mixed,
    extract_choi,
    sample_mixed_trajectories,
    sample_trajectories,
)
from bellbidir.sim import (
    CCNOT,
    CNOT,
    Circuit,
    Gate,
    H,
    X,
    bell_state,
    bloch_state,
    reduced_density_matrix,
    run_circuit,
    run_reduced,
)

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


def test_stacked_extraction_equals_per_point_on_the_verify_grids():
    # one stacked circuit per row of the default verify grids, against one circuit per point
    thetas = np.linspace(0.0, math.pi, 9)
    grid = np.broadcast_arrays(thetas[:, None], thetas, math.pi / 2)  # theta1, theta2, theta of the 9x9 verify grid
    rows = [(build_scheme_independent, row) for row in zip(*grid)]
    rows.append((build_scheme_common, np.broadcast_arrays(math.pi / 2, math.pi / 2, np.linspace(0.0, math.pi, 17))))
    for build, row in rows:
        stacked = build(SchemeParams(*row))
        singles = [build(SchemeParams(*point)) for point in zip(*row)]
        for direction in (A_TO_B, B_TO_A):
            endpoints = channel_endpoints(direction)
            per_point = np.array([extract_choi(circuit, *endpoints) for circuit in singles])
            assert np.array_equal(extract_choi(stacked, *endpoints), per_point)


def complex_extraction(circuit, input_label, output_label):
    """Channel state by a dense complex128 product register, the gates applied one by one by the dense oracle."""
    n, ref = circuit.num_qubits + 1, circuit.num_qubits
    gates = (H(ref), CNOT(ref, circuit.index(input_label))) + circuit.gates
    extended = Circuit(n, circuit.labels + ("R",), gates, circuit.prep)
    state = np.ones(1, dtype=complex)
    for label in extended.labels:
        factor = np.asarray(extended.prep.get(label, KET0), dtype=complex)
        state = state[..., :, None] * factor[..., None, :]
        state = state.reshape(*state.shape[:-2], -1)
    final = reduce(oracle_apply_gate, extended.gates, state)
    keep = [ref, circuit.index(output_label)]
    psi = final.reshape(-1, *[2] * n).transpose(0, *[1 + q for q in keep + [q for q in range(n) if q not in keep]])
    psi = psi.reshape(*final.shape[:-1], 4, -1)
    return psi @ psi.conj().swapaxes(-1, -2)


def test_real_register_extraction_equals_the_complex_one_bit_for_bit():
    # the scheme registers are real; their channel states carry the complex128 run's bits, signed zeros included
    rng = np.random.default_rng(23)
    points = [SchemeParams(*angles) for angles in rng.uniform(-7.0, 7.0, (40, 3))]
    row = SchemeParams(*rng.uniform(-7.0, 7.0, (13, 3)).T)
    zero_row = SchemeParams(0.0, rng.uniform(-7.0, 7.0, 5), 0.0)  # theta1 = 0, theta = 0
    for build in (build_scheme_independent, build_scheme_common):
        circuits = [build(params) for params in points] + [build(row), build(zero_row)]
        assert all(circuit.initial_state().dtype == np.float64 for circuit in circuits)
        for circuit in circuits:
            for direction in (A_TO_B, B_TO_A):
                endpoints = channel_endpoints(direction)
                expected = complex_extraction(circuit, *endpoints).view(np.uint64)
                assert np.array_equal(extract_choi(circuit, *endpoints).view(np.uint64), expected)


def test_extraction_of_each_input_equals_the_complex_one_bit_for_bit():
    # one circuit, its inputs in turn and back: each extraction runs the extended circuit of its own input
    rng = np.random.default_rng(29)
    stack = np.array([bloch_state(theta, phi) for theta, phi in rng.uniform(-7.0, 7.0, (4, 2))])
    block = Circuit(5, ("q", "c", "trig", "m1", "m2"), build_indirect_bell_block(0, 1, 2, 3, 4), {"trig": stack})
    independent = build_scheme_independent(SchemeParams(*rng.uniform(-7.0, 7.0, 3)))
    common = build_scheme_common(SchemeParams(*rng.uniform(-7.0, 7.0, (6, 3)).T))
    ab, ba = channel_endpoints(A_TO_B), channel_endpoints(B_TO_A)
    block_endpoints = [("q", "m1"), ("c", "q"), ("m2", "c"), ("q", "m1")]
    cases = [(independent, [ab, ba, ab]), (common, [ba, ab, ba]), (block, block_endpoints)]
    for circuit, endpoints in cases:
        for input_label, output_label in endpoints:
            expected = complex_extraction(circuit, input_label, output_label).view(np.uint64)
            assert np.array_equal(extract_choi(circuit, input_label, output_label).view(np.uint64), expected)


def test_compact_extraction_edge_cases_equal_the_complex_one_bit_for_bit():
    # the extraction starts from the prep product's nonzero entries alone: preps on qubits ahead of the triggers,
    # complex preps, corner angles whose state has an exact zero, and stacks whose points reach different supports
    def with_prep(circuit, **prep):
        return Circuit(circuit.num_qubits, circuit.labels, circuit.gates, {**circuit.prep, **prep})

    ends = np.array([0.0, math.pi])  # bloch_state(0.0) = |0> exactly
    independent = build_scheme_independent(SchemeParams(1.1, 0.7))
    common = build_scheme_common(SchemeParams(theta=2.3))
    corners = build_scheme_independent(SchemeParams(theta1=np.repeat(ends, 2), theta2=np.tile(ends, 2)))
    mixed_stack = [bloch_state(0.0), bloch_state(math.pi), bloch_state(1.0, 2.0), bloch_state(2.5)]
    cases = [
        (with_prep(independent, Q_B=bloch_state(0.9)), [A_TO_B]),
        (with_prep(common, Q_B=bloch_state(2.2)), [A_TO_B]),
        (with_prep(independent, M_A1=bloch_state(0.4)), DIRECTIONS),
        (with_prep(common, M_A1=bloch_state(0.0)), DIRECTIONS),
        (with_prep(independent, Q_B=bloch_state(1.2, 0.5)), [A_TO_B]),  # complex
        (with_prep(common, T=bloch_state(2.0, -1.1)), DIRECTIONS),  # a complex trigger
        (corners, DIRECTIONS),
        (build_scheme_common(SchemeParams(theta=ends)), DIRECTIONS),
        (build_scheme_independent(SchemeParams(np.array([0.0, 0.0, 2.0]), np.array([0.0, 1.3, 0.0]))), DIRECTIONS),
        (with_prep(corners, Q_B=np.array(mixed_stack)), [A_TO_B]),  # complex, zeros in some points only
        (with_prep(corners, M_A1=np.array(mixed_stack)), DIRECTIONS),
    ]
    for circuit, directions in cases:
        for direction in directions:
            endpoints = channel_endpoints(direction)
            expected = complex_extraction(circuit, *endpoints).view(np.uint64)
            assert np.array_equal(extract_choi(circuit, *endpoints).view(np.uint64), expected), (circuit.prep, direction)
    supports = (corners.initial_state() != 0).reshape(4, -1)
    assert len({row.tobytes() for row in supports}) == 4  # the corner stack's points reach different supports


def test_stacked_verify_grid_extraction_memory_budget():
    # the whole 81-point verify grid in one stacked circuit: the reached amplitudes are written straight into the
    # 81 complex (4, 512) operands, a traced peak of about 2.7 MiB; building the dense 2**11 registers, as
    # run_circuit and reduced_density_matrix do, peaks at about 4.6 MiB
    thetas = np.linspace(0.0, math.pi, 9)
    circuit = build_scheme_independent(SchemeParams(theta1=np.repeat(thetas, 9), theta2=np.tile(thetas, 9)))
    for direction in DIRECTIONS:
        tracemalloc.start()
        try:
            choi = extract_choi(circuit, *channel_endpoints(direction))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert choi.shape == (81, 4, 4)
        assert peak <= 3.5 * 2**20


def test_builders_share_one_gate_tuple():
    # Q_A, C_A, C_B, Q_B, M_A1, M_A2, M_B1, M_B2 are qubits 0-7; T_A, T_B (independent) or T (common) follow
    def wiring(alice, bob, flip):
        return (
            [H(1), CNOT(1, 2)]
            + [CNOT(0, 1), H(0), CCNOT(alice, 1, 4), CCNOT(alice, 0, 5), H(0), CNOT(0, 1)]
            + [X(q) for q in flip]
            + [CNOT(3, 2), H(3), CCNOT(bob, 2, 6), CCNOT(bob, 3, 7), H(3), CNOT(3, 2)]
            + [CNOT(4, 2), Gate("CZ", (5, 2)), CNOT(6, 1), Gate("CZ", (7, 1))]
        )

    angles = np.array([0.1, 1.0, 3.0])
    stack = SchemeParams(theta1=angles, theta=angles)
    points = [SchemeParams(), SchemeParams(0.3, 2.9, 1.7), stack]
    for build, expected in ((build_scheme_independent, wiring(8, 9, [])), (build_scheme_common, wiring(8, 8, [8]))):
        circuits = [build(params) for params in points]
        assert all(circuit.gates is circuits[0].gates for circuit in circuits)
        assert circuits[0].gates == tuple(expected)


def test_channel_state_is_the_mixture_of_its_trigger_corners():
    # no gate targets a trigger, so a state mixes its corner states (each trigger angle 0 or pi) with the trigger
    # basis probabilities; the fig-3 sweeps rest on this, and an H on a trigger qubit breaks it
    rng = np.random.default_rng(17)
    ends = np.array([0.0, math.pi])
    fire = lambda p: np.array([1.0 - p, p])  # (2, points)
    angles = rng.uniform(0.05, math.pi - 0.05, (24, 2))
    schemes = (
        (
            build_scheme_independent,
            SchemeParams(theta1=np.repeat(ends, 2), theta2=np.tile(ends, 2)),
            SchemeParams(theta1=angles[:, 0], theta2=angles[:, 1]),
            lambda params: (fire(params.p1)[:, None] * fire(params.p2)).reshape(4, -1),
        ),
        (
            build_scheme_common,
            SchemeParams(theta=ends),
            SchemeParams(theta=angles[:, 0]),
            lambda params: fire(params.p),
        ),
    )
    for build, corners, points, weights in schemes:
        for direction in (A_TO_B, B_TO_A):
            endpoints = channel_endpoints(direction)
            corner_states = extract_choi(build(corners), *endpoints)
            mixtures = np.tensordot(weights(points), corner_states, (0, 0))
            assert max_abs(mixtures - extract_choi(build(points), *endpoints)) <= 1e-14


def test_mixed_and_common_schemes_equal_the_independent_wiring_on_a_correlated_trigger_pair():
    # a register whose (T_A, T_B) pair holds the amplitudes sqrt(P(a, b)) of the trigger table runs the independent
    # wiring with correlated triggers; no gate targets a trigger, so its channel is the table's mixture of corners
    rng = np.random.default_rng(29)
    points = [SchemeParams.from_probabilities(*rng.uniform(0.0, 1.0, 4)) for _ in range(40)]
    points += [SchemeParams.from_probabilities(p1=p1, p2=p2, p=p) for p1, p2, p in rng.uniform(0.0, 1.0, (8, 3))]
    tables = np.array([trigger_joint_distribution(params.t, params.p1, params.p2, params.p) for params in points])
    n = len(INDEPENDENT_LABELS)
    ix = {label: i for i, label in enumerate(INDEPENDENT_LABELS)}
    assert INDEPENDENT_LABELS[-2:] == ("T_A", "T_B")  # the trigger pair, then the reference R in |0>, end the register
    registers = np.zeros((len(points), 2 ** (n - 2), 4, 2))
    registers[:, 0, :, 0] = np.sqrt(tables).reshape(-1, 4)
    gates = _scheme_gates(INDEPENDENT_LABELS, "T_A", "T_B", ())
    for direction in DIRECTIONS:
        source, target = channel_endpoints(direction)
        extended = _extended_circuit(gates, INDEPENDENT_LABELS, ix[source])
        correlated = reduced_density_matrix(run_circuit(extended, registers.reshape(len(points), -1)), [n, ix[target]])
        for params, state in zip(points[:40], correlated):
            assert max_abs(state - simulated_choi("mixed", params, direction)) <= 1e-14, (params, direction)
        for params, state in zip(points[40:], correlated[40:]):  # t = 0: the literal one-trigger circuit
            common = extract_choi(build_scheme_common(params), source, target)
            assert max_abs(state - common) <= 1e-14, (params, direction)


TWO_WAY = ("R_A", "R_B", "C_B", "C_A")  # the kept qubits of the two-way channel state, in this order


def two_way_state(circuit):
    """The (R_A, R_B, C_B, C_A) state of a scheme circuit whose inputs Q_A and Q_B are Bell-paired with R_A and R_B."""
    n = circuit.num_qubits
    bell_pairs = (H(n), CNOT(n, circuit.index("Q_A")), H(n + 1), CNOT(n + 1, circuit.index("Q_B")))
    joint = Circuit(n + 2, circuit.labels + ("R_A", "R_B"), bell_pairs + circuit.gates, circuit.prep)
    return run_reduced(joint, [joint.index(label) for label in TWO_WAY], joint.prep)


def bell_pair_on(first, second):
    """The Bell projector on two of the (R_A, R_B, C_B, C_A) qubits, the maximally mixed state on the other two."""
    rest = [label for label in TWO_WAY if label not in (first, second)]
    order = [TWO_WAY.index(label) for label in (first, second, *rest)]
    perm = [order.index(q) for q in range(4)]
    rho = np.kron(projector(PHI_PLUS), MAX_MIXED_PAIR).reshape([2] * 8)
    return rho.transpose(perm + [4 + p for p in perm]).reshape(16, 16)


def two_way_closed(build, params):
    """Both channels at once: a firing party teleports its reference's partner, a silent one leaves the pair alone."""
    weight = lambda p: np.asarray(p)[..., None, None]
    ab, ba = bell_pair_on("R_A", "C_B"), bell_pair_on("R_B", "C_A")
    if build is build_scheme_common:
        return weight(params.p) * ab + (1.0 - weight(params.p)) * ba
    p1, p2 = weight(params.p1), weight(params.p2)
    idle, noise = bell_pair_on("C_B", "C_A"), np.eye(16) / 16
    return (1.0 - p1) * (1.0 - p2) * idle + p1 * (1.0 - p2) * ab + (1.0 - p1) * p2 * ba + p1 * p2 * noise


def test_the_two_way_channel_state_equals_its_closed_form_and_catches_the_silent_party_mutants():
    # each one-way extraction holds the silent party's input at |0>, so it cannot see that party's closing
    # CNOT(Q, C) deleted or turned into a CZ; with both inputs Bell-paired with their own references, the
    # joint state can
    rng = np.random.default_rng(53)
    row = SchemeParams(*rng.uniform(-7.0, 7.0, (40, 3)).T)
    point = SchemeParams(1.1, 0.7, 0.4)
    for build in (build_scheme_independent, build_scheme_common):
        assert max_abs(two_way_state(build(row)) - two_way_closed(build, row)) <= 1e-12
        circuit = build(point)
        assert max_abs(two_way_state(circuit) - two_way_closed(build, point)) <= 1e-12
        for q, c in (("Q_A", "C_A"), ("Q_B", "C_B")):
            closing = CNOT(circuit.index(q), circuit.index(c))
            at = max(i for i, gate in enumerate(circuit.gates) if gate == closing)
            for swapped in ((), (Gate("CZ", closing.qubits),)):
                mutant = replace(circuit, gates=circuit.gates[:at] + swapped + circuit.gates[at + 1 :])
                deviation = max_abs(two_way_state(mutant) - two_way_closed(build, point))
                assert deviation > 1e-3, (build.__name__, q, swapped)


def test_builders_reject_an_empty_sequence():
    # an empty angle array builds an empty preparation stack, which Circuit rejects
    empty = SchemeParams(theta1=np.empty(0), theta=np.empty(0))
    for build, label in ((build_scheme_independent, "T_A"), (build_scheme_common, "T")):
        with pytest.raises(OutOfRange, match=f"^preparation stack for '{label}' is empty, shape \\(0, 2\\)$"):
            build(empty)


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


def test_extract_choi_rejects_a_qubit_labelled_with_the_reference_label():
    circuit = Circuit(3, ("Q", "R", "O"), (CNOT(0, 2),))
    with pytest.raises(BadLabel, match="'R' is reserved for the reference"):
        extract_choi(circuit, "Q", "O")


def test_choi_mixed_endpoints_and_range():
    a = projector(bell_state())
    b = MAX_MIXED_PAIR
    assert max_abs(choi_mixed(1.0, a, b) - a) == 0.0
    assert max_abs(choi_mixed(0.0, a, b) - b) == 0.0
    with pytest.raises(OutOfRange):
        choi_mixed(1.5, a, b)
    stack = choi_mixed([1.0, 0.25, 0.0], a, b)
    assert stack.shape == (3, 4, 4)
    assert all(np.array_equal(mixed, choi_mixed(t, a, b)) for t, mixed in zip([1.0, 0.25, 0.0], stack))
    for ts in ([0.5, 1.5], [0.5, np.nan]):
        with pytest.raises(OutOfRange):
            choi_mixed(ts, a, b)


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


def test_apply_channel_from_choi_rejects_a_stack_of_channel_states():
    choi = np.array([projector(bell_state()), MAX_MIXED_PAIR, MAX_MIXED_PAIR])
    with pytest.raises(ValueError, match=r"one 4x4 matrix, got shape \(3, 4, 4\)"):
        apply_channel_from_choi(choi, np.eye(2) / 2)


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


def test_sampling_accepts_a_generator_as_seed():
    circuit = build_scheme_common(SchemeParams(theta=1.2))
    psi = bloch_state(0.8, 2.1)
    from_seed = sample_trajectories(circuit, "Q_B", "C_A", psi, trials=50, seed=14)
    from_generator = sample_trajectories(circuit, "Q_B", "C_A", psi, trials=50, seed=np.random.default_rng(14))
    assert np.array_equal(from_seed, from_generator)


def test_sampling_rejects_unnormalized_input():
    circuit = build_scheme_independent(SchemeParams())
    with pytest.raises(ValueError):
        sample_trajectories(circuit, "Q_A", "C_B", np.array([1.0, 1.0]), trials=4, seed=0)


def test_samplers_reject_a_stack_before_any_draw():
    psi = bloch_state(0.8, 2.1)
    psi_stack = np.array([psi] * 3)
    stacked = build_scheme_independent(SchemeParams(theta1=np.array([0.3, 1.0])))
    single = build_scheme_independent(SchemeParams(theta1=0.3))
    stacked_common = build_scheme_common(SchemeParams(theta=np.array([0.3, 1.0])))
    common = build_scheme_common(SchemeParams())
    mixed = partial(sample_mixed_trajectories, input_label="Q_A", output_label="C_B", trials=4)
    single_run = partial(sample_trajectories, input_label="Q_A", output_label="C_B", trials=4)
    stack_message = "sampler takes one register, got a stack of shape "
    for sampler, message in (
        (partial(single_run, stacked, psi_in=psi), stack_message + r"\(2,\) in T_A"),
        (partial(single_run, single, psi_in=psi_stack), stack_message + r"\(3,\) in psi_in"),
        (partial(single_run, stacked_common, psi_in=psi_stack), stack_message + r"\(3,\) in psi_in"),  # no broadcast
        (partial(mixed, stacked, common, 0.5, psi_in=psi), stack_message + r"\(2,\) in T_A"),
        (partial(mixed, single, common, 0.5, psi_in=psi_stack), stack_message + r"\(3,\) in psi_in"),
        (partial(mixed, single, stacked_common, 1.0, psi_in=psi), stack_message + r"\(2,\) in T$"),  # common never runs
        (partial(mixed, stacked, common, 0.0, psi_in=psi), stack_message + r"\(2,\) in T_A"),  # independent never runs
        # labels and psi_in go through the Circuit rules, for both circuits of the mixed scheme
        (partial(mixed, single, common, 0.5, psi_in=psi, input_label="Q_X"), r"prepared qubit 'Q_X' not in register"),
        (partial(mixed, single, common, 0.5, psi_in=psi, output_label="C_X"), r"no qubit labeled 'C_X'"),
        (partial(mixed, single, common, 1.0, psi_in=psi, output_label="T_A"), r"no qubit labeled 'T_A'"),
        (partial(mixed, single, common, 0.5, psi_in=np.array([1.0, 0, 0])), r"'Q_A' must be a length-2 vector"),
        (partial(mixed, single, common, 0.0, psi_in=np.array([2.0, 0])), r"'Q_A' has norm 2"),
        (partial(single_run, single, psi_in=np.array([2.0, 0])), r"'Q_A' has norm 2"),
        (partial(single_run, single, psi_in=psi, output_label="C_X"), r"no qubit labeled 'C_X'"),
        # trials is a non-negative int, checked before the circuit runs or the mixed scheme draws its picks
        (partial(single_run, single, psi_in=psi, trials=-1), r"trials must be a non-negative integer, got -1$"),
        (partial(single_run, single, psi_in=psi, trials=2.5), r"non-negative integer, got 2\.5$"),
        (partial(single_run, single, psi_in=psi, trials=True), r"non-negative integer, got True$"),
        (partial(mixed, single, common, 0.5, psi_in=psi, trials=-1), r"non-negative integer, got -1$"),
        (partial(mixed, single, common, 0.5, psi_in=psi, trials=np.int64(-3)), r"non-negative integer, got .*-3"),
        (partial(mixed, single, common, 0.5, psi_in=psi, trials=4.0), r"non-negative integer, got 4\.0$"),
        (partial(mixed, single, common, 0.5, psi_in=psi, trials=np.True_), r"non-negative integer, got .*True"),
    ):
        rng = np.random.default_rng(5)
        with pytest.raises(ValueError, match=message):
            sampler(seed=rng)
        assert rng.random() == np.random.default_rng(5).random()  # the generator was not drawn from
    for trials in (0, np.int64(2)):
        assert single_run(single, psi_in=psi, trials=trials, seed=1).shape == (trials, 2, 2)
        assert mixed(single, common, 0.5, psi_in=psi, trials=trials, seed=1).shape == (trials, 2, 2)


def test_zero_trials_give_an_empty_sample_and_draw_nothing():
    circuit_ind, circuit_com = build_scheme_independent(SchemeParams(0.3, 1.2)), build_scheme_common(SchemeParams())
    psi = bloch_state(0.8, 2.1)
    for sampler in (
        partial(sample_trajectories, circuit_ind, "Q_A", "C_B", psi),
        partial(sample_mixed_trajectories, circuit_ind, circuit_com, 0.5, "Q_A", "C_B", psi),
    ):
        rng = np.random.default_rng(5)
        state = rng.bit_generator.state
        empty = sampler(0, rng)
        assert empty.shape == (0, 2, 2) and empty.dtype == complex
        assert rng.bit_generator.state == state
        for seed in (3, np.random.default_rng(3)):
            one = sampler(1, seed)
            assert one.shape == (1, 2, 2) and one.dtype == complex
            assert abs(np.trace(one[0]) - 1.0) <= 1e-12
    single = sample_trajectories(circuit_ind, "Q_B", "C_A", psi, 1, 8)
    assert np.array_equal(single, sample_trajectories(circuit_ind, "Q_B", "C_A", psi, 9, 8)[:1])  # trials draw in turn


def test_samplers_take_a_non_negative_integer_or_a_generator_as_seed():
    circuit_ind, circuit_com = build_scheme_independent(SchemeParams()), build_scheme_common(SchemeParams())
    psi = bloch_state(0.8, 2.1)
    single = partial(sample_trajectories, circuit_ind, "Q_A", "C_B", psi, 4)
    mixed = partial(sample_mixed_trajectories, circuit_ind, circuit_com, 0.5, "Q_A", "C_B", psi, 4)
    legacy = np.random.RandomState(0)
    for seed in ("abc", 1.5, -1, np.int64(-2), None, True, np.float64(3.0), legacy):
        for sampler in (single, mixed):
            with pytest.raises(OutOfRange, match=r"^seed must be a non-negative integer or a np\.random\.Generator"):
                sampler(seed)
    assert legacy.random_sample() == np.random.RandomState(0).random_sample()  # not drawn from
    rng = np.random.default_rng(5)
    with pytest.raises(OutOfRange, match=r"^mixing weight t=1\.5 outside"):
        sample_mixed_trajectories(circuit_ind, circuit_com, 1.5, "Q_A", "C_B", psi, 4, rng)
    assert rng.random() == np.random.default_rng(5).random()  # a generator passed as seed is not drawn from
    for seed in (0, np.int64(7), 2**70, np.random.default_rng(7)):
        assert single(seed).shape == mixed(seed).shape == (4, 2, 2)


def test_a_sampler_builds_only_the_circuits_it_may_run(monkeypatch):
    # the circuit that runs checks psi_in and the input label: no circuit is built only to check them
    circuit_ind, circuit_com = build_scheme_independent(SchemeParams()), build_scheme_common(SchemeParams())
    psi = bloch_state(0.8, 2.1)
    built = []
    check = Circuit.__post_init__

    def counted_check(circuit):
        built.append(circuit)
        check(circuit)

    monkeypatch.setattr(Circuit, "__post_init__", counted_check)
    sample_trajectories(circuit_ind, "Q_A", "C_B", psi, trials=4, seed=3)
    assert len(built) == 1
    picks = np.random.default_rng(3).random(8) < 0.5
    assert picks.any() and not picks.all()  # both circuits run
    built.clear()
    sample_mixed_trajectories(circuit_ind, circuit_com, 0.5, "Q_A", "C_B", psi, trials=8, seed=3)
    assert len(built) == 2


@pytest.mark.parametrize("direction", DIRECTIONS)
@pytest.mark.parametrize("t", [0.0, 1.0])
def test_mixed_sampler_draws_as_the_single_sampler_of_the_picked_circuit(t, direction):
    circuit_ind = build_scheme_independent(SchemeParams(theta1=1.1, theta2=0.7))
    circuit_com = build_scheme_common(SchemeParams(theta=0.4))
    psi, endpoints = bloch_state(1.3, 0.5), channel_endpoints(direction)
    mixed = sample_mixed_trajectories(circuit_ind, circuit_com, t, *endpoints, psi, trials=30, seed=9)
    rng = np.random.default_rng(9)
    rng.random(30)  # the picks, every one of them the same circuit at t = 0 or 1
    single = sample_trajectories(circuit_ind if t else circuit_com, *endpoints, psi, trials=30, seed=rng)
    assert np.array_equal(mixed.view(np.uint64), single.view(np.uint64))


def test_invalid_channel_state_raises_package_error():
    bell = projector(bell_state())
    not_hermitian = bell + 1e-6j * np.triu(np.ones((4, 4)), 1)
    not_psd = np.diag([1.2, -0.2, 0.0, 0.0])
    not_trace_preserving = np.diag([1.0, 0.0, 0.0, 0.0])
    for bad in (not_hermitian, 2.0 * bell, not_psd, not_trace_preserving):
        with pytest.raises(BadChannelState):
            _validate_choi(bad)
    good = choi_of_channel(analytic_channel("common", SchemeParams(), A_TO_B))
    for bad, index in ((not_hermitian, 1), (2.0 * bell, 2), (not_psd, 0), (not_trace_preserving, 3)):
        stack = np.array([good] * 4)
        stack[index] = bad
        with pytest.raises(BadChannelState, match=f"matrix {index} of the stack"):
            _validate_choi(stack)


def test_mixed_sampling_matches_deterministic_channel():
    params = SchemeParams(t=0.5)
    circuit_ind = build_scheme_independent(params)
    circuit_com = build_scheme_common(params)
    psi = bloch_state(2.0, -0.3)
    samples = sample_mixed_trajectories(circuit_ind, circuit_com, 0.5, "Q_A", "C_B", psi, trials=2500, seed=21)
    choi = choi_mixed(0.5, extract_choi(circuit_ind, "Q_A", "C_B"), extract_choi(circuit_com, "Q_A", "C_B"))
    expected = apply_channel_from_choi(choi, projector(psi))
    _assert_within_three_sigma(samples, expected)


def test_array_angles_give_the_probabilities_of_math_bit_for_bit():
    # simulate prints p1, p2 and p, and verify's deviations are computed from them: an array field keeps the bits of
    # math.sin(x / 2) ** 2 in every entry, and a point keeps giving that Python float
    a = np.linspace(-7.0, 7.0, 200001)
    params = SchemeParams(theta1=a, theta2=a, theta=a)
    expected = np.array([math.sin(x / 2) ** 2 for x in a.tolist()]).view(np.uint64)
    for probability in (params.p1, params.p2, params.p):
        assert probability.shape == a.shape and np.array_equal(probability.view(np.uint64), expected)
    for x in a[::997].tolist():
        point = SchemeParams(theta1=x, theta2=x, theta=x)
        assert all(type(p) is float and p == math.sin(x / 2) ** 2 for p in (point.p1, point.p2, point.p))


def test_inputs_that_do_not_broadcast_raise_out_of_range():
    # one rule and one message for every array input: the caller's inputs and their (stack) shapes
    rho, two, three = choi_of_channel(0.5), [0.1, 0.2], [0.1, 0.2, 0.3]
    cases = (
        (lambda: info_report_from_choi([rho] * 3, two), "the stack of states and mixing weight t", "(3,), (2,)"),
        (lambda: choi_mixed(three, rho, [rho] * 2), "stacks of t, choi_ind and choi_com", "(3,), (), (2,)"),
        (lambda: trigger_joint_distribution(two, three), "trigger parameters (t, p1, p2, p)", "(2,), (3,), (), ()"),
        (lambda: SchemeParams(theta1=np.zeros(2), t=three), "fields (theta1, theta2, theta, t)", "(2,), (), (), (3,)"),
    )
    for call, name, shapes in cases:
        with pytest.raises(OutOfRange, match=rf"^{re.escape(f'{name} of shapes [{shapes}] do not broadcast')}$"):
            call()
    # inputs that broadcast give one entry per broadcast entry: one state at several t is one report per t
    report = info_report_from_choi(rho, two)
    assert np.array_equal(report.i_aux, [info_report_from_choi(rho, t).i_aux for t in two])
    assert np.array_equal(report.concurrence, [info_report_from_choi(rho, t).concurrence for t in two])


def test_scheme_params_grid_input_rules():
    # fields that do not broadcast together fail at construction
    shapes = r"^fields \(theta1, theta2, theta, t\) of shapes \[\(2,\), \(3,\), \(\), \(\)\] do not broadcast$"
    with pytest.raises(OutOfRange, match=shapes):
        SchemeParams(theta1=np.zeros(2), theta2=np.zeros(3))
    with pytest.raises(OutOfRange, match=r"of shapes \[\(\), \(\), \(2, 1\), \(3, 2\)\] do not broadcast$"):
        SchemeParams(theta=np.zeros((2, 1)), t=np.full((3, 2), 0.5))
    # the range rules run first and name the first bad entry; the broadcast check does not mask them
    with pytest.raises(OutOfRange, match=r"^mixing weight t=1\.5 outside \[0, 1\] \(entry 1 of the stack\)$"):
        SchemeParams(theta=np.zeros(2), t=np.array([0.5, 1.5, 0.2]))
    with pytest.raises(OutOfRange, match=r"^trigger angles .* must be finite$"):
        SchemeParams(theta1=np.zeros(2), theta2=np.array([0.1, np.inf, 0.2]))
    # a point's messages keep their text
    with pytest.raises(OutOfRange, match=r"^mixing weight t=1\.5 outside \[0, 1\]$"):
        SchemeParams(t=1.5)
    finite = r"^trigger angles \(theta1, theta2, theta\) = \(nan, 1\.5707963267948966, 1\.5707963267948966\) must be"
    with pytest.raises(OutOfRange, match=finite + " finite$"):
        SchemeParams(theta1=math.nan)
    # one object is a grid: the probabilities and the closed form broadcast its fields, a list field included
    thetas, ts = np.linspace(0.0, math.pi, 3), [0.0, 0.25, 1.0]
    grid = SchemeParams(theta1=thetas[:, None], theta2=thetas, t=ts)
    assert grid.p1.shape == (3, 1) and grid.p2.shape == (3,)
    q = analytic_channel("mixed", grid, A_TO_B)
    points = [[SchemeParams(a, b, t=t) for b, t in zip(thetas, ts)] for a in thetas]
    expected = [[analytic_channel("mixed", point, A_TO_B) for point in row] for row in points]
    assert q.shape == (3, 3) and q.tolist() == expected


def test_scheme_params_compare_and_hash_by_field_shape_and_values():
    thetas = np.linspace(0.0, math.pi, 3)
    grid = SchemeParams(theta1=thetas[:, None], theta2=thetas, t=[0.0, 0.25, 1.0])
    row = SchemeParams(theta=thetas)
    cases = [  # (a, b, equal): grids, rows, points, and a point against arrays
        (grid, SchemeParams(theta1=thetas[:, None].copy(), theta2=list(thetas), t=np.array([0.0, 0.25, 1.0])), True),
        (grid, SchemeParams(theta1=thetas[:, None], theta2=thetas, t=[0.0, 0.25, 0.5]), False),
        (grid, SchemeParams(theta1=thetas[None, :], theta2=thetas, t=[0.0, 0.25, 1.0]), False),  # same values, (1, 3)
        (row, SchemeParams(theta=thetas.copy()), True),
        (SchemeParams(theta=np.array([0.0, 1.0])), SchemeParams(theta=np.array([-0.0, 1.0])), True),
        (row, SchemeParams(theta=thetas[::-1]), False),
        (row, SchemeParams(theta=thetas[:2]), False),
        (SchemeParams(0.3, 0.4, t=0.5), SchemeParams(0.3, 0.4, t=0.5), True),
        (SchemeParams(0.0), SchemeParams(-0.0), True),
        (SchemeParams(1), SchemeParams(1.0), True),
        (SchemeParams(0.3), SchemeParams(0.4), False),
        (SchemeParams(theta=0.5), SchemeParams(theta=np.array(0.5)), True),  # a 0-d array is a point
        (SchemeParams(theta=0.5), SchemeParams(theta=np.array([0.5])), False),  # shape (1,) is a row
    ]
    for a, b, equal in cases:
        assert (a == b) is equal and (b == a) is equal and (a != b) is not equal, (a, b)
        if equal:
            assert hash(a) == hash(b), (a, b)
    assert len({grid, row, SchemeParams(), SchemeParams(), SchemeParams(theta=thetas.copy())}) == 3
    assert SchemeParams() != (math.pi / 2, math.pi / 2, math.pi / 2, 0.0)


def test_scheme_params_validation():
    with pytest.raises(OutOfRange):
        SchemeParams(t=1.2)
    for name in ("theta1", "theta2", "theta"):
        for value in (math.nan, math.inf, -math.inf, 10**400):  # 10**400 has no float value
            with pytest.raises(OutOfRange):
                SchemeParams(**{name: value})
    with pytest.raises(OutOfRange):
        SchemeParams.from_probabilities(p1=1.5)
    params = SchemeParams.from_probabilities(p1=0.25, p2=0.75, p=0.5)
    assert abs(params.p1 - 0.25) <= 1e-12
    assert abs(params.p2 - 0.75) <= 1e-12
    assert abs(params.p - 0.5) <= 1e-12


@pytest.mark.parametrize(
    "field",
    [
        {"theta1": "1"},
        {"t": "0.5"},
        {"theta": None},
        {"t": 0.5j},
        {"t": Fraction(1, 2)},
        {"t": np.array([0.2, 0.3j], dtype=object)},
        {"t": np.array([0.2, 0.3j])},
        {"theta": Fraction(1, 2)},
        {"theta1": Decimal("0.5")},
        {"theta2": np.array(["1"])},
    ],
    ids=repr,
)
def test_scheme_params_reject_a_value_that_is_not_a_real_number(field):
    # none is one bool, int or float; the package raises its own error, and at once, not when the trigger table reads t
    # or an angle is read
    with pytest.raises(OutOfRange, match="real number"):
        SchemeParams(**field)


def test_channel_endpoints():
    assert channel_endpoints(A_TO_B) == ("Q_A", "C_B")
    assert channel_endpoints(B_TO_A) == ("Q_B", "C_A")
    with pytest.raises(ValueError):
        channel_endpoints("sideways")
