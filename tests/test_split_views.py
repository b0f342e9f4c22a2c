"""The split-axis register views address the same amplitudes as a view with one length-2 axis per qubit.

Each oracle below indexes an n-qubit register as ``reshape([2] * n)`` through an n-entry index tuple; the kernels of
``bellbidir.sim`` and ``linalg.partial_trace`` give only the qubits they name an axis each (``linalg._split``).  Only
the addressing differs, never the order of a sum, so every comparison is of ``uint64`` views.
"""
import math

import numpy as np
import pytest
from dense import _ix, oracle_apply_gate

from bellbidir import protocols
from bellbidir.linalg import _split, partial_trace
from bellbidir.protocols import SchemeParams, build_scheme_common, build_scheme_independent
from bellbidir.sim import GATE_ARITY, Gate, _apply_in_place, bloch_state, measure_qubit, project_qubit
from bellbidir.sim import reduced_density_matrix


def oracle_measure_qubit(state, index, rng):
    n = state.shape[-1].bit_length() - 1
    psi = np.asarray(state, dtype=complex).reshape([2] * n)
    halves = [psi[_ix(n, {index: k})] for k in (0, 1)]
    weights = [np.vdot(half, half).real for half in halves]
    total = weights[0] + weights[1]
    outcome = int(rng.random() < weights[1] / total)
    collapsed = np.zeros_like(psi)
    collapsed[_ix(n, {index: outcome})] = halves[outcome] / math.sqrt(weights[outcome])
    return outcome, collapsed.reshape(-1), weights[outcome] / total


def oracle_project_qubit(state, index, outcome):
    n = state.shape[-1].bit_length() - 1
    psi = np.asarray(state, dtype=complex).reshape([2] * n)
    half = psi[_ix(n, {index: outcome})]
    collapsed = np.zeros_like(psi)
    collapsed[_ix(n, {index: outcome})] = half / math.sqrt(np.vdot(half, half).real)
    return collapsed.reshape(-1)


def oracle_reduced_density_matrix(state, keep):
    n = state.shape[-1].bit_length() - 1
    order = list(keep) + [q for q in range(n) if q not in keep]
    psi = state.reshape(-1, *[2] * n).transpose(0, *[1 + q for q in order])
    psi = psi.astype(complex, order="C").reshape(*state.shape[:-1], 2 ** len(keep), -1)
    return psi @ (psi if not np.iscomplexobj(state) else psi.conj()).swapaxes(-1, -2)


def oracle_partial_trace(rho, n, keep):
    order = list(keep) + [q for q in range(n) if q not in keep]
    lead, dk = rho.shape[:-2], 2 ** len(keep)
    perm = [len(lead) + q for q in order]
    blocks = rho.reshape(*lead, *[2] * (2 * n)).transpose([*range(len(lead)), *perm, *[n + p for p in perm]])
    return np.einsum("...aibi->...ab", blocks.reshape(*lead, dk, 2**n // dk, dk, 2**n // dk))


def bits(a):
    return np.ascontiguousarray(a).view(np.uint64)


def random_registers(n, rng):
    """One register and a (2, 3) stack of them, each real and complex, every entry nonzero."""
    for stack in ((), (2, 3)):
        real = rng.normal(size=(*stack, 2**n))
        yield real
        yield real + 1j * rng.normal(size=real.shape)


@pytest.mark.parametrize("n", range(1, 12))
def test_apply_in_place_equals_the_n_axis_route_bit_for_bit(n):
    # every kind but H, which only the plan applies; run_circuit's tests check the plan's H against the oracle
    rng = np.random.default_rng(100 + n)
    kinds = [kind for kind, arity in GATE_ARITY.items() if arity <= n and kind != "H"]
    for state in random_registers(n, rng):
        for kind in kinds:
            for _ in range(3):
                gate = Gate(kind, tuple(int(q) for q in rng.choice(n, GATE_ARITY[kind], replace=False)))
                got = state.copy()
                _apply_in_place(got, gate, n)
                assert got.dtype == state.dtype
                assert np.array_equal(bits(got), bits(oracle_apply_gate(state, gate))), (kind, gate.qubits)


def assert_measure_qubit_equals_the_oracle(state, index, seed):
    """``measure_qubit``'s outcome and probability, and ``project_qubit``'s register after it, against the oracle's."""
    outcome, prob = measure_qubit(state, index, np.random.default_rng(seed))
    collapsed = project_qubit(state, index, outcome)
    expected = oracle_measure_qubit(state, index, np.random.default_rng(seed))
    assert outcome == expected[0]
    assert np.array_equal(bits(collapsed), bits(expected[1]))
    assert np.array_equal(bits(np.float64(prob)), bits(np.float64(expected[2])))


@pytest.mark.parametrize("n", range(1, 12))
def test_measure_qubit_equals_the_n_axis_route_bit_for_bit(n):
    rng = np.random.default_rng(200 + n)
    for state in list(random_registers(n, rng))[:2]:  # measure_qubit takes one register
        for index in range(n):
            assert_measure_qubit_equals_the_oracle(state, index, int(rng.integers(2**32)))


def sparse_registers(n, rng):
    """A real and a complex register whose parts are exact 0.0 or -0.0 (one at least) but in one amplitude of ten."""
    for state in list(random_registers(n, rng))[:2]:
        parts = state.view(np.float64).reshape(state.size, -1)  # an amplitude's real part, and imaginary part if any
        zeroed = rng.permutation(state.size)[max(1, state.size // 10) :]
        parts[zeroed] = np.copysign(0.0, rng.normal(size=parts[zeroed].shape))
        parts[zeroed[0]] = -0.0
        yield state


@pytest.mark.parametrize("n", range(1, 12))
def test_measure_qubit_equals_the_n_axis_route_on_signed_zeros_bit_for_bit(n):
    rng = np.random.default_rng(250 + n)
    for state in sparse_registers(n, rng):
        for index in range(n):
            for _ in range(2):
                assert_measure_qubit_equals_the_oracle(state, index, int(rng.integers(2**32)))


def to_front(state, q):
    """A C-ordered copy of one register with qubit q moved to the front, as the trajectory sampler measures it."""
    shape, axes = _split(state.shape[-1].bit_length() - 1, (q,))
    return np.ascontiguousarray(state.reshape(shape).transpose(axes)).reshape(-1)


@pytest.mark.parametrize("n", range(1, 12))
def test_measure_qubit_at_the_front_of_a_moved_register_keeps_its_bits(n):
    # The sampler measures each record qubit at index 0 of a moved copy: its halves are contiguous rows holding the
    # amplitudes that measure_qubit's copy of each half holds in place, in the same order.  The last qubit of two or
    # more is excluded: there each half is one stride-2 run, which np.vdot sums in place, in another order.
    rng = np.random.default_rng(500 + n)
    for state in [*list(random_registers(n, rng))[:2], *sparse_registers(n, rng)]:
        for q in range(max(n - 1, 1)):
            seed = int(rng.integers(2**32))
            outcome, prob = measure_qubit(state, q, np.random.default_rng(seed))
            moved = to_front(state, q)
            assert moved.flags.c_contiguous and moved.dtype == state.dtype
            got = measure_qubit(moved, 0, np.random.default_rng(seed))
            assert got[0] == outcome and np.array_equal(bits(np.float64(got[1])), bits(np.float64(prob))), q


def test_no_record_qubit_is_the_last_of_its_register():
    # so the invariant above covers every qubit the sampler moves to the front
    params = SchemeParams(1.1, 0.7, 0.4)
    for circuit in (build_scheme_independent(params), build_scheme_common(params)):
        for direction in ("ab", "ba"):
            endpoints = protocols.channel_endpoints(direction)
            stripped, corrections, _ = protocols._sampler_setup(circuit, *endpoints, bloch_state(1.1, 0.4), 0)
            assert len(corrections) == 4 and all(q < stripped.num_qubits - 1 for q, _ in corrections)


def test_measure_qubit_equals_the_n_axis_route_on_the_samplers_registers_bit_for_bit(monkeypatch):
    measured = []  # every (register, qubit) the literal sampler measures

    def capture(state, index, rng):
        measured.append((state, index))
        return measure_qubit(state, index, rng)

    monkeypatch.setattr(protocols, "measure_qubit", capture)
    rng = np.random.default_rng(32)
    for i, direction in enumerate(["ab", "ba"] * 4):
        params = SchemeParams(*rng.uniform(-7.0, 7.0, 3))
        circuit = (build_scheme_independent if i % 2 else build_scheme_common)(params)
        psi = bloch_state(1.1, 0.4 * (i >= 4))  # with a real input and real triggers, the first register is real
        protocols.sample_trajectories(circuit, *protocols.channel_endpoints(direction), psi, 8, seed=i)
    registers = {(state.tobytes(), state.dtype, index): (state, index) for state, index in measured}
    assert {state.dtype for state, _ in registers.values()} == {np.dtype(float), np.dtype(complex)}
    parts = np.concatenate([state.view(np.float64) for state, _ in registers.values()])
    assert np.signbit(parts[parts == 0]).any() and (parts == 0).mean() > 0.5  # sparse, with exact -0.0 entries
    for state, index in registers.values():
        for seed in range(3):
            assert_measure_qubit_equals_the_oracle(state, index, seed)


@pytest.mark.parametrize("n", range(1, 12))
def test_reduced_density_matrix_equals_the_n_axis_route_bit_for_bit(n):
    rng = np.random.default_rng(300 + n)
    keeps = [[int(q) for q in rng.choice(n, size, replace=False)] for size in range(1, min(n, 4) + 1)]
    if n == 11:
        keeps += [[10, 2], [2, 10], [10, 0, 5]]
    for state in random_registers(n, rng):
        for keep in keeps:
            got = reduced_density_matrix(state, keep)
            assert np.array_equal(bits(got), bits(oracle_reduced_density_matrix(state, keep))), keep


@pytest.mark.parametrize("n", range(1, 6))
def test_partial_trace_equals_the_n_axis_route_bit_for_bit(n):
    rng = np.random.default_rng(400 + n)
    keeps = [[int(q) for q in rng.choice(n, size, replace=False)] for size in range(1, n + 1)] + [[n - 1, 0]] * (n > 1)
    for stack in ((), (3,)):
        psi = rng.normal(size=(*stack, 2**n, 2)) + 1j * rng.normal(size=(*stack, 2**n, 2))
        rho = psi @ psi.conj().swapaxes(-1, -2)  # a rank-2 density matrix, up to its trace
        for keep in keeps:
            got = partial_trace(rho, n, keep)
            assert np.array_equal(bits(got), bits(oracle_partial_trace(rho, n, keep))), keep


def test_trajectory_samples_equal_the_n_axis_route_bit_for_bit(monkeypatch):
    rng = np.random.default_rng(31)
    params = SchemeParams(*rng.uniform(-7.0, 7.0, 3))
    circuit_ind, circuit_com = build_scheme_independent(params), build_scheme_common(params)
    psi = bloch_state(1.1, 0.4)
    cases = [
        lambda: protocols.sample_trajectories(circuit_ind, "Q_A", "C_B", psi, 60, seed=5),
        lambda: protocols.sample_trajectories(circuit_com, "Q_B", "C_A", psi, 60, seed=6),
        lambda: protocols.sample_mixed_trajectories(circuit_ind, circuit_com, 0.4, "Q_A", "C_B", psi, 60, seed=7),
    ]
    got = [case() for case in cases]
    calls, drawn = [], []  # the name of every oracle call; (register size, outcome) of every measurement
    measured, projected, runs = [], [], []  # (register, index) of every measurement; every projection; circuit run
    oracles = {
        "_apply_in_place": lambda psi, gate, n: np.copyto(psi, oracle_apply_gate(psi, gate)),  # in place
        "measure_qubit": lambda state, index, rng: oracle_measure_qubit(state, index, rng)[::2],  # (outcome, prob)
        "project_qubit": oracle_project_qubit,
        "reduced_density_matrix": oracle_reduced_density_matrix,
    }

    def wrap(name, oracle):
        def call(*args):
            calls.append(name)
            result = oracle(*args)
            if name == "measure_qubit":
                drawn.append((args[0].size, result[0]))
                measured.append(args[:2])
            if name == "project_qubit":
                projected.append(result)  # corrected in place afterwards, if at all
            return result

        return call

    for name, oracle in oracles.items():
        monkeypatch.setattr(protocols, name, wrap(name, oracle))
    run_circuit = protocols.run_circuit
    monkeypatch.setattr(protocols, "run_circuit", lambda *args: runs.append(run_circuit(*args)) or runs[-1])
    # per call and register (the mixed call draws on two): records, prefixes, 1-ending prefixes, measured prefixes
    records, prefixes, corrected, stems = set(), set(), set(), set()
    for i, (case, samples) in enumerate(zip(cases, got)):
        start = len(drawn)
        assert np.array_equal(bits(samples), bits(case()))
        for k in range(start, len(drawn), 4):
            (size, *_), record = zip(*drawn[k : k + 4])
            records.add((i, size, record))
            prefixes.update((i, size, record[: d + 1]) for d in range(4))
            corrected.update((i, size, record[: d + 1]) for d in range(4) if record[d] == 1)
            stems.update((i, size, record[:d]) for d in range(4))
    # each trajectory is measured; each distinct prefix is projected and corrected once, and each distinct record
    # reduced once
    assert calls.count("measure_qubit") == 4 * 180 and calls.count("reduced_density_matrix") == len(records)
    assert calls.count("project_qubit") == len(prefixes) < 4 * 180
    assert calls.count("_apply_in_place") == len(corrected) > 0
    # each prefix shorter than a record is measured at index 0 of one C-ordered copy of its register, made for it
    # alone, with the next record qubit in front: replay the draws of each circuit run (consecutive runs differ in
    # size) against the run's register and the projections in the order they were made
    record_qubits = {2**c.num_qubits: [q for q, _ in protocols._sampler_setup(c, "Q_A", "C_B", psi, 0)[1]]
                     for c in (circuit_ind, circuit_com)}
    projections, k, leading = iter(projected), 0, set()
    for i, size in [(0, 2**10), (1, 2**9), (2, 2**10), (2, 2**9)]:  # the runs of each call, in order
        registers = {(): runs.pop(0)}
        assert registers[()].size == size
        while k < len(drawn) and drawn[k][0] == size:
            record = ()
            for state, index in measured[k : k + 4]:
                assert index == 0 and state.flags.c_contiguous
                assert np.array_equal(bits(state), bits(to_front(registers[record], record_qubits[size][len(record)])))
                leading.add((i, size, id(state)))  # every measured register is held in measured, so ids are unique
                record += (drawn[k + len(record)][1],)
                if record not in registers:
                    registers[record] = next(projections)
            k += 4
    assert k == len(drawn) and not runs and next(projections, None) is None
    assert len(leading) == len(stems)
