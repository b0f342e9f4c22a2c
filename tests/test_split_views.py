"""The split-axis register views address the same amplitudes as a view with one length-2 axis per qubit.

Each oracle below indexes an n-qubit register as ``reshape([2] * n)`` through an n-entry index tuple; the kernels of
``bellbidir.sim`` and ``linalg.partial_trace`` give only the qubits they name an axis each (``linalg._split``).  Only
the addressing differs, never the order of a sum, so every comparison is of ``uint64`` views.
"""
import math
from functools import reduce

import numpy as np
import pytest
from dense import _ix, oracle_apply_gate, oracle_reduced_density_matrix
from test_record_table import CORRECTIONS, RECORD_QUBITS

from bellbidir import protocols
from bellbidir.linalg import _split, partial_trace
from bellbidir.protocols import SchemeParams, build_scheme_common, build_scheme_independent
from bellbidir.sim import GATE_ARITY, Circuit, Gate, _apply_in_place, bloch_state, measure_qubit
from bellbidir.sim import run_circuit, run_reduced


def oracle_measure_qubit(state, index, rng):
    n = state.shape[-1].bit_length() - 1
    psi = np.asarray(state, dtype=complex).reshape([2] * n)
    weights = [np.vdot(half, half).real for half in (psi[_ix(n, {index: k})] for k in (0, 1))]
    total = weights[0] + weights[1]
    outcome = int(rng.random() < weights[1] / total)
    return outcome, weights[outcome] / total


def oracle_keep_front(state, outcome):
    """The register left when qubit 0 of ``state`` is measured at ``outcome``: that half over the root of its weight."""
    n = state.shape[-1].bit_length() - 1
    half = np.asarray(state, dtype=complex).reshape([2] * n)[outcome]
    return (half / math.sqrt(np.vdot(half, half).real)).reshape(-1)


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
    """``measure_qubit``'s outcome and probability against the oracle's."""
    outcome, prob = measure_qubit(state, index, np.random.default_rng(seed))
    expected = oracle_measure_qubit(state, index, np.random.default_rng(seed))
    assert outcome == expected[0]
    assert np.array_equal(bits(np.float64(prob)), bits(np.float64(expected[1])))


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
    """A C-ordered copy of one register with qubit q moved to the front."""
    shape, axes = _split(state.shape[-1].bit_length() - 1, (q,))
    return np.ascontiguousarray(state.reshape(shape).transpose(axes)).reshape(-1)


@pytest.mark.parametrize("n", range(1, 12))
def test_measure_qubit_at_the_front_of_a_moved_register_keeps_its_bits(n):
    # At index 0 of a moved copy, the halves are contiguous rows holding the amplitudes that measure_qubit's copy of
    # each half holds in place, in the same order.  The last qubit of two or more is excluded: there each half is one
    # stride-2 run, which np.vdot sums in place, in another order.
    rng = np.random.default_rng(500 + n)
    for state in [*list(random_registers(n, rng))[:2], *sparse_registers(n, rng)]:
        for q in range(max(n - 1, 1)):
            seed = int(rng.integers(2**32))
            outcome, prob = measure_qubit(state, q, np.random.default_rng(seed))
            moved = to_front(state, q)
            assert moved.flags.c_contiguous and moved.dtype == state.dtype
            got = measure_qubit(moved, 0, np.random.default_rng(seed))
            assert got[0] == outcome and np.array_equal(bits(np.float64(got[1])), bits(np.float64(prob))), q


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
def test_run_reduced_equals_the_n_axis_route_bit_for_bit(n):
    # every qubit prepared, so the register is dense; the reference runs the same gates over the full register and
    # reduces it by the n-axis route
    rng = np.random.default_rng(300 + n)
    labels = tuple(f"q{i}" for i in range(n))
    keeps = [[int(q) for q in rng.choice(n, size, replace=False)] for size in range(1, min(n, 4) + 1)]
    if n == 11:
        keeps += [[10, 2], [2, 10], [10, 0, 5]]
    kinds = [kind for kind, arity in GATE_ARITY.items() if arity <= n]
    kinds = [kinds[i] for i in rng.integers(len(kinds), size=2 * n)]
    circuit = Circuit(n, labels, tuple(Gate(k, tuple(rng.choice(n, GATE_ARITY[k], replace=False))) for k in kinds))
    for imaginary, stacked in ((0.0, False), (1.0, False), (1.0, True)):  # real, complex, and a (2, 3) stack on q0
        kets = rng.normal(size=(n, 2)) + 1j * imaginary * rng.normal(size=(n, 2))
        prep = {label: ket / np.linalg.norm(ket) for label, ket in zip(labels, kets)}
        if stacked:
            prep["q0"] = np.array([prep["q0"] * np.exp(1j * phase) for phase in rng.uniform(0, 6, 6)]).reshape(2, 3, 2)
        prepared = Circuit(n, labels, (), prep)
        full = run_circuit(circuit, prepared.initial_state())
        assert np.iscomplexobj(full) == bool(imaginary) and full.shape == (2, 3) * stacked + (2**n,)
        for keep in keeps:
            got = run_reduced(circuit, keep, prepared.prep)
            assert np.array_equal(bits(got), bits(oracle_reduced_density_matrix(full, keep))), keep


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
    events = []  # (name, arguments, result) of every oracle call, run and draw, as each returns; each holds its arrays
    oracles = {
        "_apply_in_place": lambda psi, gate, n: np.copyto(psi, oracle_apply_gate(psi, gate)),  # in place
        "measure_qubit": oracle_measure_qubit,
        "_run": protocols._run,  # itself, to hold each run
        "_draw_trajectories": protocols._draw_trajectories,  # itself, to hold each run's outputs
    }

    def wrap(name, oracle):
        def call(*args):
            result = oracle(*args)
            events.append((name, args, result))
            return result

        return call

    for name, oracle in oracles.items():
        monkeypatch.setattr(protocols, name, wrap(name, oracle))
    for case, samples in zip(cases, got):
        assert np.array_equal(bits(samples), bits(case()))
    # replay every run against registers built by the n-axis route: the gate chain with the record qubits in front, in
    # the order they are measured, and per new record prefix the half kept, then corrected for a 1; then every
    # trial's output against the reduction of its record's register
    setups = iter([(circuit_ind, "Q_A", "C_B"), (circuit_com, "Q_B", "C_A"), (circuit_ind, "Q_A", "C_B"),
                   (circuit_com, "Q_A", "C_B")])  # per run: the mixed call runs each circuit once
    runs, drawn, corrected, measured = 0, 0, set(), set()
    for name, args, result in events:
        if name == "_run":
            (circuit, source, output), runs = next(setups), runs + 1
            n, labels = circuit.num_qubits, circuit.labels
            rest = [label for label in labels if label not in RECORD_QUBITS]
            order = [labels.index(label) for label in (*RECORD_QUBITS, *rest)]
            body = Circuit(n, labels, circuit.gates[:-4], {**circuit.prep, source: psi})  # less its corrections
            gates, size, _, _, keep, _ = args
            assert gates == body.gates and size == n and keep == tuple(order[:4])
            chain = reduce(oracle_apply_gate, body.gates, body.initial_state())
            registers = {(): chain.reshape([2] * n).transpose(order).reshape(-1)}
            assert np.array_equal(bits(result), bits(registers[()]))
            record, trials = (), []
        elif name == "measure_qubit":
            record = () if len(record) == 4 else record
            state, index, _ = args
            assert index == 0 and state.flags.c_contiguous and state.size == 2 ** (n - len(record))  # sizes halve
            assert np.array_equal(bits(state), bits(registers[record]))
            measured.add((runs, record, id(state)))  # every measured register is held in events, so ids are unique
            record += (result[0],)
            if record not in registers:
                registers[record] = oracle_keep_front(registers[record[:-1]], result[0])
                if result[0] == 1:
                    kind, target = CORRECTIONS[RECORD_QUBITS[len(record) - 1]]
                    gate = Gate(kind, (len(RECORD_QUBITS) - len(record) + rest.index(target),))
                    registers[record] = oracle_apply_gate(registers[record], gate)
                    corrected.add((runs, record, gate, n - len(record)))
            if len(record) == 4:
                trials.append(record)
        elif name == "_apply_in_place":
            state, gate, size = args
            assert (runs, record, gate, size) in corrected and np.array_equal(bits(state), bits(registers[record]))
        else:  # the draw of this run: each trial's row of the batched product is the reduction of its record's register
            drawn += 1
            assert args[3] == rest.index(output) and len(result) == len(trials) > 0
            for sample, record in zip(result, trials):
                expected = oracle_reduced_density_matrix(registers[record], [rest.index(output)])
                assert np.array_equal(bits(sample), bits(expected)), record
    assert runs == drawn == 4 and next(setups, None) is None
    calls = [name for name, _, _ in events]
    assert calls.count("measure_qubit") == 4 * 180
    assert len(measured) == len({(i, record) for i, record, _ in measured}) < 4 * 180  # one register per prefix
    assert calls.count("_apply_in_place") == len(corrected) > 0
