"""The literal trajectory sampler against the exact table of its 16 measurement records.

``record_table`` runs the scheme circuit densely up to its four deferred corrections, projects the full register onto
each value of the record qubits (M_A1, M_A2, M_B1, M_B2) and applies that record's X/Z corrections to its own block.
That gives each record's probability and corrected output state with no correction gate and no sampler code.  The
sampler's own conditional probabilities and outputs must then match the table trial by trial, so a biased draw or a
mis-corrected record fails deterministically rather than by a 3-sigma margin.
"""
import itertools
import math
from functools import reduce

import numpy as np
import pytest
from dense import oracle_apply_gate

from bellbidir import protocols
from bellbidir.linalg import projector
from bellbidir.protocols import (
    A_TO_B,
    DIRECTIONS,
    SchemeParams,
    apply_channel_from_choi,
    build_scheme_common,
    build_scheme_independent,
    channel_endpoints,
    extract_choi,
)
from bellbidir.sim import Circuit, Gate, bloch_state, measure_qubit

RECORD_QUBITS = ("M_A1", "M_A2", "M_B1", "M_B2")
# A record bit of 1 calls for this correction on the receiving half of the Bell pair: M1 an X, M2 a Z after it.
CORRECTIONS = {"M_A1": ("X", "C_B"), "M_A2": ("Z", "C_B"), "M_B1": ("X", "C_A"), "M_B2": ("Z", "C_A")}
RECORDS = list(itertools.product((0, 1), repeat=4))
TOL = 1e-12


def record_table(circuit, input_label, output_label, psi_in):
    """Record -> probability and record -> corrected output density matrix (None where the record cannot occur)."""
    n, labels = circuit.num_qubits, circuit.labels
    ix = {label: i for i, label in enumerate(labels)}
    deferred = tuple(Gate("CNOT" if kind == "X" else "CZ", (ix[m], ix[q])) for m, (kind, q) in CORRECTIONS.items())
    assert circuit.gates[-4:] == deferred  # the scheme ends in its four deferred corrections, and only they go
    body = Circuit(n, labels, circuit.gates[:-4], {**circuit.prep, input_label: psi_in})
    psi = reduce(oracle_apply_gate, body.gates, body.initial_state()).reshape([2] * n)
    rest = [label for label in labels if label not in RECORD_QUBITS]
    psi = np.moveaxis(psi, [ix[m] for m in RECORD_QUBITS], range(4))  # (M_A1, M_A2, M_B1, M_B2, *rest)
    probs, outputs = {}, {}
    for record in RECORDS:
        block = psi[record]
        probs[record] = np.vdot(block, block).real
        for m, bit in zip(RECORD_QUBITS, record):
            kind, target = CORRECTIONS[m]
            if bit and kind == "X":
                block = np.flip(block, rest.index(target))
            elif bit:
                block = block * np.array([1.0, -1.0]).reshape([2 if q == target else 1 for q in rest])
        out = np.moveaxis(block, rest.index(output_label), 0).reshape(2, -1)
        outputs[record] = out @ out.conj().T / probs[record] if probs[record] > TOL else None
    return probs, outputs


def random_qubit(rng):
    return bloch_state(math.acos(rng.uniform(-1.0, 1.0)), rng.uniform(0.0, 2.0 * math.pi))


@pytest.mark.parametrize("direction", DIRECTIONS)
def test_the_record_table_is_the_channel(direction):
    rng = np.random.default_rng(61)
    endpoints = channel_endpoints(direction)
    for _ in range(6):
        params, psi = SchemeParams(*rng.uniform(-7.0, 7.0, 3)), random_qubit(rng)
        for circuit in (build_scheme_independent(params), build_scheme_common(params)):
            probs, outputs = record_table(circuit, *endpoints, psi)
            assert abs(sum(probs.values()) - 1.0) <= TOL
            mean = sum(probs[r] * outputs[r] for r in RECORDS if outputs[r] is not None)
            expected = apply_channel_from_choi(extract_choi(circuit, *endpoints), projector(psi))
            assert np.abs(mean - expected).max() <= TOL


def test_a_firing_alice_and_a_silent_bob_give_four_records_at_one_quarter():
    circuit = build_scheme_independent(SchemeParams(theta1=math.pi, theta2=0.0))
    probs, _ = record_table(circuit, "Q_A", "C_B", bloch_state(1.3, 0.4))
    occurring = [record for record in RECORDS if probs[record] > TOL]
    assert len(occurring) == 4 and all(record[2:] == (0, 0) for record in occurring)
    assert all(abs(probs[record] - 0.25) <= TOL for record in occurring)


def test_two_partly_firing_triggers_give_every_record():
    circuit = build_scheme_independent(SchemeParams(theta1=1.1, theta2=0.7))
    for direction in DIRECTIONS:
        probs, _ = record_table(circuit, *channel_endpoints(direction), bloch_state(1.3, 0.4))
        assert min(probs.values()) > 1e-3


def _trials(drawn, trials):
    """Per trial: its register size, its record and the product of its four conditional probabilities."""
    assert len(drawn) == 4 * trials
    for k in range(trials):
        sizes, outcomes, probs = zip(*drawn[4 * k : 4 * k + 4])
        assert len(set(sizes)) == 1
        yield sizes[0], outcomes, math.prod(probs)


def _assert_trial_matches_table(sample, record, prob, table):
    probs, outputs = table
    assert abs(prob - probs[record]) <= TOL, (record, prob, probs[record])
    assert np.abs(sample - outputs[record]).max() <= TOL, record


@pytest.fixture
def drawn(monkeypatch):
    """(register size, outcome, conditional probability) of every measurement the sampler makes, in order."""
    drawn = []

    def measure(state, index, rng):
        outcome, prob = measure_qubit(state, index, rng)
        drawn.append((state.size, outcome, prob))
        return outcome, prob

    monkeypatch.setattr(protocols, "measure_qubit", measure)
    return drawn


def test_every_trajectory_is_its_records_table_entry(drawn):
    rng = np.random.default_rng(62)
    points = [SchemeParams(theta1=math.pi, theta2=0.0), SchemeParams(theta1=1.1, theta2=0.7, theta=1.1)]
    points += [SchemeParams(*rng.uniform(-7.0, 7.0, 3)) for _ in range(3)]
    seen = set()
    for i, params in enumerate(points):
        circuits = (build_scheme_independent(params), build_scheme_common(params))
        for circuit, direction in itertools.product(circuits, DIRECTIONS):
            endpoints, psi = channel_endpoints(direction), random_qubit(rng)
            table = record_table(circuit, *endpoints, psi)
            drawn.clear()
            samples = protocols.sample_trajectories(circuit, *endpoints, psi, trials=300, seed=i)
            for sample, (_, record, prob) in zip(samples, _trials(drawn, 300)):
                _assert_trial_matches_table(sample, record, prob, table)
                seen.add((i, circuit.num_qubits, direction, record))
            if i == 0 and circuit.num_qubits == 10:  # Alice fires and Bob is silent: only her four records occur
                drew = {record for j, n, d, record in seen if (j, n, d) == (0, 10, direction)}
                assert drew == {record for record in RECORDS if record[2:] == (0, 0)}
    assert len(seen) > 10 * len(points)  # the trials reach many records, not only the likeliest


@pytest.mark.parametrize("t", [0.3, 0.8])
def test_every_mixed_trajectory_is_its_records_table_entry(drawn, t):
    rng = np.random.default_rng(63)
    circuit_ind = build_scheme_independent(SchemeParams(theta1=1.1, theta2=0.7))
    circuit_com = build_scheme_common(SchemeParams(theta=2.3))
    psi = random_qubit(rng)
    endpoints = channel_endpoints(A_TO_B)
    tables = {2**c.num_qubits: record_table(c, *endpoints, psi) for c in (circuit_ind, circuit_com)}
    samples = protocols.sample_mixed_trajectories(circuit_ind, circuit_com, t, *endpoints, psi, trials=400, seed=5)
    picks = np.random.default_rng(5).random(400) < t  # the independent circuit's trials come first, in order
    order = np.concatenate((np.flatnonzero(picks), np.flatnonzero(~picks)))
    sizes = []
    for k, (size, record, prob) in zip(order, _trials(drawn, 400)):
        _assert_trial_matches_table(samples[k], record, prob, tables[size])
        sizes.append(size)
    assert sizes == [2**circuit_ind.num_qubits] * picks.sum() + [2**circuit_com.num_qubits] * (~picks).sum()
