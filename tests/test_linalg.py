import re
from dataclasses import astuple
from fractions import Fraction
from functools import partial

import numpy as np
import pytest

from bellbidir.channels import analytic_channel, weight_from_choi
from bellbidir.errors import BadIndex, BadMatrix, NonHermitianInput, NotPSD, OutOfRange
from bellbidir.infotheory import classical_accessible_info, info_report_from_choi, shannon_mutual_information
from bellbidir.linalg import partial_trace, projector, psd_eigenvalues, trace_distance
from bellbidir.protocols import SchemeParams, apply_channel_from_choi, choi_mixed
from bellbidir.sim import CNOT, Circuit, Gate, H, bell_state, measure_qubit
from bellbidir.sim import run_circuit, run_reduced

I2 = np.eye(2, dtype=complex)


def random_psd(dim, rng):
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return a @ a.conj().T


def random_pure_state(num_qubits, rng):
    psi = rng.normal(size=2**num_qubits) + 1j * rng.normal(size=2**num_qubits)
    return psi / np.linalg.norm(psi)


# The square root that first applied these two cases is folded into the concurrence kernel;
# the validity rule that rejects them is psd_eigenvalues, at every size, not only 4x4.
def test_matrix_sqrt_psd_rejects_non_hermitian():
    with pytest.raises(NonHermitianInput):
        psd_eigenvalues(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_matrix_sqrt_psd_rejects_negative():
    with pytest.raises(NotPSD):
        psd_eigenvalues(np.diag([1.0, -0.1]))


def test_psd_eigenvalues_applies_the_validity_rule():
    # noise below the tolerance passes unclamped
    assert np.array_equal(psd_eigenvalues(np.diag([4.0, 1.0, 0.0, -5e-11])), [-5e-11, 0.0, 1.0, 4.0])


def test_partial_trace_bell_marginals():
    bell = projector(bell_state())
    assert np.abs(partial_trace(bell, 2, [0]) - I2 / 2).max() <= 1e-12
    assert np.abs(partial_trace(bell, 2, [1]) - I2 / 2).max() <= 1e-12


def test_partial_trace_product_state():
    rho0 = I2 / 2
    assert np.abs(partial_trace(np.kron(rho0, rho0), 2, [1]) - rho0).max() <= 1e-12


def test_partial_trace_channel_state_reference_is_maximally_mixed():
    # fully correlated triggers: q = 1/2 mixture of the Bell projector with I/4
    state = 0.5 * projector(bell_state()) + 0.5 * np.eye(4) / 4
    assert np.abs(partial_trace(state, 2, [0]) - I2 / 2).max() <= 1e-12


def test_partial_trace_keep_order():
    a = np.diag([0.2, 0.8]).astype(complex)
    b = np.diag([0.7, 0.3]).astype(complex)
    rho = np.kron(a, b)
    assert np.abs(partial_trace(rho, 2, [0, 1]) - rho).max() <= 1e-12
    assert np.abs(partial_trace(rho, 2, [1, 0]) - np.kron(b, a)).max() <= 1e-12


def test_partial_trace_preserves_trace():
    rng = np.random.default_rng(3)
    for _ in range(20):
        rho = random_psd(8, rng)
        rho /= np.trace(rho)
        reduced = partial_trace(rho, 3, [1])
        assert abs(np.trace(reduced) - 1.0) <= 1e-12


def test_partial_trace_schmidt_spectra_match():
    rng = np.random.default_rng(23)
    for _ in range(30):
        psi = random_pure_state(3, rng)
        rho = projector(psi)
        left = np.linalg.eigvalsh(partial_trace(rho, 3, [0]))
        right = np.linalg.eigvalsh(partial_trace(rho, 3, [1, 2]))
        left = np.sort(left[left > 1e-12])
        right = np.sort(right[right > 1e-12])
        assert len(left) == len(right)
        assert np.abs(left - right).max() <= 1e-10


def test_partial_trace_bad_indices():
    rho = np.eye(4) / 4
    with pytest.raises(BadIndex):
        partial_trace(rho, 2, [0, 0])
    with pytest.raises(BadIndex):
        partial_trace(rho, 2, [2])


def test_trace_distance():
    assert trace_distance(I2, I2) == 0.0
    assert abs(trace_distance(np.diag([1.0, 0.0]), np.diag([0.0, 1.0])) - 1.0) <= 1e-12
    a = np.array([I2, np.diag([1.0, 0.0]), np.diag([0.3, 0.7])])
    b = np.array([I2, np.diag([0.0, 1.0]), np.diag([0.5, 0.5])])
    stacked = trace_distance(a, b)
    assert stacked.shape == (3,)
    assert stacked.tolist() == [trace_distance(x, y) for x, y in zip(a, b)]


def test_trace_distance_rejects_a_difference_that_is_not_finite_and_hermitian():
    # eigvalsh reads one triangle: unchecked, [[0, 1], [0, 0]] and its transpose read 0 and 1, NaN reads 0 or nan,
    # and inf - inf warns before it reads nan
    upper, zero = np.array([[0.0, 1.0], [0.0, 0.0]]), np.zeros((2, 2))
    for a, b in ((upper, zero), (upper.T, zero), (zero, upper)):
        with pytest.raises(NonHermitianInput, match=r"^a - b deviates from Hermitian by 1\.000e\+00 \(tol 1e-10\)$"):
            trace_distance(a, b)
    for value in (np.nan, np.inf):
        bad = np.diag([value, 0.0])
        for a, b in ((bad, zero), (zero, bad), (bad, bad)):
            with pytest.raises(NonHermitianInput, match=r"^a - b has a NaN or infinite entry$"):
                trace_distance(a, b)
    stack = np.array([I2, I2, I2]) / 2
    shifted = stack.copy()
    shifted[1, 0, 1] += 1e-9
    with pytest.raises(NonHermitianInput, match=r"by 1\.000e-09 \(tol 1e-10\) \(matrix 1 of the stack\)$"):
        trace_distance(stack, shifted)
    # a difference Hermitian within the tolerance, as of two validated channel states, passes
    shifted[1, 0, 1] = stack[1, 0, 1] + 1e-11
    assert np.all(trace_distance(stack, shifted) <= 1e-10)


def test_trace_distance_takes_one_matrix_size_in_stacks_that_broadcast():
    # a size mismatch names both shapes, and a 1x1 operand must not broadcast against a larger matrix
    stack2, stack3 = np.array([I2] * 2) / 2, np.array([I2] * 3) / 2
    for a, b in ((I2, np.eye(4)), (np.eye(4), I2), (stack2, stack3), (np.ones((1, 1)), I2), (np.eye(4), stack2)):
        shapes = re.escape(f"got {a.shape} and {b.shape}")
        with pytest.raises(BadMatrix, match=rf"^trace_distance takes one matrix size in stacks that broadcast, {shapes}$"):
            trace_distance(a, b)
    # one matrix against a stack, and stacks whose axes broadcast, pair as numpy broadcasts them
    assert trace_distance(I2 / 2, stack3).tolist() == [0.0] * 3
    assert trace_distance(stack2[:, None], stack3[None]).shape == (2, 3)


@pytest.mark.parametrize("keep", [[0.7], [1.0], [0, 1.0], [True], [np.False_], ["0"], 0], ids=repr)
def test_partial_trace_rejects_a_keep_that_is_not_integers(keep):
    # an index is a Python or numpy integer, never a bool: 0.7 must not be truncated to qubit 0
    with pytest.raises(BadIndex):
        partial_trace(np.eye(4) / 4, 2, keep)


def test_partial_trace_rejects_a_qubit_count_that_is_not_a_non_negative_integer():
    for count in (2.0, np.float64(2.0), "2", True, -1):
        with pytest.raises(OutOfRange, match="num_qubits must be a non-negative integer"):
            partial_trace(np.eye(4) / 4, count, [0])
    assert np.array_equal(partial_trace(np.eye(4) / 4, np.int64(2), [0]), np.eye(2) / 2)


def test_matrix_and_state_inputs_take_only_numbers_of_their_size():
    # numpy would parse "1" as a number, or raise its own error; every matrix and state input applies one rule first
    rho, choi, circuit = np.eye(2) / 2, np.eye(4) / 4, Circuit(1, ("a",), ())
    inputs = {  # the call, and an input of the wrong size for it
        partial(info_report_from_choi, t=0.5): np.ones(3),
        partial(info_report_from_choi, t=0.5): rho,  # a second key, for a second wrong size
        classical_accessible_info: rho,
        weight_from_choi: np.eye(2),
        partial(choi_mixed, 0.5, choi): rho,
        partial(choi_mixed, 0.5, choi_com=choi): rho,
        partial(apply_channel_from_choi, rho_in=rho): rho,
        partial(apply_channel_from_choi, choi): choi,
        psd_eigenvalues: np.ones((2, 3)),
        partial(psd_eigenvalues): np.ones(4),
        partial(partial_trace, num_qubits=2, keep=[0]): rho,
        partial(trace_distance, rho): np.ones(2),
        projector: np.float64(1.0),
        lambda state: Circuit(1, ("a",), (), prep={"a": state}): np.ones(3),
        partial(run_circuit, circuit): np.ones(4),
        partial(measure_qubit, index=0, rng=np.random.default_rng(0)): np.float64(1.0),
    }
    not_numbers = ([["1", "0"], ["0", "0"]], "abc", b"ab", [[None, 0.5], [0.5, 0.0]], np.full((2, 2), Fraction(1, 4)))
    for call, wrong_size in inputs.items():
        for value in not_numbers:
            with pytest.raises(BadMatrix, match=r"must hold only numbers, got an array of dtype"):
                call(value)
        with pytest.raises(BadMatrix, match=r"must be a (\d+x\d+|square) matrix|must be a length-\w+ vector"):
            call(wrong_size)
    with pytest.raises(BadMatrix, match=r"^channel state must be a 4x4 matrix or a stack of them, got shape \(2, 2\)$"):
        weight_from_choi(np.eye(2))
    with pytest.raises(BadMatrix, match=r"^choi_com must be a 4x4 matrix or a stack of them, got shape \(2, 2\)$"):
        choi_mixed(0.5, choi, rho)
    # bools, ints, floats and complex numbers pass
    assert info_report_from_choi(np.diag([True, False, False, False]), 0.5).i_tot == 0.0
    assert info_report_from_choi(np.diag([1, 0, 0, 0]).tolist(), 0.5).i_tot == 0.0
    assert np.array_equal(projector([1, 0]), [[1, 0], [0, 0]])


EMPTY = np.zeros((0, 4, 4))
BELL_CIRCUIT = Circuit(3, ("a", "b", "c"), (H(0), CNOT(0, 1)))


@pytest.mark.parametrize(
    ("call", "shapes"),
    [
        (lambda: astuple(info_report_from_choi(EMPTY, [])), [(0,)] * 9),
        (lambda: classical_accessible_info(EMPTY), [(0,)] * 2),
        (lambda: partial_trace(EMPTY, 2, [1]), [(0, 2, 2)]),
        (lambda: run_reduced(BELL_CIRCUIT, [1, 2], {"c": np.zeros((0, 2))}), [(0, 4, 4)]),  # a prep no Circuit builds
        (lambda: run_circuit(BELL_CIRCUIT, np.zeros((0, 8))), [(0, 8)]),
        (lambda: weight_from_choi(EMPTY), [(0,)]),
        (lambda: trace_distance(EMPTY, EMPTY), [(0,)]),
        (lambda: psd_eigenvalues(EMPTY), [(0, 4)]),
        (lambda: choi_mixed([], EMPTY, EMPTY), [(0, 4, 4)]),
        (lambda: shannon_mutual_information(np.zeros((0, 2, 2))), [(0,)]),
        (lambda: analytic_channel("independent", SchemeParams(np.zeros(0), np.zeros(0)), "ab"), [(0,)]),
    ],
    ids=["info_report_from_choi", "classical_accessible_info", "partial_trace", "run_reduced", "run_circuit",
         "weight_from_choi", "trace_distance", "psd_eigenvalues", "choi_mixed",
         "shannon_mutual_information", "analytic_channel"],
)
def test_an_empty_stack_gives_empty_results(call, shapes):
    # an empty stack is a stack of no states, as an empty grid row is, not a malformed input
    result = call()
    assert [np.shape(value) for value in (result if isinstance(result, tuple) else (result,))] == shapes
