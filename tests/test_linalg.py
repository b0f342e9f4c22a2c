import numpy as np
import pytest

from bellbidir.errors import BadIndex, NonHermitianInput, NotPSD
from bellbidir.linalg import (
    matrix_sqrt_psd,
    partial_trace,
    projector,
    trace_distance,
)
from bellbidir.sim import bell_state

I2 = np.eye(2, dtype=complex)


def random_psd(dim, rng):
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return a @ a.conj().T


def random_pure_state(num_qubits, rng):
    psi = rng.normal(size=2**num_qubits) + 1j * rng.normal(size=2**num_qubits)
    return psi / np.linalg.norm(psi)


def test_matrix_sqrt_psd_rejects_non_hermitian():
    with pytest.raises(NonHermitianInput):
        matrix_sqrt_psd(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_matrix_sqrt_psd_identity():
    assert np.abs(matrix_sqrt_psd(np.eye(4)) - np.eye(4)).max() <= 1e-12


def test_matrix_sqrt_psd_diagonal():
    root = matrix_sqrt_psd(np.diag([4.0, 1.0, 0.0, 0.0]))
    assert np.abs(root - np.diag([2.0, 1.0, 0.0, 0.0])).max() <= 1e-12


def test_matrix_sqrt_psd_projector_is_own_root():
    bell = projector(bell_state())
    assert np.abs(matrix_sqrt_psd(bell) - bell).max() <= 1e-10


def test_matrix_sqrt_psd_random():
    rng = np.random.default_rng(17)
    for _ in range(25):
        a = random_psd(4, rng)
        root = matrix_sqrt_psd(a)
        assert np.abs(root @ root - a).max() <= 1e-9
        want = np.sqrt(np.clip(np.linalg.eigvalsh(a), 0.0, None))
        got = np.linalg.eigvalsh(root)
        assert np.abs(np.sort(got) - np.sort(want)).max() <= 1e-9


def test_matrix_sqrt_psd_rejects_negative():
    with pytest.raises(NotPSD):
        matrix_sqrt_psd(np.diag([1.0, -0.1]))


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
