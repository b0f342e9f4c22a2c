"""Dense complex linear algebra at the small sizes the toolkit needs.

Everything here operates on plain ``numpy`` arrays in row-major layout.
States are vectors of up to 2**11 amplitudes; analysis matrices never
exceed 16x16, so robustness always wins over speed.
"""
from __future__ import annotations

import numpy as np

from .errors import BadIndex, NonHermitianInput, NotPSD

# Hermiticity is asserted at 1e-10; eigenvalues in [-1e-8, 0) are treated as
# rounding noise and clamped to zero, anything below -1e-8 is a hard error.
HERMITIAN_TOL = 1e-10
EIG_NOISE_FLOOR = -1e-8


def max_abs(a: np.ndarray) -> float:
    """Largest entrywise absolute value (max norm)."""
    a = np.asarray(a)
    return float(np.max(np.abs(a))) if a.size else 0.0


def assert_hermitian(a: np.ndarray, tol: float = HERMITIAN_TOL) -> None:
    if not np.isfinite(a).all():
        raise NonHermitianInput("matrix has a NaN or infinite entry")
    defect = max_abs(a - a.conj().swapaxes(-1, -2))
    if not defect <= tol:
        raise NonHermitianInput(f"matrix deviates from Hermitian by {defect:.3e} (tol {tol:.0e})")


def projector(psi: np.ndarray) -> np.ndarray:
    """Rank-1 projector |psi><psi| of a state vector."""
    psi = np.asarray(psi, dtype=complex)
    return np.outer(psi, psi.conj())


def matrix_sqrt_psd(a: np.ndarray) -> np.ndarray:
    """Hermitian PSD square root B of a PSD matrix, B @ B == a, per matrix of a ``(..., n, n)`` stack.

    Eigenvalues slightly below zero are clamped; clearly negative ones raise
    :class:`NotPSD`.
    """
    a = np.asarray(a, dtype=complex)
    assert_hermitian(a)
    w, v = np.linalg.eigh(a)
    if w.min() < EIG_NOISE_FLOOR:
        raise NotPSD(f"eigenvalue {w.min():.3e} below {EIG_NOISE_FLOOR:.0e}")
    w = np.clip(w, 0.0, None)
    b = (v * np.sqrt(w)[..., None, :]) @ v.conj().swapaxes(-1, -2)
    return (b + b.conj().swapaxes(-1, -2)) / 2


def partial_trace(rho: np.ndarray, num_qubits: int, keep: list[int]) -> np.ndarray:
    """Trace out every qubit of a 2**n x 2**n matrix, or of each in a stack, except those in ``keep``.

    The kept qubits appear in the output in the order listed, qubit 0 being
    the most significant bit of both indices.
    """
    rho = np.asarray(rho, dtype=complex)
    dim = 2**num_qubits
    if rho.shape[-2:] != (dim, dim):
        raise ValueError(f"expected a {dim}x{dim} matrix for {num_qubits} qubits, got {rho.shape}")
    keep = [int(k) for k in keep]
    if len(set(keep)) != len(keep):
        raise BadIndex(f"repeated qubit index in keep={keep}")
    if any(not 0 <= k < num_qubits for k in keep):
        raise BadIndex(f"qubit index out of range in keep={keep}")
    rest = [i for i in range(num_qubits) if i not in keep]
    dk, dr = 2 ** len(keep), 2 ** len(rest)
    lead = rho.shape[:-2]
    perm = [len(lead) + p for p in keep + rest]
    blocks = rho.reshape(*lead, *[2] * (2 * num_qubits))
    blocks = blocks.transpose([*range(len(lead)), *perm, *[num_qubits + p for p in perm]])
    return np.einsum("...aibi->...ab", blocks.reshape(*lead, dk, dr, dk, dr))


def trace_distance(a: np.ndarray, b: np.ndarray) -> float:
    """Trace distance of two Hermitian matrices: half the L1 norm of the spectrum of a - b."""
    w = np.linalg.eigvalsh(np.asarray(a) - np.asarray(b))
    return float(0.5 * np.sum(np.abs(w)))
