"""Dense complex linear algebra at the small sizes the toolkit needs.

Everything here operates on plain ``numpy`` arrays in row-major layout.
States are vectors of up to 2**11 amplitudes; analysis matrices never
exceed 16x16, so robustness always wins over speed.
"""
from __future__ import annotations

import numpy as np

from .errors import BadIndex, NonHermitianInput, NotPSD, OutOfRange, as_indices, is_integer

# The validity rule of every density matrix, or of each matrix of a stack: finite, Hermitian within
# HERMITIAN_TOL, no eigenvalue below EIG_NOISE_FLOOR; eigenvalues in [EIG_NOISE_FLOOR, 0) are rounding
# noise, clamped to zero.  An error on a stack names the flat index of its first failing matrix.
HERMITIAN_TOL = 1e-10
EIG_NOISE_FLOOR = -1e-10


def max_abs(a: np.ndarray) -> float:
    """Largest entrywise absolute value (max norm)."""
    a = np.asarray(a)
    return float(np.max(np.abs(a))) if a.size else 0.0


def _reject_first(bad: np.ndarray, values: np.ndarray, error: type, message: str, item: str = "matrix") -> None:
    """Raise ``error`` with ``message`` formatted on the first flagged value; in a stack, name its flat index."""
    if np.count_nonzero(bad):
        i = int(np.flatnonzero(bad)[0])
        raise error(message.format(np.ravel(values)[i]) + (f" ({item} {i} of the stack)" if np.ndim(bad) else ""))


def _scalar_or_stack(values: np.ndarray):
    """A Python float for a single state, the per-state array for a stack."""
    return float(values) if np.ndim(values) == 0 else values


def psd_eigenvalues(a: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues of a density matrix, or per matrix of a stack, that passes the validity rule."""
    a = np.asarray(a)
    finite = np.isfinite(a).all(axis=(-2, -1))
    _reject_first(~finite, finite, NonHermitianInput, "matrix has a NaN or infinite entry")
    defect = np.abs(a - a.conj().swapaxes(-1, -2)).max(axis=(-2, -1))
    message = f"matrix deviates from Hermitian by {{:.3e}} (tol {HERMITIAN_TOL:.0e})"
    _reject_first(defect > HERMITIAN_TOL, defect, NonHermitianInput, message)
    w = np.linalg.eigvalsh(a)
    _reject_first(w[..., 0] < EIG_NOISE_FLOOR, w[..., 0], NotPSD, f"eigenvalue {{:.3e}} below {EIG_NOISE_FLOOR:.0e}")
    return w


def projector(psi: np.ndarray) -> np.ndarray:
    """Rank-1 projector |psi><psi| of a state vector."""
    psi = np.asarray(psi, dtype=complex)
    return np.outer(psi, psi.conj())


def matrix_sqrt_psd(a: np.ndarray) -> np.ndarray:
    """Hermitian square root B, B @ B == a, of a matrix or stack that passes the validity rule; clamps noise."""
    a = np.asarray(a, dtype=complex)
    psd_eigenvalues(a)
    w, v = np.linalg.eigh(a)
    w = np.clip(w, 0.0, None)
    b = (v * np.sqrt(w)[..., None, :]) @ v.conj().swapaxes(-1, -2)
    return (b + b.conj().swapaxes(-1, -2)) / 2


def split_keep(num_qubits: int, keep: list[int]) -> tuple[list[int], list[int]]:
    """``keep`` as distinct qubit indices in range, and the other qubits in order; :class:`BadIndex` otherwise."""
    keep = list(as_indices("keep", keep))
    if len(set(keep)) != len(keep):
        raise BadIndex(f"repeated qubit index in keep={keep}")
    if any(not 0 <= k < num_qubits for k in keep):
        raise BadIndex(f"qubit index out of range in keep={keep}")
    return keep, [i for i in range(num_qubits) if i not in keep]


def partial_trace(rho: np.ndarray, num_qubits: int, keep: list[int]) -> np.ndarray:
    """Trace out every qubit of a 2**n x 2**n matrix, or of each in a stack, except those in ``keep``.

    The kept qubits appear in the output in the order listed, qubit 0 being
    the most significant bit of both indices.
    """
    if not is_integer(num_qubits) or num_qubits < 0:
        raise OutOfRange(f"num_qubits must be a non-negative integer, got {num_qubits!r}")
    rho = np.asarray(rho, dtype=complex)
    dim = 2**num_qubits
    if rho.shape[-2:] != (dim, dim):
        raise ValueError(f"expected a {dim}x{dim} matrix for {num_qubits} qubits, got {rho.shape}")
    keep, rest = split_keep(num_qubits, keep)
    dk, dr = 2 ** len(keep), 2 ** len(rest)
    lead = rho.shape[:-2]
    perm = [len(lead) + p for p in keep + rest]
    blocks = rho.reshape(*lead, *[2] * (2 * num_qubits))
    blocks = blocks.transpose([*range(len(lead)), *perm, *[num_qubits + p for p in perm]])
    return np.einsum("...aibi->...ab", blocks.reshape(*lead, dk, dr, dk, dr))


def trace_distance(a: np.ndarray, b: np.ndarray):
    """Trace distance of two Hermitian matrices, half the L1 norm of the spectrum of a - b; per pair of two stacks."""
    w = np.linalg.eigvalsh(np.asarray(a) - np.asarray(b))
    return _scalar_or_stack(0.5 * np.sum(np.abs(w), axis=-1))
