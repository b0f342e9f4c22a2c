"""Dense complex linear algebra at the small sizes the toolkit needs.

Everything here operates on plain ``numpy`` arrays in row-major layout.
States are vectors of up to 2**11 amplitudes; analysis matrices never
exceed 16x16, so robustness always wins over speed.
"""
from __future__ import annotations

import functools

import numpy as np

from .errors import BadIndex, BadMatrix, NonHermitianInput, NotPSD, OutOfRange, _reject_first, as_indices, is_integer

# The validity rule of every density matrix, or of each matrix of a stack: finite, Hermitian within HERMITIAN_TOL,
# no eigenvalue below EIG_NOISE_FLOOR; eigenvalues in [EIG_NOISE_FLOOR, 0) are rounding noise, clamped to zero.
# An error on a stack names the flat index of its first failing matrix; trace_distance checks a - b by the first two.
HERMITIAN_TOL = 1e-10
EIG_NOISE_FLOOR = -1e-10


def max_abs(a: np.ndarray) -> float:
    """Largest entrywise absolute value (max norm)."""
    a = np.asarray(a)
    return float(np.max(np.abs(a))) if a.size else 0.0


def as_numbers(name: str, value, size: int | None = None, axes: int = 2) -> np.ndarray:
    """``value`` as an array, by the rule of every density-matrix and state input, checked before any conversion.

    :class:`BadMatrix` unless every entry is a bool, int, float or complex number and the last ``axes`` axes, 2 for
    a matrix and 1 for a state vector, each of a stack, have length ``size``, or one common length if it is None.
    """
    array = np.asarray(value)
    if array.dtype.kind not in "biufc":  # a str, None or other object: np.asarray(..., dtype=complex) would parse "1"
        raise BadMatrix(f"{name} must hold only numbers, got an array of dtype {array.dtype}")
    last = array.shape[array.ndim - axes:]
    if array.ndim < axes or last.count(size or last[0]) != axes:
        want = (f"{size}x{size}" if size else "square") + " matrix" if axes == 2 else f"length-{size or 'n'} vector"
        raise BadMatrix(f"{name} must be a {want} or a stack of them, got shape {array.shape}")
    return array


def _scalar_or_stack(values: np.ndarray):
    """A Python float for a single state, the per-state array for a stack."""
    return float(values) if np.ndim(values) == 0 else values


def _check_hermitian(a: np.ndarray, name: str = "matrix") -> np.ndarray:
    """``a`` if it, or each matrix of a stack, is finite and Hermitian within HERMITIAN_TOL; else NonHermitianInput."""
    finite = np.isfinite(a).all(axis=(-2, -1))
    _reject_first(~finite, finite, NonHermitianInput, f"{name} has a NaN or infinite entry")
    defect = np.abs(a - a.conj().swapaxes(-1, -2)).max(axis=(-2, -1))
    message = f"{name} deviates from Hermitian by {{:.3e}} (tol {HERMITIAN_TOL:.0e})"
    _reject_first(defect > HERMITIAN_TOL, defect, NonHermitianInput, message)
    return a


def psd_eigenvalues(a: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues of a density matrix, or per matrix of a stack, that passes the validity rule."""
    w = np.linalg.eigvalsh(_check_hermitian(as_numbers("matrix", a)))
    _reject_first(w[..., 0] < EIG_NOISE_FLOOR, w[..., 0], NotPSD, f"eigenvalue {{:.3e}} below {EIG_NOISE_FLOOR:.0e}")
    return w


def projector(psi: np.ndarray) -> np.ndarray:
    """Rank-1 projector |psi><psi| of a state vector."""
    psi = as_numbers("state", psi, axes=1).astype(complex, copy=False)
    return np.outer(psi, psi.conj())


@functools.lru_cache(maxsize=1024)
def _split(n: int, qubits: tuple[int, ...]) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The shape of an n-qubit register with a length-2 axis per qubit of ``qubits`` and one per run of the others,
    in register order, and its axes: those of ``qubits`` in their order, then the runs'.  :class:`BadIndex` unless
    ``qubits`` are distinct indices of the register."""
    if len(set(qubits)) != len(qubits) or not all(0 <= q < n for q in qubits):
        raise BadIndex(f"qubits {list(qubits)} are not distinct indices of the {n}-qubit register")
    cuts = sorted({0, n, *qubits, *(q + 1 for q in qubits)})  # where each named qubit and each run starts, and n
    shape = tuple(2 ** (end - start) for start, end in zip(cuts, cuts[1:]))
    return shape, (*map(cuts.index, qubits), *(axis for axis, q in enumerate(cuts[:-1]) if q not in qubits))


def partial_trace(rho: np.ndarray, num_qubits: int, keep: list[int]) -> np.ndarray:
    """Trace out every qubit of a 2**n x 2**n matrix, or of each in a stack, except those in ``keep``.

    The kept qubits appear in the output in the order listed, qubit 0 being
    the most significant bit of both indices.
    """
    if not is_integer(num_qubits) or num_qubits < 0:
        raise OutOfRange(f"num_qubits must be a non-negative integer, got {num_qubits!r}")
    rho = as_numbers(f"a matrix on {num_qubits} qubits", rho, 2**num_qubits).astype(complex, copy=False)
    keep = as_indices("keep", keep)  # ahead of the cache, where (0, 1.0) == (0, 1); _split checks the rest
    shape, axes = _split(num_qubits, keep)
    lead, dk = rho.shape[:-2], 2 ** len(keep)
    perm = [len(lead) + axis for axis in axes]
    blocks = rho.reshape(*lead, *shape, *shape).transpose([*range(len(lead)), *perm, *[len(shape) + p for p in perm]])
    return np.einsum("...aibi->...ab", blocks.reshape(*lead, dk, rho.shape[-1] // dk, dk, rho.shape[-1] // dk))


def trace_distance(a: np.ndarray, b: np.ndarray):
    """Trace distance of two Hermitian matrices, half the L1 norm of the spectrum of a - b; per pair of two stacks."""
    a, b = as_numbers("matrix", a), as_numbers("matrix", b)
    if a.shape[-1] != b.shape[-1] or any(x != y and 1 not in (x, y) for x, y in zip(a.shape[::-1], b.shape[::-1])):
        raise BadMatrix(f"trace_distance takes one matrix size in stacks that broadcast, got {a.shape} and {b.shape}")
    with np.errstate(invalid="ignore"):  # inf - inf is NaN, which the finite check names
        w = np.linalg.eigvalsh(_check_hermitian(a - b, "a - b"))
    return _scalar_or_stack(0.5 * np.sum(np.abs(w), axis=-1))
