"""Information measures of the teleportation channels and their trigger statistics.

All quantities are in bits (base-2 logarithms) and follow the 0 log 0 = 0
convention; probabilities below 1e-15 count as zero.  Channel states are
4x4 density matrices on (reference, output) with the reference first, as
produced by the protocols and channels modules.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, check_unit_interval
from .linalg import _scalar_or_stack, matrix_sqrt_psd, partial_trace, psd_eigenvalues

_PROB_FLOOR = 1e-15
_DOMAIN_SLACK = 1e-12
_PAULIS = np.array([[[1, 0], [0, 1]], [[0, 1], [1, 0]], [[0, -1j], [1j, 0]], [[1, 0], [0, -1]]])
_FLIP = np.kron(_PAULIS[2], _PAULIS[2])
_PT_EIG_TOL = 1e-10  # entanglement breaking: no partial-transpose eigenvalue below -_PT_EIG_TOL
_SCAN_GRID = 32  # the accessible-information scan covers _SCAN_GRID**2 lattice axes
_SCAN_BLOCK = 8  # states scored together on the scan lattice
_ZOOM_POINTS = 7  # candidate angles per coordinate in each refinement pass
_ZOOM_PASSES = 12


def _plog2(p: float) -> float:
    return -p * math.log2(p) if p > _PROB_FLOOR else 0.0


def h2(x: float) -> float:
    """Binary entropy -x log2 x - (1-x) log2 (1-x)."""
    if not -_DOMAIN_SLACK <= x <= 1.0 + _DOMAIN_SLACK:
        raise DomainError(f"h2 argument {x} outside [0, 1]")
    x = min(max(x, 0.0), 1.0)
    return _plog2(x) + _plog2(1.0 - x)


def h4_22(x: float) -> float:
    """Quaternary entropy of the distribution (x, x, 1/2 - x, 1/2 - x)."""
    if not -_DOMAIN_SLACK <= x <= 0.5 + _DOMAIN_SLACK:
        raise DomainError(f"h4_22 argument {x} outside [0, 1/2]")
    x = min(max(x, 0.0), 0.5)
    rest = 1.0 - 2.0 * x
    tail = -rest * math.log2(0.5 - x) if rest > _PROB_FLOOR else 0.0
    return 2.0 * _plog2(x) + tail


def h4_31(x: float) -> float:
    """Quaternary entropy of the distribution (x, x, x, 1 - 3x)."""
    if not -_DOMAIN_SLACK <= x <= 1.0 / 3.0 + _DOMAIN_SLACK:
        raise DomainError(f"h4_31 argument {x} outside [0, 1/3]")
    x = min(max(x, 0.0), 1.0 / 3.0)
    return 3.0 * _plog2(x) + _plog2(1.0 - 3.0 * x)


def trigger_joint_distribution(t: float, p1: float = 0.5, p2: float = 0.5, p: float = 0.5) -> np.ndarray:
    """Joint distribution of the two parties' don't-fire / fire decisions.

    Rows index Alice's decision, columns Bob's.  Weight t goes to independent
    triggers firing with probabilities p1 and p2; weight 1 - t sits on the
    anti-diagonal, where a common trigger fires Alice with probability p and
    Bob otherwise.
    """
    for name, value in (("mixing weight t", t), ("p1", p1), ("p2", p2), ("p", p)):
        check_unit_interval(name, value)
    rows, cols, anti = (1.0 - p1, p1), (1.0 - p2, p2), ((0.0, 1.0 - p), (p, 0.0))  # entrywise, in np.outer's order
    return np.array([[t * (a * b) + (1.0 - t) * c for b, c in zip(cols, line)] for a, line in zip(rows, anti)])


def shannon_mutual_information(m: np.ndarray) -> float:
    """Mutual information of a 2x2 joint probability table, in bits."""
    m = np.asarray(m, dtype=float)
    if m.shape != (2, 2):
        raise ValueError(f"expected a 2x2 table, got {m.shape}")
    if not (m.min() >= -_DOMAIN_SLACK and abs(m.sum() - 1.0) <= _DOMAIN_SLACK):
        raise ValueError("entries must be nonnegative and sum to 1")
    row, col = m.sum(axis=1), m.sum(axis=0)
    info = sum(m[i, j] * math.log2(m[i, j] / (row[i] * col[j])) for i, j in np.ndindex(2, 2) if m[i, j] > _PROB_FLOOR)
    if info < -_DOMAIN_SLACK:
        raise DomainError(f"mutual information {info} is negative")
    return max(info, 0.0)  # rounding can leave a few ulps below 0


def aux_info_closed(t: float) -> float:
    """Closed form of the trigger mutual information, 2 - h4_22(t/4)."""
    check_unit_interval("mixing weight t", t)
    return 2.0 - h4_22(t / 4.0)


def von_neumann_entropy(rho: np.ndarray):
    """-Tr[rho log2 rho] over the eigenvalues of a density matrix, or per matrix of a stack."""
    p = np.maximum(psd_eigenvalues(np.asarray(rho, dtype=complex)), 0.0)
    terms = -p * np.log2(p, out=np.zeros_like(p), where=p > _PROB_FLOOR)
    return _scalar_or_stack(sum(np.moveaxis(terms, -1, 0)))  # summed in eigenvalue order, as a Python sum would


def quantum_mutual_information(rho_rq: np.ndarray):
    """S[rho_R] + S[rho_Q] - S[rho_RQ]; the entanglement-assisted capacity here."""
    return (
        von_neumann_entropy(partial_trace(rho_rq, 2, [0]))
        + von_neumann_entropy(partial_trace(rho_rq, 2, [1]))
        - von_neumann_entropy(rho_rq)
    )


def total_info_closed(t: float) -> float:
    """Closed form of the channel-state mutual information, 2 - h4_31(1/8 + t/16)."""
    check_unit_interval("mixing weight t", t)
    return 2.0 - h4_31(1.0 / 8.0 + t / 16.0)


def _fibonacci_axes(count: int) -> np.ndarray:
    """Deterministic, nearly uniform unit vectors on the sphere."""
    i = np.arange(count)
    z = 1.0 - (2.0 * i + 1.0) / count
    azimuth = math.pi * (3.0 - math.sqrt(5.0)) * i
    radius = np.sqrt(np.maximum(1.0 - z * z, 0.0))
    return np.stack([radius * np.cos(azimuth), radius * np.sin(azimuth), z], axis=1)


def _weighted_entropies(trace: np.ndarray, x: np.ndarray, y: np.ndarray, z: np.ndarray) -> np.ndarray:
    """p * S(m / p) per unnormalized qubit state m = (p I + (x, y, z) . sigma) / 2, given on planes of one shape."""
    radius = np.sqrt(x * x + y * y + z * z)
    lam = np.array([trace + radius, np.maximum(trace - radius, 0.0)]) / 2.0
    total = lam[0] + lam[1]
    ratio = np.divide(lam, total, out=np.zeros_like(lam), where=total > _PROB_FLOOR)
    terms = lam * np.log2(ratio, out=np.zeros_like(ratio), where=ratio > _PROB_FLOOR)
    return -(terms[0] + terms[1])


def _objective_over_axes(pauli: np.ndarray, s_output: np.ndarray, axes: np.ndarray) -> np.ndarray:
    """Retained-information objective of a projective measurement per axis, per state of a stack.

    ``pauli[..., i, j] = Tr[rho (sigma_i x sigma_j)]`` holds the reference
    Bloch vector r (column 0), the output Bloch vector s (row 0) and the
    correlation matrix T.  Outcome +-1 along axis n leaves the output in
    (p I + v . sigma) / 2 with p = (1 +- n . r) / 2 and v = (s +- T^T n) / 2,
    whose eigenvalues are (p +- |v|) / 2.  The Pauli component axis is moved
    to the front, so every step works on contiguous planes.
    """
    shift = np.ascontiguousarray(np.moveaxis(axes @ pauli[..., 1:, :], -1, 0))
    row = np.moveaxis(pauli[..., 0, :], -1, 0)[..., None]
    plus = _weighted_entropies(*((row + shift) / 2.0))  # outcome +1
    minus = _weighted_entropies(*((row - shift) / 2.0))  # outcome -1
    return np.asarray(s_output)[..., None] - plus - minus


def classical_accessible_info(rho_rq: np.ndarray):
    """Best projective-measurement information about Q from measuring R.

    Maximizes S[rho_Q] - sum_j p_j S[rho_Q | outcome j] over rank-1
    projective measurements on the reference.  A Fibonacci lattice of
    _SCAN_GRID**2 axes is scanned, then the best axis is refined in the
    polar and azimuthal angles: each pass scores a _ZOOM_POINTS**2 grid of
    axes around it in one batch and narrows the window to one grid step.
    Returns ``(value, flatness)`` where flatness is the max-min spread of
    the objective over the lattice; for the channel states produced here
    the objective is axis-independent, so the flatness doubles as a
    self-check.  A ``(..., 4, 4)`` stack gives both per state, and each
    zoom pass scores the whole stack in one batch.
    """
    choi = _two_qubit(rho_rq)
    psd_eigenvalues(choi)
    pauli = np.einsum("naqbr,iba,jrq->nij", choi.reshape(-1, 2, 2, 2, 2), _PAULIS, _PAULIS).real
    s_output = np.reshape(von_neumann_entropy(partial_trace(choi, 2, [1])), -1)
    axes = _fibonacci_axes(_SCAN_GRID * _SCAN_GRID)
    # the lattice is scored _SCAN_BLOCK states at a time: its intermediates take ~0.15 MiB per state
    blocks = [slice(i, i + _SCAN_BLOCK) for i in range(0, len(pauli), _SCAN_BLOCK)]
    values = np.concatenate([_objective_over_axes(pauli[block], s_output[block], axes) for block in blocks])
    best, flatness, states = values.max(axis=1), np.ptp(values, axis=1), np.arange(len(values))
    x, y, z = axes[np.argmax(values, axis=1)].T
    theta, phi = np.arccos(z), np.arctan2(y, x)
    offsets = np.linspace(-1.0, 1.0, _ZOOM_POINTS)
    half = math.pi / _SCAN_GRID  # polar half-width; the azimuthal window is twice as wide
    for _ in range(_ZOOM_PASSES):
        # the cells of np.meshgrid(theta window, phi window).ravel(): theta tiled, phi repeated
        thetas = np.tile(theta[:, None] + half * offsets, _ZOOM_POINTS)
        phis = np.repeat(phi[:, None] + 2.0 * half * offsets, _ZOOM_POINTS, axis=1)
        zoom_axes = np.stack([np.sin(thetas) * np.cos(phis), np.sin(thetas) * np.sin(phis), np.cos(thetas)], axis=-1)
        candidates = _objective_over_axes(pauli, s_output, zoom_axes)
        ix = np.argmax(candidates, axis=1)
        best, theta, phi = np.maximum(best, candidates.max(axis=1)), thetas[states, ix], phis[states, ix]
        half *= 2.0 / (_ZOOM_POINTS - 1)  # the next window reaches one grid step either side
    return _scalar_or_stack(best.reshape(choi.shape[:-2])), _scalar_or_stack(flatness.reshape(choi.shape[:-2]))


def classical_capacity_closed(t: float) -> float:
    """Closed form of the accessible information, 1 - h2(3/4 - t/8)."""
    check_unit_interval("mixing weight t", t)
    return 1.0 - h2(3.0 / 4.0 - t / 8.0)


def quantum_discord(rho_rq: np.ndarray):
    """Mutual information minus its classically accessible part."""
    accessible, _ = classical_accessible_info(rho_rq)
    return quantum_mutual_information(rho_rq) - accessible


def _two_qubit(rho: np.ndarray) -> np.ndarray:
    rho = np.asarray(rho, dtype=complex)
    if rho.shape[-2:] != (4, 4):
        raise ValueError(f"expected a 4x4 density matrix or a stack of them, got {rho.shape}")
    return rho


def concurrence(rho: np.ndarray):
    """Two-qubit entanglement monotone from the spin-flipped spectrum.

    Evaluates the Hermitian matrix sqrt(rho) (sy x sy) rho* (sy x sy)
    sqrt(rho), takes the square roots of its eigenvalues in descending
    order, and returns max(0, l1 - l2 - l3 - l4).
    """
    rho = _two_qubit(rho)
    root = matrix_sqrt_psd(rho)  # checks the validity rule
    m = root @ _FLIP @ rho.conj() @ _FLIP @ root
    m = (m + m.conj().swapaxes(-1, -2)) / 2.0
    lam = np.sqrt(np.clip(np.linalg.eigvalsh(m)[..., ::-1], 0.0, None))
    return _scalar_or_stack(np.maximum(0.0, lam[..., 0] - lam[..., 1] - lam[..., 2] - lam[..., 3]))


def concurrence_closed(t: float) -> float:
    """Closed form for the symmetric mixed channel state, max(0, 1/4 - 3t/8)."""
    check_unit_interval("mixing weight t", t)
    return max(0.0, 0.25 - 3.0 * t / 8.0)


def min_partial_transpose_eigenvalue(rho: np.ndarray):
    """Smallest eigenvalue of the partial transpose over the second qubit.

    For two qubits, nonnegativity of the partial transpose is equivalent to
    separability, so a nonnegative result certifies an entanglement-breaking
    channel when ``rho`` is its channel state.
    """
    rho = _two_qubit(rho)
    psd_eigenvalues(rho)
    transposed = rho.reshape(*rho.shape[:-2], 2, 2, 2, 2).swapaxes(-3, -1).reshape(rho.shape)
    return _scalar_or_stack(np.linalg.eigvalsh(transposed).min(axis=-1))


def coherent_information(rho_rq: np.ndarray):
    """S[rho_Q] - S[rho_RQ]; negative whenever the channel has no quantum capacity."""
    return von_neumann_entropy(partial_trace(rho_rq, 2, [1])) - von_neumann_entropy(rho_rq)


@dataclass(frozen=True)
class InfoReport:
    """All information measures at one parameter point, or one array entry per state of a stack."""

    t: float | np.ndarray
    i_aux: float | np.ndarray
    i_tot: float | np.ndarray
    i_class: float | np.ndarray
    discord: float | np.ndarray
    concurrence: float | np.ndarray
    i_coh: float | np.ndarray
    min_pt_eigenvalue: float | np.ndarray
    entanglement_breaking: bool | np.ndarray


def info_report_from_choi(choi: np.ndarray, t, p1: float = 0.5, p2: float = 0.5, p: float = 0.5) -> InfoReport:
    """Evaluate every measure on a given channel state, or on each state of a ``(..., 4, 4)`` stack.

    ``t`` sets the trigger-correlation level used for the auxiliary
    classical information (1 for independent triggers, 0 for a common one),
    per state of a stack, and ``p1``, ``p2``, ``p`` the firing probabilities
    of :func:`trigger_joint_distribution`.
    """
    ts = np.broadcast_to(np.asarray(t, dtype=float), np.shape(choi)[:-2])
    i_aux = [shannon_mutual_information(trigger_joint_distribution(x, p1, p2, p)) for x in ts.ravel().tolist()]
    i_tot = quantum_mutual_information(choi)
    i_class, _ = classical_accessible_info(choi)
    min_pt = min_partial_transpose_eigenvalue(choi)
    return InfoReport(
        t=_scalar_or_stack(ts.copy()),
        i_aux=_scalar_or_stack(np.reshape(i_aux, ts.shape)),
        i_tot=i_tot,
        i_class=i_class,
        discord=i_tot - i_class,
        concurrence=concurrence(choi),
        i_coh=coherent_information(choi),
        min_pt_eigenvalue=min_pt,
        entanglement_breaking=min_pt >= -_PT_EIG_TOL,
    )
