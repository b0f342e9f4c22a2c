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

from .channels import QubitChannel, choi_of_channel
from .errors import DomainError, NotPSD, OutOfRange, check_unit_interval
from .linalg import assert_hermitian, matrix_sqrt_psd, partial_trace

_PROB_FLOOR = 1e-15
_DOMAIN_SLACK = 1e-12
_SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]])
_FLIP = np.kron(_SIGMA_Y, _SIGMA_Y)
_PT_EIG_TOL = 1e-10


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


def trigger_joint_distribution(t: float) -> np.ndarray:
    """Joint distribution of the two parties' fire / don't-fire decisions.

    Rows index Alice's decision, columns Bob's.  Weight t spreads uniformly
    (independent triggers); weight 1 - t sits on the anti-diagonal (a common
    trigger makes the decisions opposite).
    """
    check_unit_interval("mixing weight t", t)
    return (t / 4.0) * np.ones((2, 2)) + ((1.0 - t) / 2.0) * np.array([[0.0, 1.0], [1.0, 0.0]])


def shannon_mutual_information(m: np.ndarray) -> float:
    """Mutual information of a 2x2 joint probability table, in bits."""
    m = np.asarray(m, dtype=float)
    if m.shape != (2, 2):
        raise ValueError(f"expected a 2x2 table, got {m.shape}")
    if m.min() < -_DOMAIN_SLACK or abs(m.sum() - 1.0) > _DOMAIN_SLACK:
        raise ValueError("entries must be nonnegative and sum to 1")
    row = m.sum(axis=1)
    col = m.sum(axis=0)
    info = 0.0
    for i in range(2):
        for j in range(2):
            if m[i, j] > _PROB_FLOOR:
                info += m[i, j] * math.log2(m[i, j] / (row[i] * col[j]))
    return info


def aux_info_closed(t: float) -> float:
    """Closed form of the trigger mutual information, 2 - h4_22(t/4)."""
    check_unit_interval("mixing weight t", t)
    return 2.0 - h4_22(t / 4.0)


def von_neumann_entropy(rho: np.ndarray) -> float:
    """-Tr[rho log2 rho] over the eigenvalues of a density matrix."""
    rho = np.asarray(rho, dtype=complex)
    assert_hermitian(rho)
    eigenvalues = np.linalg.eigvalsh(rho)
    if eigenvalues.min() < -_PT_EIG_TOL:
        raise NotPSD(f"eigenvalue {eigenvalues.min():.3e} below clamp threshold")
    return float(sum(_plog2(max(val, 0.0)) for val in eigenvalues))


def quantum_mutual_information(rho_rq: np.ndarray) -> float:
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


def _axis_projectors(axes: np.ndarray) -> np.ndarray:
    """(I + n . sigma) / 2 for each axis, shape (K, 2, 2)."""
    nx, ny, nz = axes[:, 0], axes[:, 1], axes[:, 2]
    proj = np.empty((len(axes), 2, 2), dtype=complex)
    proj[:, 0, 0] = (1.0 + nz) / 2.0
    proj[:, 1, 1] = (1.0 - nz) / 2.0
    proj[:, 0, 1] = (nx - 1j * ny) / 2.0
    proj[:, 1, 0] = (nx + 1j * ny) / 2.0
    return proj


def _weighted_entropies(mats: np.ndarray) -> np.ndarray:
    """p * S(m / p) for a batch of unnormalized 2x2 PSD matrices with trace p."""
    a = mats[:, 0, 0].real
    d = mats[:, 1, 1].real
    off = mats[:, 0, 1]
    mean = (a + d) / 2.0
    disc = np.sqrt(np.maximum(((a - d) / 2.0) ** 2 + np.abs(off) ** 2, 0.0))
    lam = np.stack([mean + disc, np.maximum(mean - disc, 0.0)], axis=1)
    trace = lam.sum(axis=1, keepdims=True)
    ratio = np.divide(lam, trace, out=np.zeros_like(lam), where=trace > _PROB_FLOOR)
    logs = np.where(ratio > _PROB_FLOOR, np.log2(ratio, out=np.zeros_like(ratio), where=ratio > _PROB_FLOOR), 0.0)
    return -(lam * logs).sum(axis=1)


def _objective_over_axes(blocks: np.ndarray, s_output: float, axes: np.ndarray) -> np.ndarray:
    """Retained-information objective of a projective measurement per axis."""
    proj = _axis_projectors(axes)
    cond_plus = np.einsum("kac,cqas->kqs", proj, blocks)
    cond_minus = np.einsum("kac,cqas->kqs", np.eye(2, dtype=complex)[None] - proj, blocks)
    return s_output - _weighted_entropies(cond_plus) - _weighted_entropies(cond_minus)


def _golden_section_max(f, lo: float, hi: float, iterations: int = 48) -> tuple[float, float]:
    inv_phi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - inv_phi * (b - a)
    d = a + inv_phi * (b - a)
    fc, fd = f(c), f(d)
    for _ in range(iterations):
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - inv_phi * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + inv_phi * (b - a)
            fd = f(d)
    mid = (a + b) / 2.0
    return mid, f(mid)


def classical_accessible_info(rho_rq: np.ndarray, grid: int = 32) -> tuple[float, float]:
    """Best projective-measurement information about Q from measuring R.

    Maximizes S[rho_Q] - sum_j p_j S[rho_Q | outcome j] over rank-1
    projective measurements on the reference, scanning a Fibonacci lattice
    of grid**2 axes and refining the best one by golden-section search in
    the polar and azimuthal coordinates.  Returns ``(value, flatness)``
    where flatness is the max-min spread of the objective over the lattice;
    for the channel states produced here the objective is axis-independent,
    so the flatness doubles as a self-check.
    """
    if grid < 8:
        raise OutOfRange(f"grid must be at least 8, got {grid}")
    choi = np.asarray(rho_rq, dtype=complex)
    if choi.shape != (4, 4):
        raise ValueError(f"expected a 4x4 channel state, got {choi.shape}")
    blocks = choi.reshape(2, 2, 2, 2)
    s_output = von_neumann_entropy(partial_trace(choi, 2, [1]))
    axes = _fibonacci_axes(grid * grid)
    values = _objective_over_axes(blocks, s_output, axes)
    flatness = float(values.max() - values.min())
    best_ix = int(np.argmax(values))
    x, y, z = axes[best_ix]
    theta0 = math.acos(min(max(z, -1.0), 1.0))
    phi0 = math.atan2(y, x)

    def at(theta_m: float, phi_m: float) -> float:
        axis = np.array([[math.sin(theta_m) * math.cos(phi_m), math.sin(theta_m) * math.sin(phi_m), math.cos(theta_m)]])
        return float(_objective_over_axes(blocks, s_output, axis)[0])

    dtheta = math.pi / grid
    theta1, val1 = _golden_section_max(lambda th: at(th, phi0), max(0.0, theta0 - dtheta), min(math.pi, theta0 + dtheta))
    dphi = 2.0 * math.pi / grid
    _, val2 = _golden_section_max(lambda ph: at(theta1, ph), phi0 - dphi, phi0 + dphi)
    return max(float(values[best_ix]), val1, val2), flatness


def classical_capacity_closed(t: float) -> float:
    """Closed form of the accessible information, 1 - h2(3/4 - t/8)."""
    check_unit_interval("mixing weight t", t)
    return 1.0 - h2(3.0 / 4.0 - t / 8.0)


def quantum_discord(rho_rq: np.ndarray, grid: int = 32) -> float:
    """Mutual information minus its classically accessible part."""
    accessible, _ = classical_accessible_info(rho_rq, grid)
    return quantum_mutual_information(rho_rq) - accessible


def _check_two_qubit_state(rho: np.ndarray) -> np.ndarray:
    rho = np.asarray(rho, dtype=complex)
    if rho.shape != (4, 4):
        raise ValueError(f"expected a 4x4 density matrix, got {rho.shape}")
    assert_hermitian(rho)
    if np.linalg.eigvalsh(rho).min() < -1e-8:
        raise NotPSD("matrix has a clearly negative eigenvalue")
    return rho


def concurrence(rho: np.ndarray) -> float:
    """Two-qubit entanglement monotone from the spin-flipped spectrum.

    Evaluates the Hermitian matrix sqrt(rho) (sy x sy) rho* (sy x sy)
    sqrt(rho), takes the square roots of its eigenvalues in descending
    order, and returns max(0, l1 - l2 - l3 - l4).
    """
    rho = _check_two_qubit_state(rho)
    root = matrix_sqrt_psd(rho)
    m = root @ _FLIP @ rho.conj() @ _FLIP @ root
    m = (m + m.conj().T) / 2.0
    lam = np.sqrt(np.clip(np.linalg.eigvalsh(m)[::-1], 0.0, None))
    return float(max(0.0, lam[0] - lam[1] - lam[2] - lam[3]))


def concurrence_closed(t: float) -> float:
    """Closed form for the symmetric mixed channel state, max(0, 1/4 - 3t/8)."""
    check_unit_interval("mixing weight t", t)
    return max(0.0, 0.25 - 3.0 * t / 8.0)


def min_partial_transpose_eigenvalue(rho: np.ndarray) -> float:
    """Smallest eigenvalue of the partial transpose over the second qubit.

    For two qubits, nonnegativity of the partial transpose is equivalent to
    separability, so a nonnegative result certifies an entanglement-breaking
    channel when ``rho`` is its channel state.
    """
    rho = _check_two_qubit_state(rho)
    transposed = rho.reshape(2, 2, 2, 2).transpose(0, 3, 2, 1).reshape(4, 4)
    return float(np.linalg.eigvalsh(transposed).min())


def coherent_information(rho_rq: np.ndarray) -> float:
    """S[rho_Q] - S[rho_RQ]; negative whenever the channel has no quantum capacity."""
    return von_neumann_entropy(partial_trace(rho_rq, 2, [1])) - von_neumann_entropy(rho_rq)


def symmetric_mixed_choi(t: float) -> np.ndarray:
    """Channel state of the symmetric mixed scheme, weight q = 1/2 - t/4."""
    check_unit_interval("mixing weight t", t)
    return choi_of_channel(QubitChannel(0.5 - 0.25 * t))


@dataclass(frozen=True)
class InfoReport:
    """All information measures evaluated at one parameter point."""

    t: float
    i_aux: float
    i_tot: float
    i_class: float
    discord: float
    concurrence: float
    i_coh: float
    min_pt_eigenvalue: float
    entanglement_breaking: bool


def info_report_from_choi(choi: np.ndarray, t: float, grid: int = 32) -> InfoReport:
    """Evaluate every measure on a given channel state.

    ``t`` sets the trigger-correlation level used for the auxiliary
    classical information (1 for independent triggers, 0 for a common one).
    """
    i_aux = shannon_mutual_information(trigger_joint_distribution(t))
    i_tot = quantum_mutual_information(choi)
    i_class, _ = classical_accessible_info(choi, grid)
    min_pt = min_partial_transpose_eigenvalue(choi)
    return InfoReport(
        t=float(t),
        i_aux=float(i_aux),
        i_tot=float(i_tot),
        i_class=float(i_class),
        discord=float(i_tot - i_class),
        concurrence=float(concurrence(choi)),
        i_coh=float(coherent_information(choi)),
        min_pt_eigenvalue=float(min_pt),
        entanglement_breaking=bool(min_pt >= -_PT_EIG_TOL),
    )


def info_report(t: float, grid: int = 32) -> InfoReport:
    """Full report for the symmetric mixed scheme at mixing weight ``t``."""
    return info_report_from_choi(symmetric_mixed_choi(t), t, grid)
