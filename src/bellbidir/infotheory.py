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

from .errors import DomainError, OutOfRange, as_reals, check_unit_interval
from .linalg import _reject_first, _scalar_or_stack, matrix_sqrt_psd, partial_trace, psd_eigenvalues

_PROB_FLOOR = 1e-15
_DOMAIN_SLACK = 1e-12
_PAULIS = np.array([[[1, 0], [0, 1]], [[0, 1], [1, 0]], [[0, -1j], [1j, 0]], [[1, 0], [0, -1]]])
_FLIP = np.kron(_PAULIS[2], _PAULIS[2])
_PT_EIG_TOL = 1e-10  # entanglement breaking: no partial-transpose eigenvalue below -_PT_EIG_TOL
_SCAN_LATTICE = 512  # points of the Fibonacci lattice whose z > 0 half the accessible-information scan covers
_SCAN_BLOCK = 8  # states scored together on the scan lattice
_NEWTON_STEPS = 7  # safeguarded Newton steps that refine the best lattice axis
_NEWTON_START = 0.05  # first stencil spacing h, in tangent-plane units
_NEWTON_FLOOR = 1e-4  # smallest stencil spacing
# the cells of a 3x3 np.meshgrid(u offsets, v offsets).ravel() in units of h: u tiled, v repeated
_STENCIL_U = np.tile([-1.0, 0.0, 1.0], 3)
_STENCIL_V = np.repeat([-1.0, 0.0, 1.0], 3)


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
    return 2.0 * (_plog2(x) + _plog2(0.5 - x))


def h4_31(x: float) -> float:
    """Quaternary entropy of the distribution (x, x, x, 1 - 3x)."""
    if not -_DOMAIN_SLACK <= x <= 1.0 / 3.0 + _DOMAIN_SLACK:
        raise DomainError(f"h4_31 argument {x} outside [0, 1/3]")
    x = min(max(x, 0.0), 1.0 / 3.0)
    return 3.0 * _plog2(x) + _plog2(1.0 - 3.0 * x)


def trigger_joint_distribution(t, p1=0.5, p2=0.5, p=0.5) -> np.ndarray:
    """Joint distribution of the two parties' don't-fire / fire decisions.

    Rows index Alice's decision, columns Bob's.  Weight t goes to independent
    triggers firing with probabilities p1 and p2; weight 1 - t sits on the
    anti-diagonal, where a common trigger fires Alice with probability p and
    Bob otherwise.  Arrays broadcast together into a ``(..., 2, 2)`` stack of tables.
    """
    names = ("mixing weight t", "p1", "p2", "p")
    values = [as_reals(name, value) for name, value in zip(names, (t, p1, p2, p))]
    t, p1, p2, p = x = np.array(np.broadcast_arrays(*values))
    if not ((x >= 0.0) & (x <= 1.0)).all():
        for name, value in zip(names, values):
            _reject_first(~((value >= 0.0) & (value <= 1.0)), value, OutOfRange, f"{name}={{}} outside [0, 1]", "entry")
    table = np.array([[t * ((1.0 - p1) * (1.0 - p2)), t * ((1.0 - p1) * p2) + (1.0 - t) * (1.0 - p)],
                      [t * (p1 * (1.0 - p2)) + (1.0 - t) * p, t * (p1 * p2)]])  # each product in np.outer's order
    return np.moveaxis(table, (0, 1), (-2, -1))


def shannon_mutual_information(m: np.ndarray):
    """Mutual information of a 2x2 joint probability table, or of each table of a ``(..., 2, 2)`` stack, in bits."""
    m = np.asarray(m, dtype=float)
    if m.shape[-2:] != (2, 2):
        raise ValueError(f"expected a 2x2 table or a stack of them, got {m.shape}")
    bad = ~((m.min(axis=(-2, -1)) >= -_DOMAIN_SLACK) & (np.abs(m.sum(axis=(-2, -1)) - 1.0) <= _DOMAIN_SLACK))
    _reject_first(bad, bad, ValueError, "entries must be nonnegative and sum to 1", "table")
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = m * np.log2(m / (m.sum(axis=-1, keepdims=True) * m.sum(axis=-2, keepdims=True)))
    terms = np.where(m > _PROB_FLOOR, terms, 0.0).reshape(*m.shape[:-2], 4)
    info = ((terms[..., 0] + terms[..., 1]) + terms[..., 2]) + terms[..., 3]
    _reject_first(info < -_DOMAIN_SLACK, info, DomainError, "mutual information {} is negative", "table")
    return _scalar_or_stack(np.maximum(info, 0.0))  # rounding can leave a few ulps below 0


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
    """Deterministic, nearly uniform unit vectors on the sphere, in descending z."""
    i = np.arange(count)
    z = 1.0 - (2.0 * i + 1.0) / count
    azimuth = math.pi * (3.0 - math.sqrt(5.0)) * i
    radius = np.sqrt(np.maximum(1.0 - z * z, 0.0))
    return np.stack([radius * np.cos(azimuth), radius * np.sin(azimuth), z], axis=1)


def _monomials(x: np.ndarray, y: np.ndarray, z: np.ndarray) -> np.ndarray:
    """The linear and quadratic monomials of an axis (x, y, z), stacked on axis -2."""
    return np.stack([x, y, z, x * x, y * y, z * z, 2.0 * x * y, 2.0 * x * z, 2.0 * y * z], axis=-2)


# The objective is even in the axis (n and -n swap the two outcomes), so the scan needs only the z > 0 half
_SCAN_AXES = _fibonacci_axes(_SCAN_LATTICE)[: _SCAN_LATTICE // 2]
_SCAN_MONOMIALS = _monomials(*_SCAN_AXES.T)
_OUTCOMES = np.array([1.0, -1.0])[:, None, None]


def _forms(pauli: np.ndarray) -> np.ndarray:
    """Per state, n . r, 2 n . T s and |s|^2 + |T^T n|^2 of a unit axis n, as coefficients of its _monomials."""
    r, s, t = pauli[:, 1:, 0], pauli[:, 0, 1:], pauli[:, 1:, 1:]
    forms = np.zeros((len(pauli), 3, 9))
    forms[:, 0, :3], forms[:, 1, :3] = r, 2.0 * (t @ s[:, :, None])[:, :, 0]
    quadratic = t @ t.swapaxes(1, 2) + np.sum(s * s, axis=1)[:, None, None] * np.eye(3)  # |s|^2 = |s|^2 |n|^2
    forms[:, 2, 3:] = quadratic[:, [0, 1, 2, 0, 0, 1], [0, 1, 2, 1, 2, 2]]
    return forms


def _objective(pauli: np.ndarray, s_output: np.ndarray, at_axes: np.ndarray) -> np.ndarray:
    """Retained information per axis, per state, from ``at_axes = _forms(pauli) @ _monomials(axes)``.

    ``pauli[:, i, j] = Tr[rho (sigma_i x sigma_j)]`` holds the reference
    Bloch vector r (column 0), the output Bloch vector s (row 0) and the
    correlation matrix T.  Outcome +-1 along axis n leaves the output in
    (p I + v . sigma) / 2 with p = (1 +- n . r) / 2 and v = (s +- w) / 2,
    w = T^T n, whose eigenvalues are (p +- |v|) / 2.  Both outcomes are
    scored on one leading axis, with |s +- w|^2 = |s|^2 + |w|^2 +- 2 s . w.
    """
    trace = pauli[:, :1, 0] + _OUTCOMES * at_axes[:, 0]
    radius = np.sqrt(np.maximum(at_axes[:, 2] + _OUTCOMES * at_axes[:, 1], 0.0))
    lam = np.array([trace + radius, np.maximum(trace - radius, 0.0)])  # 4x the eigenvalues, which the ratio drops
    with np.errstate(invalid="ignore"):
        ratio = lam / (lam[0] + lam[1])
    terms = lam[0] * np.log2(np.where(ratio[0] > _PROB_FLOOR, ratio[0], 1.0))  # -4 p S per outcome
    terms += lam[1] * np.log2(np.where(ratio[1] > _PROB_FLOOR, ratio[1], 1.0))
    return s_output[:, None] + (terms[0] + terms[1]) / 4.0


def classical_accessible_info(rho_rq: np.ndarray):
    """Best projective-measurement information about Q from measuring R.

    Maximizes S[rho_Q] - sum_j p_j S[rho_Q | outcome j] over rank-1
    projective measurements on the reference.  The objective is even in the
    measurement axis, so the scan covers the z > 0 half of a Fibonacci
    lattice of _SCAN_LATTICE axes.  The best lattice axis c is then refined
    in the plane tangent to the sphere at c, on axes proportional to
    c + u e1 + v e2, which has no coordinate pole, by _NEWTON_STEPS
    safeguarded Newton steps on a 3x3 stencil of spacing h, its own per
    state.  Where the stencil's Hessian is negative definite, (u, v) moves
    to the model's maximum, clipped to 3h, and an unclipped step shrinks h
    to max(min(h / 5, |step|), _NEWTON_FLOOR); elsewhere it moves to the
    best stencil point and keeps h.  The value is the largest objective
    scored, so it never falls below the lattice maximum.  Returns
    ``(value, flatness)`` where flatness is the max-min spread of the
    objective over the half lattice; for the channel states produced here
    the objective is axis-independent, so the flatness doubles as a
    self-check.  A ``(..., 4, 4)`` stack gives both per state, and each
    Newton step scores the whole stack in one batch.
    """
    choi = _two_qubit(rho_rq)
    psd_eigenvalues(choi)
    pauli = np.einsum("naqbr,iba,jrq->nij", choi.reshape(-1, 2, 2, 2, 2), _PAULIS, _PAULIS).real
    s_output = np.reshape(von_neumann_entropy(partial_trace(choi, 2, [1])), -1)
    forms = _forms(pauli)
    # the lattice is scored _SCAN_BLOCK states at a time: its intermediates take ~0.04 MiB per state
    blocks = [slice(i, i + _SCAN_BLOCK) for i in range(0, len(pauli), _SCAN_BLOCK)]
    scan = np.concatenate([_objective(pauli[b], s_output[b], forms[b] @ _SCAN_MONOMIALS) for b in blocks])
    best, flatness = scan.max(axis=1), np.ptp(scan, axis=1)
    # the reference Bloch axes re-expressed in an orthonormal frame (c, e1, e2) at the best lattice axis c,
    # regular for every c with z > -1; the frame axis (1, u, v) / |(1, u, v)| is c + u e1 + v e2 normalized
    x, y, z = _SCAN_AXES[np.argmax(scan, axis=1)].T
    a, b = -x / (1.0 + z), -y / (1.0 + z)
    frame = np.stack([x, y, z, 1.0 + a * x, a * y, -x, a * y, 1.0 + b * y, -y], axis=1).reshape(-1, 3, 3)
    forms = _forms(np.concatenate([pauli[:, :1], frame @ pauli[:, 1:]], axis=1))

    def score(us: np.ndarray, vs: np.ndarray) -> np.ndarray:
        scale = 1.0 / np.sqrt(1.0 + us * us + vs * vs)
        return _objective(pauli, s_output, forms @ _monomials(scale, us * scale, vs * scale))

    u, v, h = np.zeros(len(pauli)), np.zeros(len(pauli)), np.full(len(pauli), _NEWTON_START)
    for _ in range(_NEWTON_STEPS):
        f = score(u[:, None] + h[:, None] * _STENCIL_U, v[:, None] + h[:, None] * _STENCIL_V)
        best = np.maximum(best, f.max(axis=1))
        grid = f.reshape(-1, 3, 3)  # grid[:, 1 + dv, 1 + du]
        # central-difference gradient and Hessian in units of h
        gu, guu = (grid[:, 1, 2] - grid[:, 1, 0]) / 2.0, grid[:, 1, 2] - 2.0 * grid[:, 1, 1] + grid[:, 1, 0]
        gv, gvv = (grid[:, 2, 1] - grid[:, 0, 1]) / 2.0, grid[:, 2, 1] - 2.0 * grid[:, 1, 1] + grid[:, 0, 1]
        guv = (grid[:, 2, 2] - grid[:, 2, 0] - grid[:, 0, 2] + grid[:, 0, 0]) / 4.0
        det = guu * gvv - guv * guv
        newton = (guu < 0.0) & (det > 0.0)  # negative definite: the model has a maximum
        det = np.where(newton, det, 1.0)  # no division by a zero det where no Newton step is taken
        du, dv = (guv * gv - gvv * gu) / det, (guv * gu - guu * gv) / det
        length = np.hypot(du, dv)
        clip = 3.0 / np.maximum(length, 3.0)  # a trust radius of 3h
        ix = np.argmax(f, axis=1)
        u = u + h * np.where(newton, du * clip, _STENCIL_U[ix])
        v = v + h * np.where(newton, dv * clip, _STENCIL_V[ix])
        h = np.where(newton & (length <= 3.0), np.maximum(np.minimum(0.2 * h, h * length), _NEWTON_FLOOR), h)
    best = np.maximum(best, score(u[:, None], v[:, None])[:, 0])
    return _scalar_or_stack(best.reshape(choi.shape[:-2])), _scalar_or_stack(flatness.reshape(choi.shape[:-2]))


def classical_capacity_closed(t: float) -> float:
    """Closed form of the accessible information, 1 - h2(3/4 - t/8)."""
    check_unit_interval("mixing weight t", t)
    return 1.0 - h2(3.0 / 4.0 - t / 8.0)


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
    ts = np.broadcast_to(as_reals("mixing weight t", t), np.shape(choi)[:-2])
    tables = trigger_joint_distribution(ts, p1, p2, p)
    i_tot = quantum_mutual_information(choi)
    i_class, _ = classical_accessible_info(choi)
    min_pt = min_partial_transpose_eigenvalue(choi)
    return InfoReport(
        t=_scalar_or_stack(ts.copy()),
        i_aux=shannon_mutual_information(tables),
        i_tot=i_tot,
        i_class=i_class,
        discord=i_tot - i_class,
        concurrence=concurrence(choi),
        i_coh=coherent_information(choi),
        min_pt_eigenvalue=min_pt,
        entanglement_breaking=min_pt >= -_PT_EIG_TOL,
    )
