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

from .errors import BadMatrix, DomainError, _reject_first, as_reals, as_unit_interval, broadcast, check_unit_interval
from .linalg import _scalar_or_stack, as_numbers, partial_trace, psd_eigenvalues

_PROB_FLOOR = 1e-15
_DOMAIN_SLACK = 1e-12
_TRACE_TOL = 1e-10  # a density matrix whose trace is off 1 by more is rejected
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


def _plog2(p: np.ndarray) -> np.ndarray:
    live = p > _PROB_FLOOR
    return np.where(live, -p * np.log2(np.where(live, p, 1.0)), 0.0)


def _entropy_argument(name: str, x, upper: float, bound: str) -> np.ndarray:
    """``x`` as a float array clamped to [0, upper]; :class:`DomainError` names the first entry beyond rounding."""
    x = as_reals(f"{name} argument", x)
    bad = ~((x >= -_DOMAIN_SLACK) & (x <= upper + _DOMAIN_SLACK))
    _reject_first(bad, x, DomainError, f"{name} argument {{}} outside [0, {bound}]", "entry")
    return np.clip(x, 0.0, upper)


def h2(x):
    """Binary entropy -x log2 x - (1-x) log2 (1-x); an array gives one per entry."""
    x = _entropy_argument("h2", x, 1.0, "1")
    return _scalar_or_stack(_plog2(x) + _plog2(1.0 - x))


def h4_22(x):
    """Quaternary entropy of the distribution (x, x, 1/2 - x, 1/2 - x); an array gives one per entry."""
    x = _entropy_argument("h4_22", x, 0.5, "1/2")
    return _scalar_or_stack(2.0 * (_plog2(x) + _plog2(0.5 - x)))


def h4_31(x):
    """Quaternary entropy of the distribution (x, x, x, 1 - 3x); an array gives one per entry."""
    x = _entropy_argument("h4_31", x, 1.0 / 3.0, "1/3")
    return _scalar_or_stack(3.0 * _plog2(x) + _plog2(1.0 - 3.0 * x))


def trigger_joint_distribution(t, p1=0.5, p2=0.5, p=0.5) -> np.ndarray:
    """Joint distribution of the two parties' don't-fire / fire decisions.

    Rows index Alice's decision, columns Bob's.  Weight t goes to independent
    triggers firing with probabilities p1 and p2; weight 1 - t sits on the
    anti-diagonal, where a common trigger fires Alice with probability p and
    Bob otherwise.  Arrays broadcast together into a ``(..., 2, 2)`` stack of tables.
    """
    arrays = map(as_unit_interval, ("mixing weight t", "p1", "p2", "p"), (t, p1, p2, p))
    t, p1, p2, p = broadcast("trigger parameters (t, p1, p2, p)", *arrays)
    table = np.array([[t * ((1.0 - p1) * (1.0 - p2)), t * ((1.0 - p1) * p2) + (1.0 - t) * (1.0 - p)],
                      [t * (p1 * (1.0 - p2)) + (1.0 - t) * p, t * (p1 * p2)]])  # each product in np.outer's order
    return np.moveaxis(table, (0, 1), (-2, -1))


def shannon_mutual_information(m: np.ndarray):
    """Mutual information of a 2x2 joint probability table, or of each table of a ``(..., 2, 2)`` stack, in bits."""
    m = as_reals("joint probability table", m)
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


def aux_info_closed(t):
    """Closed form of the trigger mutual information, 2 - h4_22(t/4); an array of t gives one per entry."""
    return 2.0 - h4_22(as_unit_interval("mixing weight t", t) / 4.0)


def _density_matrices(rho) -> tuple[np.ndarray, np.ndarray]:
    """The one check of a two-qubit density matrix or stack: 4x4 numbers, a trace of 1 within _TRACE_TOL and the
    validity rule, in that order.  Returns ``rho`` as a complex array and its spectrum (:func:`psd_eigenvalues`)."""
    rho = as_numbers("density matrix", rho, 4).astype(complex, copy=False)
    trace = np.trace(rho, axis1=-2, axis2=-1).real
    bad = np.isfinite(trace) & (np.abs(trace - 1.0) > _TRACE_TOL)  # the validity rule names a NaN or inf entry
    _reject_first(bad, trace, BadMatrix, "density matrix has trace {:.12g}, not 1")
    return rho, psd_eigenvalues(rho)


def _entropy(w: np.ndarray) -> np.ndarray:
    """Entropy of each spectrum along the last axis of ``w``; eigenvalues below zero are rounding noise."""
    return sum(np.moveaxis(_plog2(np.maximum(w, 0.0)), -1, 0))  # summed in eigenvalue order, as a Python sum would


def _marginal_entropy(choi: np.ndarray, keep: int) -> np.ndarray:
    """Entropy of qubit ``keep`` of each checked two-qubit state: 0 the reference, 1 the output."""
    return _entropy(np.linalg.eigvalsh(partial_trace(choi, 2, [keep])))


def total_info_closed(t):
    """Closed form of the channel-state mutual information, 2 - h4_31(1/8 + t/16); an array of t gives one per entry."""
    return 2.0 - h4_31(1.0 / 8.0 + as_unit_interval("mixing weight t", t) / 16.0)


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
    choi, _ = _density_matrices(rho_rq)
    return tuple(map(_scalar_or_stack, _accessible_info(choi, _marginal_entropy(choi, 1))))


def _accessible_info(choi: np.ndarray, s_output: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """:func:`classical_accessible_info` of checked states, given the entropy ``s_output`` of each output."""
    pauli = np.einsum("naqbr,iba,jrq->nij", choi.reshape(-1, 2, 2, 2, 2), _PAULIS, _PAULIS).real
    s_output = np.reshape(s_output, -1)
    forms = _forms(pauli)
    # the lattice is scored _SCAN_BLOCK states at a time: its intermediates take ~0.04 MiB per state
    blocks = [slice(i, i + _SCAN_BLOCK) for i in range(0, max(len(pauli), 1), _SCAN_BLOCK)]  # one, if no state
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
    return best.reshape(choi.shape[:-2]), flatness.reshape(choi.shape[:-2])


def classical_capacity_closed(t):
    """Closed form of the accessible information, 1 - h2(3/4 - t/8); an array of t gives one per entry."""
    return 1.0 - h2(3.0 / 4.0 - as_unit_interval("mixing weight t", t) / 8.0)


def _concurrence(rho: np.ndarray) -> np.ndarray:
    """Two-qubit entanglement monotone of each checked state, from the spin-flipped spectrum.

    Evaluates the Hermitian matrix sqrt(rho) (sy x sy) rho* (sy x sy)
    sqrt(rho), takes the square roots of its eigenvalues in descending
    order, and returns max(0, l1 - l2 - l3 - l4).  The root takes its own
    ``eigh``, whose eigenvalues differ in the last bits from ``eigvalsh``'s.
    """
    w, v = np.linalg.eigh(rho)
    root = (v * np.sqrt(np.clip(w, 0.0, None))[..., None, :]) @ v.conj().swapaxes(-1, -2)
    root = (root + root.conj().swapaxes(-1, -2)) / 2
    m = root @ _FLIP @ rho.conj() @ _FLIP @ root
    m = (m + m.conj().swapaxes(-1, -2)) / 2.0
    lam = np.sqrt(np.clip(np.linalg.eigvalsh(m)[..., ::-1], 0.0, None))
    return np.maximum(0.0, lam[..., 0] - lam[..., 1] - lam[..., 2] - lam[..., 3])


def concurrence_closed(t):
    """Closed form for the symmetric mixed channel state, max(0, 1/4 - 3t/8); an array of t gives one per entry."""
    return _scalar_or_stack(np.maximum(0.0, 0.25 - 3.0 * as_unit_interval("mixing weight t", t) / 8.0))


def _min_pt_eigenvalue(rho: np.ndarray) -> np.ndarray:
    """Smallest eigenvalue of the partial transpose over the second qubit, per checked state.

    For two qubits, nonnegativity of the partial transpose is equivalent to
    separability, so a nonnegative result certifies an entanglement-breaking
    channel when ``rho`` is its channel state.
    """
    transposed = rho.reshape(*rho.shape[:-2], 2, 2, 2, 2).swapaxes(-3, -1).reshape(rho.shape)
    return np.linalg.eigvalsh(transposed).min(axis=-1)


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

    The report is the one route to each measure's value.  ``t``, the
    trigger-correlation level of the auxiliary classical information (1 for
    independent triggers, 0 for a common one), broadcasts with the stack, and
    ``p1``, ``p2``, ``p`` are the firing probabilities of
    :func:`trigger_joint_distribution`, one real number each
    (:class:`OutOfRange` otherwise).  Each state is checked once.  i_tot is
    S[rho_R] + S[rho_Q] - S[rho_RQ], and i_coh is S[rho_Q] - S[rho_RQ].
    """
    choi, w = _density_matrices(choi)
    _, ts = broadcast("the stack of states and mixing weight t", choi[..., 0, 0], as_reals("mixing weight t", t))
    choi = np.broadcast_to(choi, (*ts.shape, 4, 4))  # the spectrum w broadcasts as s_rq
    for name, value in (("p1", p1), ("p2", p2), ("p", p)):
        check_unit_interval(name, value)  # an array would broadcast with t and give i_aux its own shape
    tables = trigger_joint_distribution(ts, p1, p2, p)
    s_rq, s_q = _entropy(w), _marginal_entropy(choi, 1)
    i_tot, i_class = _marginal_entropy(choi, 0) + s_q - s_rq, _accessible_info(choi, s_q)[0]
    values = [ts.copy(), shannon_mutual_information(tables), i_tot, i_class, i_tot - i_class]  # t to discord
    values += [_concurrence(choi), s_q - s_rq, _min_pt_eigenvalue(choi)]  # to min_pt_eigenvalue
    fields = [_scalar_or_stack(value) for value in values]
    return InfoReport(*fields, entanglement_breaking=fields[-1] >= -_PT_EIG_TOL)
