"""Closed-form depolarizing-family channel models and teleportation fidelity.

Every channel the protocol produces has the one-parameter form

    E[rho] = q * rho + (1 - q) * I/2,

so a channel is its weight q of the input-preserving term: a float, or an
array of them for a stack.  Its action on a state is
``apply_channel_from_choi(choi_of_channel(q), rho)``.  Fidelity is available
both in closed form and through independent Bloch-sphere quadrature.
"""
from __future__ import annotations

import math
from typing import Callable

import numpy as np

from .errors import OutOfRange, as_reals, is_integer
from .infotheory import trigger_joint_distribution
from .linalg import _reject_first, _scalar_or_stack, projector
from .protocols import A_TO_B, DIRECTIONS, SchemeParams
from .sim import bell_state

SCHEMES = ("independent", "common", "mixed")

# Mixing weight where the symmetric scheme meets the classical fidelity bound:
# at p1 = p2 = p = 1/2 the fidelity is 3/4 - t/8, which equals 2/3 at t = 2/3.
CRITICAL_T = 2.0 / 3.0


def _checked_weight(q) -> np.ndarray:
    """``q`` as a float array; :class:`OutOfRange` names the first weight outside [0, 1] beyond rounding."""
    q = as_reals("channel weight q", q)
    _reject_first(~((q >= -1e-12) & (q <= 1.0 + 1e-12)), q, OutOfRange, "channel weight q={} outside [0, 1]", "weight")
    return q


def mixing_weight(scheme: str, params: SchemeParams) -> float:
    """Weight t of the independent triggers in a scheme: 1 independent, 0 common, the point's own t mixed."""
    if scheme not in SCHEMES:
        raise ValueError(f"scheme must be one of {SCHEMES}, got {scheme!r}")
    return {"independent": 1.0, "common": 0.0}.get(scheme, params.t)


def analytic_channel(scheme: str, params: SchemeParams | list[SchemeParams], direction: str):
    """Closed-form channel weight q: the probability that the sender fires and the receiver stays silent.

    A sequence of SchemeParams gives one weight per point, from one stack of trigger tables.
    """
    if direction not in DIRECTIONS:
        raise ValueError(f"direction must be one of {DIRECTIONS}, got {direction!r}")
    points = [params] if isinstance(params, SchemeParams) else params
    columns = np.reshape([[mixing_weight(scheme, x), x.p1, x.p2, x.p] for x in points], (-1, 4)).T
    table = trigger_joint_distribution(*columns)
    q = table[:, 1, 0] if direction == A_TO_B else table[:, 0, 1]
    return float(q[0]) if isinstance(params, SchemeParams) else q


def choi_of_channel(q) -> np.ndarray:
    """Channel state q |bell><bell| + (1 - q) I/4 of a depolarizing-family channel; an array of q gives a stack."""
    q = _checked_weight(q)[..., None, None]
    bell = projector(bell_state())
    return q * bell + (1.0 - q) * np.eye(4, dtype=complex) / 4


def weight_from_choi(choi: np.ndarray):
    """Invert :func:`choi_of_channel` via the Bell-state overlap; a ``(..., 4, 4)`` stack gives one weight per state."""
    bell = bell_state()
    row = bell.conj() @ np.asarray(choi, dtype=complex)
    # one (1, 4) @ (4, 1) product per state runs numpy's dot kernel, so each entry equals its single-state float
    overlap = np.real(row[..., None, :] @ bell[:, None])[..., 0, 0]
    return _scalar_or_stack((4.0 * overlap - 1.0) / 3.0)


def fidelity_closed(q):
    """Bloch-sphere-averaged teleportation fidelity, (1 + q) / 2; an array of q gives one per weight."""
    return _scalar_or_stack((1.0 + _checked_weight(q)) / 2.0)


def fidelity_quadrature(channel_apply: Callable[[np.ndarray], np.ndarray], nodes: int = 32) -> float:
    """Average output-vs-input overlap over the Bloch sphere by quadrature.

    ``channel_apply`` maps a ``(..., 2, 2)`` stack of input density matrices
    to the output ones, as ``partial(apply_channel_from_choi, choi)`` does;
    it is called once on all nodes**2 node states.  The polar integral uses Gauss-Legendre
    nodes in cos(theta); the azimuthal one a uniform trapezoid rule, exact
    for periodic integrands.  For depolarizing-family channels the integrand
    is constant and the result matches :func:`fidelity_closed` to machine
    precision at any node count.
    """
    if not is_integer(nodes) or nodes < 4:
        raise OutOfRange(f"need an integer of at least 4 quadrature nodes, got {nodes!r}")
    cos_nodes, weights = np.polynomial.legendre.leggauss(nodes)
    half_thetas = np.arccos(cos_nodes)[:, None] / 2  # polar nodes down the rows, uniform azimuths along them
    phases = np.exp(1j * (2.0 * math.pi * np.arange(nodes) / nodes))
    psi = np.stack(np.broadcast_arrays(np.cos(half_thetas), phases * np.sin(half_thetas)), axis=-1)
    out = np.asarray(channel_apply(psi[..., :, None] * psi[..., None, :].conj()), dtype=complex)
    overlaps = np.einsum("...i,...ij,...j->...", psi.conj(), out, psi).real
    return float(weights @ overlaps.mean(axis=1)) / 2.0
