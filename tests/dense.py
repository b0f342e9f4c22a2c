"""The dense one-gate oracle: a gate applied to an n-qubit register viewed as ``reshape([2] * n)``.

Every qubit has its own axis and the gate is one elementwise update of two slices, so the oracle shares no code
with ``bellbidir.sim``'s split-axis views or its compact plan, and rounds as the simulator does: an H is
``(a0 + a1, a0 - a1)`` times 1/sqrt(2), a Z negates, an X swaps.  Tests reduce over :func:`oracle_apply_gate` as the
reference gate chain.
"""
import math

import numpy as np


def _ix(n, fixed):
    """Index tuple of an ``[2] * n`` view: ``fixed`` maps qubit to value, every other qubit is a full slice."""
    ix = [slice(None)] * n
    for axis, value in fixed.items():
        ix[axis] = value
    return tuple(ix)


def oracle_apply_gate(state, gate):
    """The state, or each state of a stack, with one gate applied: a new float64 or complex128 array."""
    n = state.shape[-1].bit_length() - 1
    *controls, target = gate.qubits
    lo, hi = ((Ellipsis, *_ix(n, {**dict.fromkeys(controls, 1), target: value})) for value in (0, 1))
    out = np.array(state, dtype=complex if np.iscomplexobj(state) else float)
    psi = out.reshape(*out.shape[:-1], *[2] * n)
    if gate.kind == "H":
        a0 = psi[lo].copy()
        a1 = psi[hi]
        psi[lo] = (a0 + a1) * (1.0 / math.sqrt(2.0))
        psi[hi] = (a0 - a1) * (1.0 / math.sqrt(2.0))
    elif gate.kind in ("Z", "CZ"):
        psi[hi] *= -1.0
    else:
        a0 = psi[lo].copy()
        psi[lo] = psi[hi]
        psi[hi] = a0
    return out
