"""Teleportation fidelities of the three schemes against the classical bound.

Sending a qubit by classical communication alone cannot exceed an average
fidelity of 2/3, so a scheme is worth its entanglement only above that
line.  The independent-trigger scheme never clears it in both directions at
once; the common trigger does; the mixture crosses the boundary at
t = 2/3.
"""
from functools import partial

import numpy as np

from bellbidir.channels import CRITICAL_T, analytic_channel, choi_of_channel, fidelity_closed, fidelity_quadrature
from bellbidir.protocols import A_TO_B, B_TO_A, SchemeParams, apply_channel_from_choi

CLASSICAL_BOUND = 2 / 3

print("Independent triggers: fidelity A->B over the (p1, p2) square")
print("      p2:  " + "  ".join(f"{p2:5.2f}" for p2 in np.linspace(0, 1, 6)))
for p1 in np.linspace(0, 1, 6):
    row = []
    for p2 in np.linspace(0, 1, 6):
        params = SchemeParams.from_probabilities(p1=p1, p2=p2)
        row.append(fidelity_closed(analytic_channel("independent", params, A_TO_B)))
    print(f"  p1={p1:4.2f}  " + "  ".join(f"{f:.3f}" for f in row))

symmetric = SchemeParams.from_probabilities(p1=0.5, p2=0.5, p=0.5)
f_ind = fidelity_closed(analytic_channel("independent", symmetric, A_TO_B))
f_com = fidelity_closed(analytic_channel("common", symmetric, A_TO_B))
print(f"\nSymmetric operating point: independent = {f_ind} (< 2/3), common = {f_com} (> 2/3)")

print("\nMixed scheme, symmetric point: F(t) = 3/4 - t/8, same in both directions")
for t in np.linspace(0, 1, 9):
    params = SchemeParams.from_probabilities(t=float(t))
    f_ab = fidelity_closed(analytic_channel("mixed", params, A_TO_B))
    f_ba = fidelity_closed(analytic_channel("mixed", params, B_TO_A))
    marker = " <- classical boundary" if abs(f_ab - CLASSICAL_BOUND) < 1e-9 else ""
    print(f"  t = {t:5.3f}: F = {f_ab:.6f} / {f_ba:.6f}{marker}")

t0 = CRITICAL_T
print(f"\nCritical mixing weight t0 = {t0} (fidelity there = {0.75 - t0 / 8:.6f})")

q = analytic_channel("mixed", SchemeParams.from_probabilities(t=0.4), A_TO_B)
quadrature = fidelity_quadrature(partial(apply_channel_from_choi, choi_of_channel(q)), nodes=32)
print(f"\nQuadrature cross-check at t = 0.4: closed form {fidelity_closed(q):.12f}, "
      f"32x32-node Bloch average {quadrature:.12f}")
