"""Build the trigger-controlled teleportation circuits and extract their channels.

Each scheme is run as a pure-state circuit with an extra reference qubit
Bell-paired to the input; tracing everything else out yields the channel
state, which is compared against the closed-form depolarizing model.
"""
import math

import numpy as np

from bellbidir.channels import analytic_channel, choi_of_channel, weight_from_choi
from bellbidir.linalg import trace_distance
from bellbidir.protocols import (
    A_TO_B,
    B_TO_A,
    SchemeParams,
    build_scheme_common,
    build_scheme_independent,
    channel_endpoints,
    extract_choi,
)

np.set_printoptions(precision=4, suppress=True)

print("Independent triggers, symmetric point (theta1 = theta2 = pi/2)")
params = SchemeParams(theta1=math.pi / 2, theta2=math.pi / 2)
circuit = build_scheme_independent(params)
for direction in (A_TO_B, B_TO_A):
    choi = extract_choi(circuit, *channel_endpoints(direction))
    q = analytic_channel("independent", params, direction)
    distance = trace_distance(choi, choi_of_channel(q))
    print(f"  {direction}: simulated q = {weight_from_choi(choi):.6f}, model q = {q:.6f}, "
          f"trace distance = {distance:.2e}")

print("\nChannel state at the symmetric point (A to B):")
print(np.real(extract_choi(circuit, "Q_A", "C_B")))

print("\nPerfect one-way limits of the independent scheme")
for theta1, theta2, label in [(math.pi, 0.0, "Alice fires, Bob idles"), (0.0, math.pi, "Bob fires, Alice idles")]:
    circuit = build_scheme_independent(SchemeParams(theta1=theta1, theta2=theta2))
    q_ab = weight_from_choi(extract_choi(circuit, "Q_A", "C_B"))
    q_ba = weight_from_choi(extract_choi(circuit, "Q_B", "C_A"))
    print(f"  {label}: q(A->B) = {q_ab:.4f}, q(B->A) = {q_ba:.4f}")

print("\nCommon trigger: one side always fires, the other never does")
for theta in (0.0, math.pi / 3, math.pi / 2, 2 * math.pi / 3, math.pi):
    circuit = build_scheme_common(SchemeParams(theta=theta))
    q_ab = weight_from_choi(extract_choi(circuit, "Q_A", "C_B"))
    q_ba = weight_from_choi(extract_choi(circuit, "Q_B", "C_A"))
    print(f"  theta = {theta:6.4f}: q(A->B) = {q_ab:.4f}, q(B->A) = {q_ba:.4f}, sum = {q_ab + q_ba:.4f}")
