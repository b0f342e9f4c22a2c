"""Literal measure-and-correct runs versus the deterministic channel.

The library normally rewrites mid-circuit measurement plus classical
feed-forward as measurement-qubit-controlled gates followed by a partial
trace, which yields the exact channel in one run.  Here the same circuit is
executed the literal way instead: measure the record qubits, apply X/Z
corrections on the 1 outcomes, and average many trajectories.
"""
import numpy as np

from bellbidir.linalg import projector
from bellbidir.protocols import (
    SchemeParams,
    apply_channel_from_choi,
    build_scheme_independent,
    extract_choi,
    sample_trajectories,
)
from bellbidir.sim import bloch_state

TRIALS = 5000
psi = bloch_state(1.1, 0.6)
params = SchemeParams()  # symmetric triggers
circuit = build_scheme_independent(params)

choi = extract_choi(circuit, "Q_A", "C_B")
expected = apply_channel_from_choi(choi, projector(psi))
print("Deterministic channel output for the test state:")
print(np.round(expected, 6))

samples = sample_trajectories(circuit, "Q_A", "C_B", psi, trials=TRIALS, seed=2024)
mean = samples.mean(axis=0)
stderr = samples.std(axis=0, ddof=1) / np.sqrt(TRIALS)
print(f"\nAverage of {TRIALS} measure-and-correct trajectories:")
print(np.round(mean, 6))
print("\nEntrywise |mean - deterministic| in units of the standard error:")
with np.errstate(invalid="ignore", divide="ignore"):
    sigmas = np.abs(mean - expected) / np.where(np.abs(stderr) > 0, np.abs(stderr), np.nan)
print(np.round(np.nan_to_num(sigmas), 2))
print("\nEverything within a few standard errors confirms the deferred-measurement rewrite.")
