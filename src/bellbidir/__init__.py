"""Bidirectional imperfect teleportation over a single shared Bell pair.

A statevector simulator for the trigger-controlled protocol circuits, the
matching closed-form depolarizing channel models, and the information
measures of the resulting channels.
"""

__version__ = "0.1.0"

from .channels import (
    QubitChannel,
    analytic_channel,
    choi_of_channel,
    fidelity_closed,
    fidelity_quadrature,
    weight_from_choi,
)
from .infotheory import (
    InfoReport,
    aux_info_closed,
    classical_accessible_info,
    classical_capacity_closed,
    coherent_information,
    concurrence,
    concurrence_closed,
    info_report_from_choi,
    min_partial_transpose_eigenvalue,
    quantum_discord,
    quantum_mutual_information,
    shannon_mutual_information,
    total_info_closed,
    trigger_joint_distribution,
    von_neumann_entropy,
)
from .linalg import matrix_sqrt_psd, partial_trace, projector, trace_distance
from .protocols import (
    A_TO_B,
    B_TO_A,
    SchemeParams,
    apply_channel_from_choi,
    build_indirect_bell_block,
    build_scheme_common,
    build_scheme_independent,
    channel_endpoints,
    choi_mixed,
    extract_choi,
    sample_mixed_trajectories,
    sample_trajectories,
)
from .sim import (
    CCNOT,
    CNOT,
    CZ,
    Circuit,
    Gate,
    H,
    X,
    Z,
    apply_gate,
    bell_state,
    bloch_state,
    measure_qubit,
    reduced_density_matrix,
    run_circuit,
)
