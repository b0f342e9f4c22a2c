import math

import numpy as np
import pytest

from bellbidir.channels import QubitChannel, choi_of_channel
from bellbidir.errors import DomainError, NotPSD, OutOfRange
from bellbidir.infotheory import (
    aux_info_closed,
    classical_accessible_info,
    classical_capacity_closed,
    coherent_information,
    concurrence,
    concurrence_closed,
    h2,
    h4_22,
    h4_31,
    info_report,
    min_partial_transpose_eigenvalue,
    quantum_discord,
    quantum_mutual_information,
    shannon_mutual_information,
    symmetric_mixed_choi,
    total_info_closed,
    trigger_joint_distribution,
    von_neumann_entropy,
)
from bellbidir.linalg import projector
from bellbidir.sim import bell_state

RHO0 = np.eye(2, dtype=complex) / 2
PRODUCT = np.kron(RHO0, RHO0)

# closed-form anchors used below, derived by direct substitution
AUX_AT_CRITICAL = 5 / 3 - math.log2(3)  # = 0.0817041...
H4_31_AT_EIGHTH = 3 - (5 / 8) * math.log2(5)


def test_entropy_helpers_reference_points():
    assert h2(0.5) == 1.0
    assert h2(0.0) == 0.0 and h2(1.0) == 0.0
    assert abs(h4_22(0.25) - 2.0) <= 1e-12
    assert abs(h4_22(0.0) - 1.0) <= 1e-12
    assert abs(h4_31(1 / 8) - H4_31_AT_EIGHTH) <= 1e-12
    assert abs(h4_31(1 / 8) - 1.5488) <= 1e-4
    assert h4_31(0.0) == 0.0


def test_entropy_helpers_domains():
    with pytest.raises(DomainError):
        h2(1.1)
    with pytest.raises(DomainError):
        h4_22(0.6)
    with pytest.raises(DomainError):
        h4_31(0.4)
    with pytest.raises(DomainError):
        h2(-0.1)


def test_trigger_joint_distribution():
    assert np.abs(trigger_joint_distribution(1.0) - 0.25).max() <= 1e-15
    table = trigger_joint_distribution(0.0)
    assert np.abs(table - np.array([[0.0, 0.5], [0.5, 0.0]])).max() <= 1e-15
    table = trigger_joint_distribution(2 / 3)
    assert np.abs(table - np.array([[1 / 6, 1 / 3], [1 / 3, 1 / 6]])).max() <= 1e-15
    with pytest.raises(OutOfRange):
        trigger_joint_distribution(-0.1)


def test_shannon_mutual_information_limits():
    assert shannon_mutual_information(trigger_joint_distribution(1.0)) == 0.0
    assert shannon_mutual_information(trigger_joint_distribution(0.0)) == 1.0
    value = shannon_mutual_information(trigger_joint_distribution(2 / 3))
    assert abs(value - AUX_AT_CRITICAL) <= 1e-12
    assert abs(value - 0.0817) <= 5e-5


def test_shannon_mutual_information_validation():
    with pytest.raises(ValueError):
        shannon_mutual_information(np.ones((2, 2)))
    with pytest.raises(ValueError):
        shannon_mutual_information(np.ones(4) / 4)


def test_aux_info_closed_matches_table():
    for t in np.linspace(0.0, 1.0, 101):
        table = trigger_joint_distribution(t)
        assert abs(aux_info_closed(float(t)) - shannon_mutual_information(table)) <= 1e-12
    assert aux_info_closed(0.0) == 1.0
    assert aux_info_closed(1.0) == 0.0
    with pytest.raises(OutOfRange):
        aux_info_closed(2.0)


def test_von_neumann_entropy_reference_points():
    assert abs(von_neumann_entropy(RHO0) - 1.0) <= 1e-12
    assert abs(von_neumann_entropy(projector(bell_state()))) <= 1e-12
    # spectrum (7/16, 3/16, 3/16, 3/16) by substitution at t = 1
    expected = -(7 / 16) * math.log2(7 / 16) - 3 * (3 / 16) * math.log2(3 / 16)
    assert abs(von_neumann_entropy(symmetric_mixed_choi(1.0)) - expected) <= 1e-12
    assert abs(expected - 1.8802) <= 1e-4
    with pytest.raises(NotPSD):
        von_neumann_entropy(np.diag([1.1, -0.1]))


def test_quantum_mutual_information_golden_values():
    assert abs(quantum_mutual_information(symmetric_mixed_choi(0.0)) - 0.451) <= 1e-3
    assert abs(quantum_mutual_information(symmetric_mixed_choi(1.0)) - 0.120) <= 1e-3
    assert abs(quantum_mutual_information(PRODUCT)) <= 1e-12


def test_total_info_closed_matches_channel_state():
    for t in np.linspace(0.0, 1.0, 101):
        closed = total_info_closed(float(t))
        numeric = quantum_mutual_information(symmetric_mixed_choi(float(t)))
        assert abs(closed - numeric) <= 1e-10
    assert abs(total_info_closed(2 / 3) - (2 - h4_31(1 / 6))) <= 1e-15
    assert abs(total_info_closed(0.0) - 0.4512) <= 1e-4
    assert abs(total_info_closed(1.0) - 0.1198) <= 1e-4


def test_classical_accessible_info_golden_values():
    value, flatness = classical_accessible_info(symmetric_mixed_choi(0.0))
    assert abs(value - 0.189) <= 1e-3
    assert flatness <= 1e-9
    value, flatness = classical_accessible_info(symmetric_mixed_choi(1.0))
    assert abs(value - 0.0456) <= 5e-4
    assert flatness <= 1e-9
    value, flatness = classical_accessible_info(PRODUCT)
    assert abs(value) <= 1e-12
    assert flatness <= 1e-12
    with pytest.raises(OutOfRange):
        classical_accessible_info(PRODUCT, grid=4)


def test_classical_capacity_closed():
    assert abs(classical_capacity_closed(0.0) - 0.1887) <= 1e-4
    assert abs(classical_capacity_closed(1.0) - 0.0456) <= 1e-4
    assert abs(classical_capacity_closed(2 / 3) - aux_info_closed(2 / 3)) <= 1e-12
    for t in np.linspace(0.0, 1.0, 101):
        value, _ = classical_accessible_info(symmetric_mixed_choi(float(t)))
        assert abs(classical_capacity_closed(float(t)) - value) <= 1e-6


def test_quantum_discord():
    assert abs(quantum_discord(PRODUCT)) <= 1e-9
    assert abs(quantum_discord(symmetric_mixed_choi(0.0)) - 0.262) <= 2e-3
    assert abs(quantum_discord(symmetric_mixed_choi(1.0)) - 0.0744) <= 2e-3
    for t in (0.0, 0.5, 1.0):
        assert quantum_discord(symmetric_mixed_choi(t)) >= -1e-9


def test_concurrence_reference_states():
    assert abs(concurrence(projector(bell_state())) - 1.0) <= 1e-10
    assert abs(concurrence(symmetric_mixed_choi(0.0)) - 0.25) <= 1e-9
    assert concurrence(symmetric_mixed_choi(2 / 3)) <= 1e-12  # boundary, zero up to rounding
    for t in (0.8, 1.0):
        assert concurrence(symmetric_mixed_choi(t)) == 0.0
    with pytest.raises(NotPSD):
        concurrence(np.diag([1.1, 0.0, 0.0, -0.1]))


def test_concurrence_matches_werner_closed_form():
    # independent oracle: for q |bell><bell| + (1-q) I/4 the spin-flipped
    # spectrum gives max(0, (3q - 1)/2)
    for q in np.linspace(0.0, 1.0, 21):
        value = concurrence(choi_of_channel(QubitChannel(float(q))))
        assert abs(value - max(0.0, (3 * q - 1) / 2)) <= 1e-9


def test_concurrence_closed_matches_spectrum_path():
    for t in np.linspace(0.0, 1.0, 101):
        closed = concurrence_closed(float(t))
        numeric = concurrence(symmetric_mixed_choi(float(t)))
        assert abs(closed - numeric) <= 1e-9
    assert concurrence_closed(0.0) == 0.25
    assert concurrence_closed(2 / 3) == 0.0
    assert concurrence_closed(1 / 3) == 0.125


def test_min_partial_transpose_eigenvalue():
    assert abs(min_partial_transpose_eigenvalue(projector(bell_state())) + 0.5) <= 1e-12
    assert abs(min_partial_transpose_eigenvalue(PRODUCT) - 0.25) <= 1e-12
    # eigenvalues of the partial transpose of the mixed-scheme state: -1/8 + 3t/16
    for t in np.linspace(0.0, 1.0, 21):
        value = min_partial_transpose_eigenvalue(symmetric_mixed_choi(float(t)))
        assert abs(value - (-1 / 8 + 3 * t / 16)) <= 1e-12


def test_coherent_information():
    assert abs(coherent_information(symmetric_mixed_choi(0.0)) + 0.549) <= 1e-3
    assert abs(coherent_information(symmetric_mixed_choi(1.0)) + 0.880) <= 1e-3
    assert abs(coherent_information(projector(bell_state())) - 1.0) <= 1e-12
    for t in np.linspace(0.0, 1.0, 51):
        choi = symmetric_mixed_choi(float(t))
        i_coh = coherent_information(choi)
        assert abs(i_coh - (quantum_mutual_information(choi) - 1.0)) <= 1e-9
        assert i_coh < 0.0


def test_monotonicity_in_t():
    ts = np.linspace(0.0, 1.0, 41)
    reports = [info_report(float(t), grid=16) for t in ts]
    for field in ("i_aux", "i_tot", "i_class", "concurrence"):
        values = [getattr(r, field) for r in reports]
        assert all(a >= b - 1e-9 for a, b in zip(values, values[1:])), field


def test_info_report_critical_point():
    report = info_report(2 / 3)
    assert abs(report.i_aux - 0.0817) <= 5e-5
    assert abs(report.i_class - report.i_aux) <= 1e-5
    assert report.concurrence <= 1e-12
    assert report.entanglement_breaking


def test_info_report_endpoints():
    report = info_report(0.0)
    assert report.i_aux == 1.0
    assert abs(report.i_tot - 0.451) <= 1e-3
    assert abs(report.i_class - 0.189) <= 1e-3
    assert abs(report.concurrence - 0.25) <= 1e-9
    assert not report.entanglement_breaking
    report = info_report(1.0)
    assert report.i_aux == 0.0
    assert abs(report.i_tot - 0.120) <= 1e-3
    assert abs(report.i_class - 0.0456) <= 5e-4
    assert report.concurrence == 0.0
    assert report.entanglement_breaking


def test_info_report_internal_identities():
    for t in (0.1, 0.5, 0.9):
        report = info_report(t)
        assert abs(report.discord - (report.i_tot - report.i_class)) <= 1e-9
        assert abs(report.i_coh - (report.i_tot - 1.0)) <= 1e-9
        assert report.entanglement_breaking == (report.min_pt_eigenvalue >= -1e-10)


def test_symmetric_mixed_choi_range():
    with pytest.raises(OutOfRange):
        symmetric_mixed_choi(-0.2)
