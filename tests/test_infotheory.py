import math
from dataclasses import astuple
from fractions import Fraction

import numpy as np
import pytest

from bellbidir import cli, infotheory, linalg
from bellbidir.channels import choi_of_channel
from bellbidir.errors import BadMatrix, DomainError, NonHermitianInput, NotPSD, OutOfRange
from bellbidir.infotheory import (
    _SCAN_MONOMIALS,
    _forms,
    _monomials,
    _objective,
    aux_info_closed,
    classical_accessible_info,
    classical_capacity_closed,
    concurrence_closed,
    h2,
    h4_22,
    h4_31,
    info_report_from_choi,
    shannon_mutual_information,
    total_info_closed,
    trigger_joint_distribution,
)
from bellbidir.linalg import partial_trace, projector, psd_eigenvalues
from bellbidir.protocols import SchemeParams, build_scheme_common, build_scheme_independent, choi_mixed, extract_choi
from bellbidir.sim import bell_state, bloch_state

RHO0 = np.eye(2, dtype=complex) / 2
PRODUCT = np.kron(RHO0, RHO0)

# closed-form anchors used below, derived by direct substitution
AUX_AT_CRITICAL = 5 / 3 - math.log2(3)  # = 0.0817041...
H4_31_AT_EIGHTH = 3 - (5 / 8) * math.log2(5)


def symmetric_mixed_choi(t):
    """Closed-form channel state of the mixed scheme at p1 = p2 = p = 1/2."""
    return choi_of_channel(0.5 - 0.25 * t)


def info_report(t):
    return info_report_from_choi(symmetric_mixed_choi(t), t)


def report(rho):
    """The information report of a state, or of each state of a stack, at t = 1/2: the one route to each measure."""
    return info_report_from_choi(rho, 0.5)


def coherent_information(rho):
    """The report's i_coh, S[rho_Q] - S[rho_RQ], of a state or of each state of a stack."""
    return report(rho).i_coh


def von_neumann_entropy(rho):
    """The oracle -Tr[rho log2 rho] of a Hermitian matrix or of each of a stack, by its eigenvalues, unchecked.

    Eigenvalues below 1e-15 count as zero, and the terms are summed in eigenvalue order, as the package does.
    """
    p = np.maximum(np.linalg.eigvalsh(rho), 0.0)
    terms = -p * np.log2(p, out=np.zeros_like(p), where=p > 1e-15)
    return sum(np.moveaxis(terms, -1, 0))


def marginals(rho):
    """rho_R and rho_Q of a two-qubit state or stack, each an explicit sum over the other qubit's index."""
    blocks = rho.reshape(*rho.shape[:-2], 2, 2, 2, 2)  # blocks[..., r, q, r', q']
    return blocks[..., :, 0, :, 0] + blocks[..., :, 1, :, 1], blocks[..., 0, :, 0, :] + blocks[..., 1, :, 1, :]


def mutual_information_oracle(rho):
    """S[rho_R] + S[rho_Q] - S[rho_RQ] from the explicit marginals."""
    rho_r, rho_q = marginals(rho)
    return von_neumann_entropy(rho_r) + von_neumann_entropy(rho_q) - von_neumann_entropy(rho)


SIGMA_Y = np.array([[0, -1j], [1j, 0]])


def concurrence_oracle(rho):
    """Wootters' concurrence from the square roots of the eigenvalues of rho (sy x sy) rho* (sy x sy), not Hermitian."""
    flip = np.kron(SIGMA_Y, SIGMA_Y)
    eig = np.linalg.eigvals(rho @ flip @ rho.conj() @ flip)
    lam = -np.sort(-np.sqrt(np.clip(eig.real, 0.0, None)), axis=-1)
    return np.maximum(0.0, lam[..., 0] - lam[..., 1] - lam[..., 2] - lam[..., 3])


# entry (a q, b r) of the partial transpose over Q is entry (a r, b q) of rho, in row-major flat indices
PT_INDEX = np.arange(16).reshape(2, 2, 2, 2).transpose(0, 3, 2, 1).ravel()


def min_pt_eigenvalue_oracle(rho):
    """Smallest eigenvalue of the partial transpose over Q, by permuting the flat entries of rho."""
    return np.linalg.eigvalsh(rho.reshape(*rho.shape[:-2], 16)[..., PT_INDEX].reshape(rho.shape))[..., 0]


def random_state(rng, rank=4):
    g = rng.normal(size=(4, rank)) + 1j * rng.normal(size=(4, rank))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


def fig4_states():
    """The 101 simulated channel states of fig 4: the symmetric point's two schemes mixed per t."""
    parts = [extract_choi(build(SchemeParams()), "Q_A", "C_B") for build in (build_scheme_independent, build_scheme_common)]
    return choi_mixed(np.linspace(0.0, 1.0, 101).tolist(), *parts)


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


CLOSED_FORMS = (aux_info_closed, total_info_closed, classical_capacity_closed, concurrence_closed)
ENTROPY_HELPERS = ((h2, 1.0, "1"), (h4_22, 0.5, "1/2"), (h4_31, 1.0 / 3.0, "1/3"))


def test_closed_forms_and_entropy_helpers_on_a_stack_equal_per_entry_calls():
    ts = np.concatenate([np.linspace(0.0, 1.0, 1001), np.random.default_rng(17).random(197), [-0.0, 2.0 / 3.0]])
    cases = [(closed, ts) for closed in CLOSED_FORMS]
    cases += [(helper, np.concatenate([ts[2:] * upper, [-1e-13, upper + 1e-13]])) for helper, upper, _ in ENTROPY_HELPERS]
    for function, xs in cases:
        singles = [function(x) for x in xs.tolist()]
        assert all(type(value) is float for value in singles), function
        stacked = function(xs.reshape(2, 3, -1))
        assert stacked.shape == (2, 3, len(xs) // 6)
        assert np.array_equal(stacked.ravel().view(np.uint64), np.array(singles).view(np.uint64)), function


def test_a_range_or_domain_error_on_a_stack_names_the_entry():
    for closed in CLOSED_FORMS:
        with pytest.raises(OutOfRange, match=r"^mixing weight t=1\.5 outside \[0, 1\] \(entry 2 of the stack\)$"):
            closed([0.0, 0.5, 1.5, np.nan])
        with pytest.raises(OutOfRange, match=r"^mixing weight t=nan outside \[0, 1\]$"):
            closed(np.nan)
    with pytest.raises(OutOfRange, match=r"^mixing weight t=-0\.5 outside \[0, 1\] \(entry 3 of the stack\)$"):
        choi_mixed([0.0, 0.5, 1.0, -0.5], PRODUCT, PRODUCT)
    for helper, _, bound in ENTROPY_HELPERS:
        message = rf"^{helper.__name__} argument -0\.1 outside \[0, {bound}\] \(entry 1 of the stack\)$"
        with pytest.raises(DomainError, match=message):
            helper([[0.0, -0.1], [2.0, 0.1]])


def test_trigger_joint_distribution():
    assert np.abs(trigger_joint_distribution(1.0) - 0.25).max() <= 1e-15
    table = trigger_joint_distribution(0.0)
    assert np.abs(table - np.array([[0.0, 0.5], [0.5, 0.0]])).max() <= 1e-15
    table = trigger_joint_distribution(2 / 3)
    assert np.abs(table - np.array([[1 / 6, 1 / 3], [1 / 3, 1 / 6]])).max() <= 1e-15
    table = trigger_joint_distribution(0.5, p1=0.2, p2=0.7, p=0.9)
    assert np.abs(table - np.array([[0.12, 0.33], [0.48, 0.07]])).max() <= 1e-15
    with pytest.raises(OutOfRange):
        trigger_joint_distribution(-0.1)
    with pytest.raises(OutOfRange, match=r"^p=1.5 outside \[0, 1\]$"):
        trigger_joint_distribution(0.5, p=1.5)
    with pytest.raises(OutOfRange, match=r"^p2=nan outside \[0, 1\] \(entry 2 of the stack\)$"):
        trigger_joint_distribution([0.1, 0.2, 0.3, 0.4], 0.5, [0.1, 1.0, np.nan, 2.0])


def test_trigger_table_equals_the_outer_product_formula():
    rng = np.random.default_rng(11)
    points = np.vstack([rng.random((1000, 4)), [[0.0, 0.0, 1.0, 1.0], [1.0, 1.0, 0.0, 0.5]]]).tolist()
    for t, p1, p2, p in points:
        outer = t * np.outer([1.0 - p1, p1], [1.0 - p2, p2]) + (1.0 - t) * np.array([[0.0, 1.0 - p], [p, 0.0]])
        table = trigger_joint_distribution(t, p1, p2, p)
        assert table.dtype == float and table.shape == (2, 2)
        assert np.array_equal(table, outer), (t, p1, p2, p)
    # one call on a stack, or on a column broadcast against scalars, gives each table's bits
    singles = np.array([trigger_joint_distribution(*point) for point in points])
    assert np.array_equal(trigger_joint_distribution(*np.array(points).T).view(np.uint64), singles.view(np.uint64))
    column = [trigger_joint_distribution(t, 0.2, 0.7, 0.9) for t, *_ in points[:50]]
    stacked = trigger_joint_distribution(np.reshape(points, (-1, 4))[:50, 0].reshape(5, 10), 0.2, 0.7, 0.9)
    assert np.array_equal(stacked.reshape(50, 2, 2).view(np.uint64), np.array(column).view(np.uint64))


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
    with pytest.raises(ValueError):
        shannon_mutual_information(np.array([[0.5, np.nan], [0.25, 0.25]]))
    tables = np.array([trigger_joint_distribution(t) for t in (0.0, 0.5, 1.0)])
    tables[2, 1, 0] = -0.1
    with pytest.raises(ValueError, match="table 2 of the stack"):
        shannon_mutual_information(tables)
    # unchecked, the strings parse as a uniform table of information 0, and a complex table warns before it fails
    # the one-line message names the first entry that is not a real number, not the repr of the whole table
    for table, entry in (
        ([["0.25"] * 2] * 2, r"'0\.25' is not a real number \(entry 0"),
        (np.full((2, 2), "0.25"), r"'0\.25' is not a real number \(entry 0"),
        (np.full((2, 2), 0.25 + 0j), r"\(0\.25\+0j\) is not a real number \(entry 0"),
        ([[0.5, 0.5], [0, None]], r"None is not a real number \(entry 3"),
        ([[0.5, Fraction(1, 4)], [0.25, 0]], r"Fraction\(1, 4\) is not a real number \(entry 1"),
    ):
        with pytest.raises(OutOfRange, match=rf"^joint probability table={entry} of the stack\)$"):
            shannon_mutual_information(table)
    # an object array of real numbers holds real numbers
    assert shannon_mutual_information(np.array([[0.5, 0], [0, np.float64(0.5)]], dtype=object)) == 1.0
    assert shannon_mutual_information([[True, False], [False, False]]) == 0.0  # bools and ints are numbers
    assert shannon_mutual_information([[0, 1], [0, 0]]) == 0.0


def test_shannon_mutual_information_on_a_stack_equals_per_table_calls():
    rng = np.random.default_rng(13)
    tables = np.array([trigger_joint_distribution(*point) for point in rng.random((300, 4)).tolist()])
    singles = [shannon_mutual_information(table) for table in tables]
    assert all(type(value) is float for value in singles)
    stacked = shannon_mutual_information(tables.reshape(3, 100, 2, 2))
    assert stacked.shape == (3, 100)
    assert np.array_equal(stacked.ravel(), singles)


def test_aux_info_closed_matches_table():
    for t in np.linspace(0.0, 1.0, 101):
        table = trigger_joint_distribution(t)
        assert abs(aux_info_closed(float(t)) - shannon_mutual_information(table)) <= 1e-12
    assert aux_info_closed(0.0) == 1.0
    assert aux_info_closed(1.0) == 0.0
    with pytest.raises(OutOfRange):
        aux_info_closed(2.0)


def test_quantum_mutual_information_reference_points():
    # each marginal of these states is RHO0, of entropy 1, so I = 2 - S[rho_RQ]
    assert abs(von_neumann_entropy(RHO0) - 1.0) <= 1e-12
    assert abs(report(projector(bell_state())).i_tot - 2.0) <= 1e-12
    # spectrum (7/16, 3/16, 3/16, 3/16) by substitution at t = 1
    expected = -(7 / 16) * math.log2(7 / 16) - 3 * (3 / 16) * math.log2(3 / 16)
    assert abs(report(symmetric_mixed_choi(1.0)).i_tot - (2.0 - expected)) <= 1e-12
    assert abs(von_neumann_entropy(symmetric_mixed_choi(1.0)) - expected) <= 1e-12
    assert abs(expected - 1.8802) <= 1e-4
    with pytest.raises(NotPSD):
        report(np.diag([1.1, 0.0, 0.0, -0.1]))


def test_quantum_mutual_information_golden_values():
    assert abs(report(symmetric_mixed_choi(0.0)).i_tot - 0.451) <= 1e-3
    assert abs(report(symmetric_mixed_choi(1.0)).i_tot - 0.120) <= 1e-3
    assert abs(report(PRODUCT).i_tot) <= 1e-12


def test_total_info_closed_matches_channel_state():
    ts = np.linspace(0.0, 1.0, 101)
    numeric = info_report_from_choi(symmetric_mixed_choi(ts), ts).i_tot
    assert np.abs(total_info_closed(ts) - numeric).max() <= 1e-10
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


def test_classical_capacity_closed():
    assert abs(classical_capacity_closed(0.0) - 0.1887) <= 1e-4
    assert abs(classical_capacity_closed(1.0) - 0.0456) <= 1e-4
    assert abs(classical_capacity_closed(2 / 3) - aux_info_closed(2 / 3)) <= 1e-12
    for t in np.linspace(0.0, 1.0, 101):
        value, _ = classical_accessible_info(symmetric_mixed_choi(float(t)))
        assert abs(classical_capacity_closed(float(t)) - value) <= 1e-12


def discord(rho):
    return info_report_from_choi(rho, 0.5).discord


def test_quantum_discord():
    assert abs(discord(PRODUCT)) <= 1e-9
    assert abs(discord(symmetric_mixed_choi(0.0)) - 0.262) <= 2e-3
    assert abs(discord(symmetric_mixed_choi(1.0)) - 0.0744) <= 2e-3
    for t in (0.0, 0.5, 1.0):
        assert discord(symmetric_mixed_choi(t)) >= -1e-9
    # classical-quantum states 1/2 |n><n| x rho0 + 1/2 |-n><-n| x rho1 have zero
    # discord; the optimum axis n lies off the scan lattice, and in the last four
    # cases within 0.1 rad of the z axis, where a zoom in polar angles degenerates
    rho0 = 0.7 * projector(bloch_state(0.4, 0.2)) + 0.15 * np.eye(2)
    rho1 = 0.6 * projector(bloch_state(2.0, -1.0)) + 0.2 * np.eye(2)
    off_lattice = ((1.234, 0.567), (0.3, 2.9), (2.2, -1.3), (1.0, 1.0))
    near_pole = ((0.03, 1.0), (0.05, -2.0), (0.1, 0.3), (math.pi - 0.03, 2.0))
    for theta, phi in off_lattice + near_pole:
        n = projector(bloch_state(theta, phi))
        rho = 0.5 * np.kron(n, rho0) + 0.5 * np.kron(np.eye(2) - n, rho1)
        assert abs(discord(rho)) <= 1e-10, (theta, phi)


def test_classical_accessible_info_on_random_states():
    # reference: the retained information of explicit projectors (P x I) rho
    # on random axes, which the optimum can only match or exceed
    rng = np.random.default_rng(7)
    sigmas = [np.array([[0, 1], [1, 0]]), np.array([[0, -1j], [1j, 0]]), np.diag([1.0, -1.0])]
    for _ in range(30):
        rho = random_state(rng)
        accessible, _ = classical_accessible_info(rho)
        s_output = von_neumann_entropy(partial_trace(rho, 2, [1]))
        for n in rng.normal(size=(64, 3)):
            n /= np.linalg.norm(n)
            retained = s_output
            for sign in (1.0, -1.0):
                proj = (np.eye(2) + sign * sum(c * sigma for c, sigma in zip(n, sigmas))) / 2.0
                cond = partial_trace(np.kron(proj, np.eye(2)) @ rho, 2, [1])
                prob = np.trace(cond).real
                retained -= prob * von_neumann_entropy(cond / prob)
            assert accessible >= retained - 1e-12
        assert accessible <= mutual_information_oracle(rho) + 1e-12


def haar_unitary(rng):
    q, r = np.linalg.qr(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))
    return q * (np.diag(r) / np.abs(np.diag(r)))


@pytest.mark.parametrize(
    ("seed", "count", "rotations"),
    [(0, 200, 4), (1, 200, 4), (2, 200, 4), (3, 200, 4), (12345, 2000, 6)],
    ids=["0", "1", "2", "3", "12345"],
)
def test_accessible_info_is_invariant_under_unitaries_on_the_reference(seed, count, rotations):
    # a unitary on R maps each projective measurement on R to another one, so the optimum cannot move. State 962 of
    # seed 12345 sits on a tilted ridge: a 7x7 grid shrinking by 0.4 per pass read one of its rotations 4.6e-8 low
    rng = np.random.default_rng(seed)
    states = np.array([random_state(rng, int(rng.integers(2, 5))) for _ in range(count)])
    rotated = [states]
    for _ in range(rotations):
        u = np.array([np.kron(haar_unitary(rng), np.eye(2)) for _ in states])
        rotated.append(u @ states @ u.conj().swapaxes(-1, -2))
    values = np.array([classical_accessible_info(stack)[0] for stack in rotated])
    spread = np.ptp(values, axis=0)
    assert spread.max() <= 1e-12, (np.count_nonzero(spread > 1e-12), spread.max())


def objective_over_axes(pauli, s_output, axes):
    """The retained-information objective per state of a stack and per axis of its ``(k, m, 3)`` unit ``axes``."""
    return _objective(pauli, s_output, _forms(pauli) @ _monomials(*np.moveaxis(axes, -1, 0)))


def pauli_and_output_entropy(states):
    """``Tr[rho (sigma_i x sigma_j)]`` and S[rho_Q] per state, the first two arguments of ``_objective``."""
    paulis = [np.eye(2), np.array([[0, 1], [1, 0]]), np.array([[0, -1j], [1j, 0]]), np.diag([1.0, -1.0])]
    pauli = np.array([[[np.trace(rho @ np.kron(a, b)).real for b in paulis] for a in paulis] for rho in states])
    return pauli, np.array([von_neumann_entropy(partial_trace(rho, 2, [1])) for rho in states])


def test_objective_is_even_in_the_axis():
    # outcomes +1 and -1 along n are outcomes -1 and +1 along -n, so the scan needs only half the sphere
    rng = np.random.default_rng(5)
    states = np.array([random_state(rng, int(rng.integers(1, 5))) for _ in range(200)])
    pauli, s_output = pauli_and_output_entropy(states)
    axes = rng.normal(size=(200, 30, 3))
    axes /= np.linalg.norm(axes, axis=-1, keepdims=True)
    objective = objective_over_axes(pauli, s_output, axes)
    assert np.abs(objective - objective_over_axes(pauli, s_output, -axes)).max() <= 1e-14


def random_states(count):
    rng = np.random.default_rng(7)
    return np.array([random_state(rng) for _ in range(count)])


@pytest.mark.parametrize("stack", [fig4_states, lambda: random_states(30)], ids=["fig4", "random"])
def test_measures_on_a_stack_equal_per_state_calls(stack):
    stack = stack()
    stacked, singles = report(stack), [report(rho) for rho in stack]
    for field in ("i_tot", "concurrence", "min_pt_eigenvalue", "i_coh"):
        values = [getattr(single, field) for single in singles]
        assert all(type(value) is float for value in values), field
        assert np.array_equal(getattr(stacked, field), values), field
    values, flatness = classical_accessible_info(stack)
    singles = [classical_accessible_info(rho) for rho in stack]
    assert all(type(value) is float and type(spread) is float for value, spread in singles)
    assert np.array_equal(values, [value for value, _ in singles])
    assert np.array_equal(flatness, [spread for _, spread in singles])
    # leading axes keep their shape
    reshaped = report(stack[:6].reshape(2, 3, 4, 4)).concurrence
    assert np.array_equal(reshaped, np.reshape(stacked.concurrence[:6], (2, 3)))


@pytest.mark.parametrize("count", [1, 7, 8, 9, 203])
def test_accessible_info_on_a_stack_equals_per_state_calls_across_scan_blocks(count):
    stack = random_states(count)
    values, flatness = classical_accessible_info(stack)
    singles = [classical_accessible_info(rho) for rho in stack]
    assert values.shape == flatness.shape == (count,)
    assert np.array_equal(values, [value for value, _ in singles])
    assert np.array_equal(flatness, [spread for _, spread in singles])


def test_accessible_info_never_falls_below_the_half_lattice_maximum():
    rng = np.random.default_rng(11)
    states = np.array([random_state(rng, rank) for rank in (1, 2, 3, 4) for _ in range(100)])
    pauli, s_output = pauli_and_output_entropy(states)
    lattice = _objective(pauli, s_output, _forms(pauli) @ _SCAN_MONOMIALS).max(axis=1)
    values, _ = classical_accessible_info(states)
    assert np.all(values >= lattice), (np.count_nonzero(values < lattice), (lattice - values).max())


@pytest.mark.parametrize(
    ("state", "expected"),
    [
        (np.eye(4) / 4, 0.0),
        (np.kron(projector(bloch_state(0.3, 1.1)), projector(bloch_state(1.2, -0.4))), 0.0),
        (projector(bell_state()), 1.0),
        (PRODUCT, 0.0),
    ],
    ids=["identity", "pure-product", "bell", "product"],
)
def test_accessible_info_on_states_with_a_singular_or_zero_hessian(state, expected):
    # the objective is the same on every axis, so each Newton stencil sees a zero Hessian up to rounding
    value, flatness = classical_accessible_info(state)
    assert math.isfinite(value) and math.isfinite(flatness)
    assert abs(value - expected) <= 1e-12
    stack = np.array([state, symmetric_mixed_choi(0.3), state])
    values, spreads = classical_accessible_info(stack)
    singles = [classical_accessible_info(rho) for rho in stack]
    assert np.array_equal(values, [value for value, _ in singles])
    assert np.array_equal(spreads, [spread for _, spread in singles])


def test_objective_over_axes_matches_conditional_output_entropies():
    # oracle: measuring R along n leaves Q in Tr_R[(P_n x I) rho] for P_n = (I +- n . sigma) / 2, a 2x2 matrix
    rng = np.random.default_rng(3)
    sigmas = [np.array([[0, 1], [1, 0]]), np.array([[0, -1j], [1j, 0]]), np.diag([1.0, -1.0])]
    states = random_states(50)
    axes = rng.normal(size=(50, 20, 3))
    axes /= np.linalg.norm(axes, axis=-1, keepdims=True)
    pauli, s_output = pauli_and_output_entropy(states)
    objective = objective_over_axes(pauli, s_output, axes)
    assert objective.shape == (50, 20)
    for rho, s_q, ns, row in zip(states, s_output, axes, objective):
        for n, value in zip(ns, row):
            retained = s_q
            for sign in (1.0, -1.0):
                proj = (np.eye(2) + sign * sum(c * sigma for c, sigma in zip(n, sigmas))) / 2.0
                cond = partial_trace(np.kron(proj, np.eye(2)) @ rho, 2, [1])
                prob = np.trace(cond).real
                retained -= prob * von_neumann_entropy(cond / prob)
            assert abs(value - retained) <= 1e-12


@pytest.mark.parametrize("stack", [fig4_states, lambda: random_states(50)], ids=["fig4", "random"])
def test_info_report_equals_the_public_measures_bit_for_bit(stack):
    stack = stack()
    ts = np.linspace(0.0, 1.0, len(stack))
    report = info_report_from_choi(stack, ts)
    expected = {
        "t": ts,
        "i_aux": shannon_mutual_information(trigger_joint_distribution(ts)),
        "i_class": classical_accessible_info(stack)[0],
        "discord": report.i_tot - report.i_class,
        "i_coh": von_neumann_entropy(partial_trace(stack, 2, [1])) - von_neumann_entropy(stack),
    }
    for field, values in expected.items():
        assert np.array_equal(getattr(report, field).view(np.uint64), values.view(np.uint64)), field


@pytest.mark.parametrize("stack", [fig4_states, lambda: random_states(50)], ids=["fig4", "random"])
def test_info_report_matches_independent_oracles(stack):
    # each oracle shares no kernel with the package: explicit marginals, Wootters' non-Hermitian product, and a
    # permutation of the flat entries. The entropies and eigenvalues may differ by rounding, a few hundred ulps of
    # values of at most 2; the square root of an eigenvalue l of the product moves by its error / (2 sqrt l), and
    # the random stack has l down to 5e-10, so the concurrence is held to 1e-11
    stack = stack()
    report = info_report_from_choi(stack, 0.5)
    i_tot, min_pt = mutual_information_oracle(stack), min_pt_eigenvalue_oracle(stack)
    assert np.abs(report.i_tot - i_tot).max() <= 1e-13
    assert np.abs(report.discord - (i_tot - classical_accessible_info(stack)[0])).max() <= 1e-13
    assert np.abs(report.concurrence - concurrence_oracle(stack)).max() <= 1e-11
    assert np.abs(report.min_pt_eigenvalue - min_pt).max() <= 1e-13
    assert np.array_equal(report.entanglement_breaking, min_pt >= -1e-10)


def test_info_report_checks_and_decomposes_each_state_once(monkeypatch):
    calls = []

    def counted(name, function):
        return lambda *args: calls.append(name) or function(*args)

    # psd_eigenvalues is patched where it is defined too, so a second check by any route would count
    patched = [(infotheory, "_density_matrices"), (infotheory, "psd_eigenvalues"), (linalg, "psd_eigenvalues")]
    for module, name in [*patched, (np.linalg, "eigvalsh"), (np.linalg, "eigh")]:
        monkeypatch.setattr(module, name, counted(name, getattr(module, name)))
    for states in (fig4_states(), symmetric_mixed_choi(0.4)):
        calls.clear()
        info_report_from_choi(states, 0.4)
        # the spectrum, two marginals, the spin-flipped matrix, the partial transpose, and the root by eigh
        assert sorted(calls) == ["_density_matrices", "eigh", *["eigvalsh"] * 5, "psd_eigenvalues"]
    # verify's information line checks its 101 states once too; the extraction's own checks are not counted here
    calls.clear()
    cli.infotheory_deviations(101)
    assert (calls.count("_density_matrices"), calls.count("psd_eigenvalues")) == (1, 1)


def test_info_report_on_a_stack_holds_one_entry_per_state():
    stack, ts = fig4_states()[::10], np.linspace(0.0, 1.0, 101)[::10].tolist()
    report = info_report_from_choi(stack, ts)
    for t, rho, row in zip(ts, stack, zip(*astuple(report))):
        single = info_report_from_choi(rho, t)
        assert [type(value) for value in astuple(single)] == [float] * 8 + [bool]
        assert row == astuple(single)


@pytest.mark.parametrize("name", ["p1", "p2", "p"])
def test_info_report_takes_one_real_number_per_firing_probability(name):
    # an array would broadcast with t into the trigger table, so i_aux alone would take its shape
    rho = choi_of_channel(0.4)
    for value in ([0.1, 0.2], np.array([0.3]), "0.5", 0.5j, None):
        with pytest.raises(OutOfRange, match=rf"^{name}=.* is not a (single )?real number$"):
            info_report_from_choi(rho, 0.5, **{name: value})
    with pytest.raises(OutOfRange, match=rf"^{name}=1.5 outside \[0, 1\]$"):
        info_report_from_choi(rho, 0.5, **{name: 1.5})
    assert info_report_from_choi(rho, 0.5, **{name: np.float64(0.3)}) == info_report_from_choi(rho, 0.5, **{name: 0.3})


MEASURES = (classical_accessible_info, report)


def five_symmetric_states():
    return np.array([symmetric_mixed_choi(t) for t in (0.0, 0.25, 0.5, 0.75, 1.0)])


@pytest.mark.parametrize("value", [np.nan, np.inf])
@pytest.mark.parametrize("entry", [(1, 1), (0, 2)], ids=["diagonal", "off-marginal"])
def test_non_finite_state_is_rejected(value, entry):
    rho = symmetric_mixed_choi(0.5).copy()
    rho[entry] = value
    stack = five_symmetric_states()
    stack[2] = rho
    not_hermitian = five_symmetric_states()
    not_hermitian[2, 0, 2] += 1e-6
    for measure in MEASURES:
        with pytest.raises(NonHermitianInput) as single:
            measure(rho)
        assert "of the stack" not in str(single.value)
        for bad in (stack, not_hermitian):
            with pytest.raises(NonHermitianInput, match="matrix 2"):
                measure(bad)


def test_information_measures_reject_a_trace_off_one():
    # unchecked, these would read -2, -8 and -8 bits, and a concurrence of about 2
    for measure, state in (
        (report, np.eye(4) / 2),
        (report, np.eye(4)),
        (classical_accessible_info, np.ones((4, 4))),
        (report, 2 * projector(bell_state())),
    ):
        with pytest.raises(BadMatrix, match=r"^density matrix has trace [24], not 1$"):
            measure(state)
    stack = five_symmetric_states()
    stack[3] *= 1.0 + 1e-9
    for measure in MEASURES:
        with pytest.raises(BadMatrix, match=r"trace 1\.000000001, not 1 \(matrix 3 of the stack\)$"):
            measure(stack)
        measure(five_symmetric_states() * (1.0 + 5e-11))  # within 1e-10 of 1 is rounding
    # the linear algebra stays general: a PSD matrix of any trace has eigenvalues
    assert np.array_equal(psd_eigenvalues(2 * np.eye(2)), [2.0, 2.0])


def test_not_psd_state_in_a_stack_is_rejected():
    stack = five_symmetric_states()
    stack[3] = np.diag([1.1, 0.0, 0.0, -0.1])
    for measure in MEASURES:
        with pytest.raises(NotPSD, match="matrix 3"):
            measure(stack)


def test_one_eigenvalue_floor_for_every_measure():
    # -5e-9 lies between the floor of -1e-10 and the -1e-8 some measures once used; -5e-11 is rounding noise
    for measure in MEASURES:
        with pytest.raises(NotPSD):
            measure(np.diag([0.5 + 5e-9, 0.25, 0.25, -5e-9]))
        measure(np.diag([0.5 + 5e-11, 0.25, 0.25, -5e-11]))


def test_concurrence_reference_states():
    assert abs(report(projector(bell_state())).concurrence - 1.0) <= 1e-10
    assert abs(report(symmetric_mixed_choi(0.0)).concurrence - 0.25) <= 1e-9
    assert report(symmetric_mixed_choi(2 / 3)).concurrence <= 1e-12  # boundary, zero up to rounding
    assert np.array_equal(report(symmetric_mixed_choi(np.array([0.8, 1.0]))).concurrence, [0.0, 0.0])


def test_concurrence_matches_werner_closed_form():
    # independent oracle: for q |bell><bell| + (1-q) I/4 the spin-flipped
    # spectrum gives max(0, (3q - 1)/2)
    qs = np.linspace(0.0, 1.0, 21)
    assert np.abs(report(choi_of_channel(qs)).concurrence - np.maximum(0.0, (3 * qs - 1) / 2)).max() <= 1e-9


def test_concurrence_closed_matches_spectrum_path():
    ts = np.linspace(0.0, 1.0, 101)
    assert np.abs(concurrence_closed(ts) - report(symmetric_mixed_choi(ts)).concurrence).max() <= 1e-9
    assert concurrence_closed(0.0) == 0.25
    assert concurrence_closed(2 / 3) == 0.0
    assert concurrence_closed(1 / 3) == 0.125


def test_min_partial_transpose_eigenvalue():
    assert abs(report(projector(bell_state())).min_pt_eigenvalue + 0.5) <= 1e-12
    assert abs(report(PRODUCT).min_pt_eigenvalue - 0.25) <= 1e-12
    # eigenvalues of the partial transpose of the mixed-scheme state: -1/8 + 3t/16
    ts = np.linspace(0.0, 1.0, 21)
    assert np.abs(report(symmetric_mixed_choi(ts)).min_pt_eigenvalue - (-1 / 8 + 3 * ts / 16)).max() <= 1e-12


def test_coherent_information():
    assert abs(coherent_information(symmetric_mixed_choi(0.0)) + 0.549) <= 1e-3
    assert abs(coherent_information(symmetric_mixed_choi(1.0)) + 0.880) <= 1e-3
    assert abs(coherent_information(projector(bell_state())) - 1.0) <= 1e-12
    for t in np.linspace(0.0, 1.0, 51):
        choi = symmetric_mixed_choi(float(t))
        i_coh = coherent_information(choi)
        assert abs(i_coh - (mutual_information_oracle(choi) - 1.0)) <= 1e-9
        assert i_coh < 0.0


def test_monotonicity_in_t():
    ts = np.linspace(0.0, 1.0, 41)
    reports = [info_report(float(t)) for t in ts]
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
