import functools
import math

import numpy as np
import pytest

from bellbidir.channels import (
    CRITICAL_T,
    SCHEMES,
    analytic_channel,
    choi_of_channel,
    fidelity_closed,
    fidelity_quadrature,
    mixing_weight,
    weight_from_choi,
)
from bellbidir.errors import OutOfRange
from bellbidir.infotheory import info_report_from_choi, trigger_joint_distribution
from bellbidir.linalg import projector
from bellbidir.protocols import A_TO_B, B_TO_A, SchemeParams, apply_channel_from_choi
from bellbidir.sim import bell_state


def random_density_matrix(rng):
    a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    rho = a @ a.conj().T
    return rho / np.trace(rho)


def depolarize(q):
    """The channel of weight q as a map on a qubit state, or a stack of them, through its channel state."""
    return functools.partial(apply_channel_from_choi, choi_of_channel(q))


def test_analytic_channel_weights():
    params = SchemeParams.from_probabilities(p1=1.0, p2=0.0)
    assert analytic_channel("independent", params, A_TO_B) == 1.0
    assert analytic_channel("independent", params, B_TO_A) == 0.0
    params = SchemeParams.from_probabilities(p=0.5)
    assert abs(analytic_channel("common", params, A_TO_B) - 0.5) <= 1e-12
    assert abs(analytic_channel("common", params, B_TO_A) - 0.5) <= 1e-12
    for t in (0.0, 0.3, 1.0):
        params = SchemeParams.from_probabilities(t=t)
        for direction in (A_TO_B, B_TO_A):
            assert abs(analytic_channel("mixed", params, direction) - (0.5 - t / 4)) <= 1e-12
    with pytest.raises(ValueError):
        analytic_channel("bogus", params, A_TO_B)
    with pytest.raises(ValueError):
        analytic_channel("mixed", params, "sideways")
    # q is read off the trigger table, the sender firing and the receiver silent: the per-scheme formulas' floats
    assert [mixing_weight(scheme, SchemeParams(t=0.3)) for scheme in SCHEMES] == [1.0, 0.0, 0.3]
    with pytest.raises(ValueError):
        mixing_weight("bogus", SchemeParams())
    rng = np.random.default_rng(3)
    for theta1, theta2, theta, t in rng.uniform(0.0, [math.pi, math.pi, math.pi, 1.0], (20, 4)):
        params = SchemeParams(theta1=theta1, theta2=theta2, theta=theta, t=t)
        p1, p2, p = params.p1, params.p2, params.p
        for direction, q_ind, q_com in ((A_TO_B, p1 * (1.0 - p2), p), (B_TO_A, p2 * (1.0 - p1), 1.0 - p)):
            assert analytic_channel("independent", params, direction) == q_ind
            assert analytic_channel("common", params, direction) == q_com
            assert analytic_channel("mixed", params, direction) == t * q_ind + (1.0 - t) * q_com
    # a row of points gives one array of the same floats, from one stack of trigger tables
    points = [SchemeParams(*angles) for angles in rng.uniform(0.0, [math.pi, math.pi, math.pi, 1.0], (20, 4))]
    for scheme in SCHEMES:
        for direction in (A_TO_B, B_TO_A):
            row = analytic_channel(scheme, points, direction)
            assert row.shape == (20,) and row.tolist() == [analytic_channel(scheme, x, direction) for x in points]


def test_channel_apply():
    rng = np.random.default_rng(1)
    rho = random_density_matrix(rng)
    assert np.abs(depolarize(1.0)(rho) - rho).max() <= 1e-15
    assert np.abs(depolarize(0.0)(rho) - np.eye(2) / 2).max() <= 1e-15
    out = depolarize(0.5)(np.diag([1.0, 0.0]).astype(complex))
    assert np.abs(out - np.diag([0.75, 0.25])).max() <= 1e-15


def test_channel_output_is_a_state():
    rng = np.random.default_rng(6)
    for _ in range(20):
        rho = random_density_matrix(rng)
        out = depolarize(rng.random())(rho)
        assert abs(np.trace(out).real - 1.0) <= 1e-12
        assert np.linalg.eigvalsh(out).min() >= -1e-12


def test_channel_weight_validation():
    for function in (choi_of_channel, fidelity_closed):
        for q in (1.5, -0.2, math.nan):
            with pytest.raises(OutOfRange):
                function(q)
        with pytest.raises(OutOfRange, match=r"q=1\.5 outside \[0, 1\] \(weight 1 of the stack\)"):
            function(np.array([0.2, 1.5]))
        # a weight within 1e-12 of [0, 1] is rounding, and passes
        function(np.array([-1e-13, 1.0 + 1e-13]))
    assert np.array_equal(fidelity_closed(np.array([0.25, 0.5, 1.0])), [0.625, 0.75, 1.0])


def test_array_checks_take_only_real_numbers():
    # numpy would parse "0.5" as a float; the [0, 1] checks of arrays reject it as scalar checks do
    for name, function in (
        ("mixing weight t", trigger_joint_distribution),
        ("mixing weight t", functools.partial(info_report_from_choi, choi_of_channel(0.5))),
        ("channel weight q", choi_of_channel),
        ("channel weight q", fidelity_closed),
    ):
        for value in ("0.5", ["0.5", 0.5], None, 0.5 + 0j, [0.5, None]):
            with pytest.raises(OutOfRange, match=rf"^{name}=.* (is|holds a value that is) not a real number$"):
                function(value)
        for value in (True, np.int64(0), 0.5, np.float32(0.25)):  # bools, ints and floats pass
            function(value)
    assert choi_of_channel([True, 0, 0.5]).shape == trigger_joint_distribution([True, 0, 0.5]).shape[:1] + (4, 4)
    for p1 in ("0.5", b"0.5"):
        with pytest.raises(OutOfRange, match=r"^p1=.* is not a real number"):
            trigger_joint_distribution(0.5, p1)


def test_choi_of_channel():
    bell = projector(bell_state())
    assert np.abs(choi_of_channel(1.0) - bell).max() <= 1e-15
    assert np.abs(choi_of_channel(0.0) - np.eye(4) / 4).max() <= 1e-15
    choi = choi_of_channel(0.5 - (2 / 3) / 4)
    expected = (1 / 3) * bell + (2 / 3) * np.eye(4) / 4
    assert np.abs(choi - expected).max() <= 1e-15


def test_weight_from_choi_roundtrip():
    for q in (0.0, 0.25, 0.8, 1.0):
        assert abs(weight_from_choi(choi_of_channel(q)) - q) <= 1e-12
    rng = np.random.default_rng(11)
    stack = rng.normal(size=(4, 25, 4, 4)) + 1j * rng.normal(size=(4, 25, 4, 4))  # the overlap takes any matrices
    weights = weight_from_choi(stack)
    assert weights.shape == (4, 25)
    for index in np.ndindex(4, 25):
        single = weight_from_choi(stack[index])
        assert type(single) is float and weights[index] == single


def test_fidelity_closed_golden_values():
    assert fidelity_closed(0.25) == 0.625
    assert fidelity_closed(0.5) == 0.75
    assert fidelity_closed(1.0) == 1.0


def test_fidelity_exchange_symmetry():
    probs = np.linspace(0.0, 1.0, 6)
    for p1 in probs:
        for p2 in probs:
            forward = SchemeParams.from_probabilities(p1=p1, p2=p2)
            swapped = SchemeParams.from_probabilities(p1=p2, p2=p1)
            f_ab = fidelity_closed(analytic_channel("independent", forward, A_TO_B))
            f_ba = fidelity_closed(analytic_channel("independent", swapped, B_TO_A))
            assert f_ab == f_ba


def test_quadrature_identity_channel():
    assert abs(fidelity_quadrature(lambda rho: rho, nodes=8) - 1.0) <= 1e-12


def test_quadrature_constant_integrand_node_invariance():
    values = [fidelity_quadrature(depolarize(0.5), nodes=n) for n in (4, 8, 32)]
    for value in values:
        assert abs(value - 0.75) <= 1e-12
    assert max(values) - min(values) <= 1e-12


def test_quadrature_converges_for_dephasing_map():
    # measure-and-dephase in the computational basis: the overlap integrand is
    # cos^4(theta/2) + sin^4(theta/2), whose Bloch-sphere average is
    # int_{-1}^{1} (1 + u^2)/2 du / 2 = 2/3
    dephase = lambda rho: rho * np.eye(2)
    assert abs(fidelity_quadrature(dephase, nodes=64) - 2 / 3) <= 1e-6


def test_quadrature_maps_all_node_states_in_one_call():
    calls = []

    def identity(rho):
        calls.append(rho.shape)
        return rho

    assert abs(fidelity_quadrature(identity, nodes=16) - 1.0) <= 1e-12
    assert calls == [(16, 16, 2, 2)]


def test_quadrature_rejects_tiny_node_count():
    with pytest.raises(OutOfRange):
        fidelity_quadrature(lambda rho: np.eye(2) / 2, nodes=2)


def test_critical_t_and_boundary():
    assert CRITICAL_T == 2 / 3
    params = SchemeParams.from_probabilities(t=CRITICAL_T)
    fidelity = fidelity_closed(analytic_channel("mixed", params, A_TO_B))
    assert abs(fidelity - 2 / 3) <= 1e-12
    params = SchemeParams.from_probabilities(t=0.0)
    assert abs(fidelity_closed(analytic_channel("mixed", params, A_TO_B)) - 0.75) <= 1e-12


def test_classical_boundary_equivalence():
    for t in np.linspace(0.0, 1.0, 101):
        params = SchemeParams.from_probabilities(t=float(t))
        fidelity = fidelity_closed(analytic_channel("mixed", params, A_TO_B))
        if abs(t - 2 / 3) <= 1e-12:
            assert abs(fidelity - 2 / 3) <= 1e-12
        else:
            assert (fidelity > 2 / 3) == (t < 2 / 3)


def test_closed_fidelity_matches_simulated_choi_quadrature():
    # the same grids the channel-equality checks use; fidelity is recomputed
    # from the simulated channel state by Bloch-sphere quadrature
    from bellbidir.protocols import (
        build_scheme_common,
        build_scheme_independent,
        channel_endpoints,
        extract_choi,
    )

    def quadrature_fidelity(choi):
        return fidelity_quadrature(functools.partial(apply_channel_from_choi, choi), nodes=8)

    thetas = np.linspace(0.0, math.pi, 9)
    for theta1 in thetas:
        for theta2 in thetas:
            params = SchemeParams(theta1=theta1, theta2=theta2)
            circuit = build_scheme_independent(params)
            for direction in (A_TO_B, B_TO_A):
                choi = extract_choi(circuit, *channel_endpoints(direction))
                closed = fidelity_closed(analytic_channel("independent", params, direction))
                assert abs(quadrature_fidelity(choi) - closed) <= 1e-9
    for theta in np.linspace(0.0, math.pi, 17):
        params = SchemeParams(theta=theta)
        circuit = build_scheme_common(params)
        for direction in (A_TO_B, B_TO_A):
            choi = extract_choi(circuit, *channel_endpoints(direction))
            closed = fidelity_closed(analytic_channel("common", params, direction))
            assert abs(quadrature_fidelity(choi) - closed) <= 1e-9


@pytest.mark.parametrize("nodes", [5.5, 8.0, np.float64(8.0), True, "8"], ids=repr)
def test_quadrature_rejects_a_node_count_that_is_not_an_integer(nodes):
    with pytest.raises(OutOfRange):
        fidelity_quadrature(lambda rho: rho, nodes=nodes)
    assert fidelity_quadrature(lambda rho: rho, nodes=np.int64(8)) == pytest.approx(1.0)
