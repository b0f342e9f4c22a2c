"""Acceptance gate: every release criterion at its stated tolerance.

Each test prints one PASS/FAIL line (run with ``pytest -s`` to see them all
on success).  Tolerances are pinned here and never loosened at runtime.
"""
import math
import time

import numpy as np

from bellbidir.channels import (
    QubitChannel,
    analytic_channel,
    choi_of_channel,
    critical_t,
    fidelity_closed,
    fidelity_quadrature,
)
from bellbidir.cli import main
from bellbidir.infotheory import (
    aux_info_closed,
    classical_accessible_info,
    classical_capacity_closed,
    coherent_information,
    concurrence,
    info_report,
    min_partial_transpose_eigenvalue,
    quantum_mutual_information,
    shannon_mutual_information,
    symmetric_mixed_choi,
    trigger_joint_distribution,
)
from bellbidir.linalg import max_abs, partial_trace, projector, trace_distance
from bellbidir.protocols import (
    A_TO_B,
    B_TO_A,
    SchemeParams,
    apply_channel_from_choi,
    build_scheme_common,
    build_scheme_independent,
    channel_endpoints,
    choi_mixed,
    extract_choi,
    sample_mixed_trajectories,
    sample_trajectories,
)
from bellbidir.sim import Circuit, Gate, bell_state, bloch_state, run_circuit


def _report(ok: bool, label: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'} {label}")
    assert ok, label


def _grid_deviation(build, params_list, count_label):
    worst = 0.0
    for params in params_list:
        circuit = build(params)
        for direction in (A_TO_B, B_TO_A):
            simulated = extract_choi(circuit, *channel_endpoints(direction))
            scheme = "independent" if build is build_scheme_independent else "common"
            reference = choi_of_channel(analytic_channel(scheme, params, direction))
            worst = max(worst, trace_distance(simulated, reference))
    return worst


def test_criterion_1_independent_channel_equality():
    started = time.perf_counter()
    thetas = np.linspace(0.0, math.pi, 9)
    params_list = [SchemeParams(theta1=t1, theta2=t2) for t1 in thetas for t2 in thetas]
    worst = _grid_deviation(build_scheme_independent, params_list, "9x9")
    elapsed = time.perf_counter() - started
    _report(
        worst <= 1e-10 and elapsed < 5.0,
        f"criterion 1: independent-scheme choi equality, 9x9 grid, both directions "
        f"(max trace distance {worst:.2e} <= 1e-10, {elapsed:.2f}s < 5s)",
    )


def test_criterion_2_common_channel_equality():
    thetas = np.linspace(0.0, math.pi, 17)
    params_list = [SchemeParams(theta=t) for t in thetas]
    worst = _grid_deviation(build_scheme_common, params_list, "17")
    exact_limits = (
        analytic_channel("common", SchemeParams(theta=0.0), A_TO_B).q == 0.0
        and analytic_channel("common", SchemeParams(theta=math.pi), A_TO_B).q == 1.0
        and analytic_channel("common", SchemeParams(theta=0.0), B_TO_A).q == 1.0
        and analytic_channel("common", SchemeParams(theta=math.pi), B_TO_A).q == 0.0
    )
    _report(
        worst <= 1e-10 and exact_limits,
        f"criterion 2: common-scheme choi equality, 17 angles incl. exact q in {{0,1}} limits "
        f"(max trace distance {worst:.2e} <= 1e-10)",
    )


def test_criterion_3_fidelity_golden_numbers():
    symmetric = SchemeParams.from_probabilities(p1=0.5, p2=0.5, p=0.5)
    ind = analytic_channel("independent", symmetric, A_TO_B)
    com = analytic_channel("common", symmetric, A_TO_B)
    worst_golden = max(abs(fidelity_closed(ind) - 0.625), abs(fidelity_closed(com) - 0.75))
    worst_mix = 0.0
    worst_quad = 0.0
    for channel in (ind, com):
        quad = fidelity_quadrature(lambda th, ph: channel.apply(projector(bloch_state(th, ph))), nodes=32)
        worst_quad = max(worst_quad, abs(quad - fidelity_closed(channel)))
    for t in np.linspace(0.0, 1.0, 101):
        params = SchemeParams.from_probabilities(t=float(t))
        channel = analytic_channel("mixed", params, A_TO_B)
        worst_mix = max(worst_mix, abs(fidelity_closed(channel) - (0.75 - t / 8)))
        quad = fidelity_quadrature(lambda th, ph: channel.apply(projector(bloch_state(th, ph))), nodes=32)
        worst_quad = max(worst_quad, abs(quad - fidelity_closed(channel)))
    _report(
        worst_golden <= 1e-12 and worst_mix <= 1e-12 and worst_quad <= 1e-12,
        f"criterion 3: fidelity golden numbers 0.625 / 0.75 / (3/4 - t/8) "
        f"(golden dev {worst_golden:.2e}, mix-grid dev {worst_mix:.2e}, quadrature dev {worst_quad:.2e}, all <= 1e-12)",
    )


def test_criterion_4_critical_point():
    t0 = critical_t()
    exact = t0 == 2 / 3
    fid = fidelity_closed(analytic_channel("mixed", SchemeParams.from_probabilities(t=t0), A_TO_B))
    fid_ok = abs(fid - 2 / 3) <= 1e-12
    ts = np.linspace(0.0, 1.0, 1001)
    pt_values = [min_partial_transpose_eigenvalue(symmetric_mixed_choi(float(t))) for t in ts]
    conc_values = [concurrence(symmetric_mixed_choi(float(t))) for t in ts]
    t_pt = next(float(t) for t, v in zip(ts, pt_values) if v >= 0.0)
    t_conc = next(float(t) for t, v in zip(ts, conc_values) if v <= 1e-12)
    grid_ok = abs(t_pt - 2 / 3) <= 1e-3 and abs(t_conc - 2 / 3) <= 1e-3
    _report(
        exact and fid_ok and grid_ok,
        f"criterion 4: critical point t0 = 2/3 exactly, fidelity(t0) = 2/3 +- 1e-12, "
        f"PT sign change at {t_pt:.4f} and concurrence zero at {t_conc:.4f} within 1e-3",
    )


def test_criterion_5_information_golden_numbers():
    aux0 = shannon_mutual_information(trigger_joint_distribution(0.0))
    aux1 = shannon_mutual_information(trigger_joint_distribution(1.0))
    aux_crit = aux_info_closed(2 / 3)
    i_tot0 = quantum_mutual_information(symmetric_mixed_choi(0.0))
    i_tot1 = quantum_mutual_information(symmetric_mixed_choi(1.0))
    i_class0, _ = classical_accessible_info(symmetric_mixed_choi(0.0))
    i_class1, _ = classical_accessible_info(symmetric_mixed_choi(1.0))
    conc0 = concurrence(symmetric_mixed_choi(0.0))
    ok = (
        aux0 == 1.0
        and aux1 == 0.0
        and abs(aux_crit - 0.0817) <= 5e-5
        and abs(i_tot0 - 0.451) <= 1e-3
        and abs(i_tot1 - 0.120) <= 1e-3
        and abs(i_class0 - 0.189) <= 1e-3
        and abs(i_class1 - 0.0456) <= 5e-4
        and abs(conc0 - 0.25) <= 1e-9
    )
    _report(
        ok,
        "criterion 5: information golden numbers "
        f"(i_aux: 1/{aux_crit:.4f}/0, i_tot: {i_tot0:.4f}/{i_tot1:.4f}, "
        f"i_class: {i_class0:.4f}/{i_class1:.4f}, concurrence(0) = {conc0:.6f})",
    )


def test_criterion_6_crossing_identity():
    t0 = critical_t()
    closed_gap = abs(classical_capacity_closed(t0) - aux_info_closed(t0))
    optimizer_value, _ = classical_accessible_info(symmetric_mixed_choi(t0))
    optimizer_gap = abs(optimizer_value - aux_info_closed(t0))
    _report(
        closed_gap <= 1e-6 and optimizer_gap <= 1e-5,
        f"criterion 6: i_class(t0) = i_aux(t0) crossing "
        f"(closed-form gap {closed_gap:.2e} <= 1e-6, optimizer gap {optimizer_gap:.2e} <= 1e-5)",
    )


def test_criterion_7_capacity_amplification_ratios():
    i_tot_ratio = quantum_mutual_information(symmetric_mixed_choi(0.0)) / quantum_mutual_information(
        symmetric_mixed_choi(1.0)
    )
    i_class_ratio = classical_accessible_info(symmetric_mixed_choi(0.0))[0] / classical_accessible_info(
        symmetric_mixed_choi(1.0)
    )[0]
    _report(
        i_tot_ratio > 3.5 and i_class_ratio > 4.1,
        f"criterion 7: amplification ratios i_tot(0)/i_tot(1) = {i_tot_ratio:.3f} > 3.5, "
        f"i_class(0)/i_class(1) = {i_class_ratio:.3f} > 4.1",
    )


def test_criterion_8_coherent_information_identity():
    worst_gap = 0.0
    all_negative = True
    for t in np.linspace(0.0, 1.0, 101):
        choi = symmetric_mixed_choi(float(t))
        i_coh = coherent_information(choi)
        worst_gap = max(worst_gap, abs(i_coh - (quantum_mutual_information(choi) - 1.0)))
        all_negative = all_negative and i_coh < 0.0
    _report(
        worst_gap <= 1e-9 and all_negative,
        f"criterion 8: i_coh = i_tot - 1 (max gap {worst_gap:.2e} <= 1e-9) and i_coh < 0 on the whole grid",
    )


def test_criterion_9_measurement_flatness():
    worst = 0.0
    for t in np.linspace(0.0, 1.0, 101):
        _, flatness = classical_accessible_info(symmetric_mixed_choi(float(t)), grid=32)
        worst = max(worst, flatness)
    _report(
        worst <= 1e-9,
        f"criterion 9: accessible-information objective flat over 1024 axes at 101 t values "
        f"(max spread {worst:.2e} <= 1e-9)",
    )


def _three_sigma_ok(samples, expected):
    n = len(samples)
    for part in (np.real, np.imag):
        values = part(samples)
        stderr = values.std(axis=0, ddof=1) / math.sqrt(n)
        delta = np.abs(values.mean(axis=0) - part(expected))
        if not np.all(delta <= np.maximum(3.0 * stderr, 1e-9)):
            return False
    return True


def test_criterion_10_sampling_reproduces_deterministic_channel():
    started = time.perf_counter()
    trials = 10_000
    psi = bloch_state(1.1, 0.6)
    rho = projector(psi)
    ok = True

    params = SchemeParams()
    circuit = build_scheme_independent(params)
    samples = sample_trajectories(circuit, "Q_A", "C_B", psi, trials, seed=101)
    ok &= _three_sigma_ok(samples, apply_channel_from_choi(extract_choi(circuit, "Q_A", "C_B"), rho))

    circuit = build_scheme_common(params)
    samples = sample_trajectories(circuit, "Q_A", "C_B", psi, trials, seed=202)
    ok &= _three_sigma_ok(samples, apply_channel_from_choi(extract_choi(circuit, "Q_A", "C_B"), rho))

    params = SchemeParams(t=0.5)
    circuit_ind = build_scheme_independent(params)
    circuit_com = build_scheme_common(params)
    samples = sample_mixed_trajectories(circuit_ind, circuit_com, 0.5, "Q_A", "C_B", psi, trials, seed=303)
    mixed_choi = choi_mixed(
        0.5, extract_choi(circuit_ind, "Q_A", "C_B"), extract_choi(circuit_com, "Q_A", "C_B")
    )
    ok &= _three_sigma_ok(samples, apply_channel_from_choi(mixed_choi, rho))

    elapsed = time.perf_counter() - started
    _report(
        ok and elapsed < 20.0,
        f"criterion 10: 10^4 measure-and-correct trajectories match the deterministic channel "
        f"within 3 sigma at three parameter points ({elapsed:.1f}s < 20s)",
    )


def _random_gate(n, rng):
    kind = rng.choice(["H", "X", "Z", "CZ", "CNOT", "CCNOT"])
    arity = {"H": 1, "X": 1, "Z": 1, "CZ": 2, "CNOT": 2, "CCNOT": 3}[kind]
    return Gate(kind, tuple(rng.choice(n, size=arity, replace=False)))


def test_criterion_11_property_suites(tmp_path):
    rng = np.random.default_rng(42)
    labels = tuple(f"q{i}" for i in range(4))
    sim_ok = True
    for _ in range(100):
        gates = tuple(_random_gate(4, rng) for _ in range(25))
        psi = rng.normal(size=16) + 1j * rng.normal(size=16)
        psi /= np.linalg.norm(psi)
        out = run_circuit(Circuit(4, labels, gates), psi)
        sim_ok &= abs(np.linalg.norm(out) - 1.0) <= 1e-10
        undone = run_circuit(Circuit(4, labels, gates[::-1]), out)  # all gates are involutions
        sim_ok &= max_abs(undone - psi) <= 1e-12

    schmidt_ok = True
    for _ in range(100):
        n = int(rng.integers(2, 5))
        psi = rng.normal(size=2**n) + 1j * rng.normal(size=2**n)
        psi /= np.linalg.norm(psi)
        cut = int(rng.integers(1, n))
        rho = projector(psi)
        left = np.linalg.eigvalsh(partial_trace(rho, n, list(range(cut))))
        right = np.linalg.eigvalsh(partial_trace(rho, n, list(range(cut, n))))
        left, right = np.sort(left[left > 1e-10]), np.sort(right[right > 1e-10])
        schmidt_ok &= len(left) == len(right) and max_abs(left - right) <= 1e-10

    concurrence_ok = abs(concurrence(projector(bell_state())) - 1.0) <= 1e-10

    paths = [tmp_path / "r1.csv", tmp_path / "r2.csv"]
    for path in paths:
        assert main(["sweep", "--figure", "3c", "--points", "7", "--out", str(path)]) == 0
    cli_ok = paths[0].read_bytes() == paths[1].read_bytes()
    reports = [tmp_path / "s1.json", tmp_path / "s2.json"]
    for path in reports:
        assert main(["simulate", "--scheme", "common", "--p", "0.5", "--out", str(path)]) == 0
    cli_ok &= reports[0].read_bytes() == reports[1].read_bytes()

    _report(
        sim_ok and schmidt_ok and concurrence_ok and cli_ok,
        "criterion 11: property suites (norm/unitarity on 100 random circuits, Schmidt spectra on "
        "100 random pure states, concurrence of the Bell projector, byte-identical CLI reruns)",
    )
