import argparse
import concurrent.futures
import dataclasses
import json
import math
import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from bellbidir import cli, protocols, sim
from bellbidir.channels import SCHEMES, analytic_channel, choi_of_channel, fidelity_closed
from bellbidir.cli import main, run_verification
from bellbidir.errors import DomainError, OutOfRange
from bellbidir.infotheory import total_info_closed
from bellbidir.linalg import trace_distance
from bellbidir.protocols import A_TO_B, DIRECTIONS, SchemeParams


def run_module(*args):
    """Run the interpreter on ``args`` with the tested package's source tree on PYTHONPATH."""
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    return subprocess.run([sys.executable, *args], env=env, capture_output=True, text=True)


def run_main(capsys, argv):
    """Exit code, stdout and stderr of one in-process ``main(argv)``, as ``python -m bellbidir.cli`` would give them."""
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    return (code, *capsys.readouterr())


def read_json(path):
    with open(path, "r", encoding="utf-8") as handle:
        return json.load(handle)


def shifted(report, field, shift):
    """An information report with ``shift`` added to its ``field``."""
    return dataclasses.replace(report, **{field: getattr(report, field) + shift})


# fig-3 figure -> (scheme, the parameter point of a row's grid cells, the directions of its fidelity cells)
FIG3 = {
    "3a": ("independent", lambda p1, p2: SchemeParams.from_probabilities(p1=p1, p2=p2), DIRECTIONS),
    "3b": ("common", lambda p: SchemeParams.from_probabilities(p=p), DIRECTIONS),
    "3c": ("mixed", lambda t: SchemeParams.from_probabilities(t=t), (A_TO_B,)),
}


def fig3_deviations(capsys, figure: str, points: int) -> np.ndarray:
    """Per row of a fig-3 sweep, the largest deviation of its fidelity cells from the closed form."""
    assert main(["sweep", "--figure", figure, "--points", str(points)]) == 0
    rows = np.array([line.split(",") for line in capsys.readouterr().out.splitlines()[1:]], dtype=float)
    scheme, point, directions = FIG3[figure]
    grid = rows.shape[1] - len(directions)
    closed = [[fidelity_closed(analytic_channel(scheme, point(*row[:grid]), d)) for d in directions] for row in rows]
    return np.abs(rows[:, grid:] - closed).max(axis=1)


def test_simulate_perfect_teleportation(tmp_path):
    out = tmp_path / "report.json"
    code = main(["simulate", "--scheme", "common", "--theta", "3.14159265358979", "--out", str(out)])
    assert code == 0
    report = read_json(out)
    assert abs(report["q"] - 1.0) <= 1e-9
    assert abs(report["fidelity"] - 1.0) <= 1e-9
    assert report["scheme"] == "common"
    assert report["tool_version"]
    choi_re = np.array(report["choi"]["re"])
    assert choi_re.shape == (4, 4)
    assert set(report["params"]) == {"theta", "p", "direction"}


def test_simulate_independent_symmetric(tmp_path):
    out = tmp_path / "report.json"
    code = main(
        ["simulate", "--scheme", "independent", "--theta1", "1.5707963267948966", "--theta2", "1.5707963267948966", "--out", str(out)]
    )
    assert code == 0
    report = read_json(out)
    assert abs(report["q"] - 0.25) <= 1e-9
    assert abs(report["fidelity"] - 0.625) <= 1e-9
    assert report["info"]["i_aux"] == 0.0  # independent triggers share nothing
    assert set(report["params"]) == {"theta1", "theta2", "p1", "p2", "direction"}  # no t: info used t = 1


def test_simulate_mixed_critical_point(tmp_path):
    out = tmp_path / "report.json"
    code = main(["simulate", "--scheme", "mixed", "--t", "0.6666666666666666", "--out", str(out)])
    assert code == 0
    report = read_json(out)
    assert abs(report["fidelity"] - 2 / 3) <= 1e-9
    assert report["info"]["entanglement_breaking"] is True
    assert abs(report["info"]["i_aux"] - report["info"]["i_class"]) <= 1e-5


def test_simulate_trigger_info_at_the_requested_point(tmp_path):
    # i_aux is the mutual information of the point's own trigger table
    out = tmp_path / "report.json"
    h2_09 = -(0.9 * math.log2(0.9) + 0.1 * math.log2(0.1))
    table = np.array([[0.12, 0.33], [0.48, 0.07]])  # mixed, t = 0.5, p1 = 0.2, p2 = 0.7, p = 0.9
    mixed = float(np.sum(table * np.log2(table / np.outer(table.sum(axis=1), table.sum(axis=0)))))
    for argv, expected, tol in (
        (["--scheme", "common", "--p", "0.9"], h2_09, 1e-12),
        (["--scheme", "mixed", "--t", "0.5", "--p1", "0.2", "--p2", "0.7", "--p", "0.9"], mixed, 1e-12),
        (["--scheme", "independent", "--p1", "0.9", "--p2", "0.1"], 0.0, 1e-15),
        (["--scheme", "independent", "--p1", "0.3", "--p2", "0.8", "--direction", "ba"], 0.0, 0.0),  # not -2e-16
    ):
        assert main(["simulate", *argv, "--out", str(out)]) == 0
        assert abs(read_json(out)["info"]["i_aux"] - expected) <= tol, argv


def test_simulate_probability_flags(tmp_path):
    out = tmp_path / "report.json"
    code = main(["simulate", "--scheme", "independent", "--p1", "1", "--p2", "0", "--out", str(out)])
    assert code == 0
    report = read_json(out)
    assert abs(report["q"] - 1.0) <= 1e-9


def test_probability_flags_follow_the_library_rule(tmp_path, capsys):
    # one p -> theta rule: the flags convert as SchemeParams.from_probabilities does, checked in the order p1, p2, p
    out = tmp_path / "report.json"
    flags = ["--t", "0.5", "--p1", "0.3", "--p2", "0.8", "--p", "0.1"]
    assert main(["simulate", "--scheme", "mixed", *flags, "--out", str(out)]) == 0
    params = SchemeParams.from_probabilities(p1=0.3, p2=0.8, p=0.1)
    reported = read_json(out)["params"]
    assert [reported[name] for name in ("theta1", "theta2", "theta")] == [params.theta1, params.theta2, params.theta]
    for flags, message in (
        (["--p1", "-0.1", "--p2", "2"], "--p1=-0.1"),
        (["--p2", "2", "--p", "3"], "--p2=2.0"),
        (["--p", "nan"], "--p=nan"),
    ):
        with pytest.raises(SystemExit):
            main(["simulate", "--scheme", "mixed", "--t", "0.5", *flags])
        assert capsys.readouterr().err.endswith(f"error: {message} outside [0, 1]\n")
    with pytest.raises(OutOfRange, match=r"^p2=2 outside \[0, 1\]$"):
        SchemeParams.from_probabilities(p2=2, p=3)


def test_usage_errors_exit_2(tmp_path):
    with pytest.raises(SystemExit) as err:
        main(["simulate", "--scheme", "mixed"])  # missing --t
    assert err.value.code == 2
    with pytest.raises(SystemExit) as err:
        main(["simulate", "--scheme", "independent", "--theta1", "1.0", "--p1", "0.5"])
    assert err.value.code == 2
    with pytest.raises(SystemExit) as err:
        main(["simulate", "--scheme", "independent", "--format", "csv"])
    assert err.value.code == 2
    with pytest.raises(SystemExit) as err:
        main(["simulate", "--scheme", "independent", "--t", "0.5"])
    assert err.value.code == 2
    with pytest.raises(SystemExit) as err:
        main(["sweep"])  # missing figure
    assert err.value.code == 2
    with pytest.raises(SystemExit) as err:
        main(["sweep", "--figure", "3c", "--points", "1"])
    assert err.value.code == 2
    with pytest.raises(SystemExit) as err:
        main(["nonsense"])
    assert err.value.code == 2
    for argv in (
        ["verify", "--grid", "0", "--points", "0"],
        ["verify", "--grid", "1"],
        ["verify", "--points", "1"],
        ["simulate", "--scheme", "common", "--theta", "nan"],
        ["simulate", "--scheme", "independent", "--theta1", "inf"],
        ["simulate", "--scheme", "independent", "--p2", "nan"],
        ["simulate", "--scheme", "common", "--theta1", "0.3", "--p2", "0.9"],
        ["simulate", "--scheme", "common", "--theta2", "0.3"],
        ["simulate", "--scheme", "common", "--p1", "0.5"],
        ["simulate", "--scheme", "independent", "--theta", "0.3"],
        ["simulate", "--scheme", "independent", "--p", "0.5"],
        ["simulate", "--scheme", "independent", "--theta1", "0.3", "--t", "0.5"],
    ):
        with pytest.raises(SystemExit) as err:
            main(argv)
        assert err.value.code == 2, argv


def test_io_error_exit_3(tmp_path):
    code = main(["sweep", "--figure", "3c", "--points", "3", "--out", str(tmp_path / "missing" / "f.csv")])
    assert code == 3


def test_sweep_3c_values(tmp_path, capsys):
    out = tmp_path / "fig3c.csv"
    assert main(["sweep", "--figure", "3c", "--points", "5", "--out", str(out)]) == 0
    raw = out.read_bytes()
    assert b"\r" not in raw
    lines = raw.decode().splitlines()
    assert lines[0] == "t,F"
    first = lines[1].split(",")
    assert float(first[0]) == 0.0
    assert abs(float(first[1]) - 0.75) <= 1e-12
    last = lines[-1].split(",")
    assert abs(float(last[1]) - 0.625) <= 1e-12
    assert fig3_deviations(capsys, "3c", 11).max() <= cli.CHOI_TOL


def test_sweep_3a_corner(tmp_path, capsys):
    out = tmp_path / "fig3a.csv"
    assert main(["sweep", "--figure", "3a", "--points", "3", "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "p1,p2,F_ab,F_ba"
    assert len(lines) == 1 + 9
    rows = {tuple(line.split(",")[:2]): line.split(",")[2:] for line in lines[1:]}
    f_ab, f_ba = rows[("1", "0")]
    assert abs(float(f_ab) - 1.0) <= 1e-12
    assert abs(float(f_ba) - 0.5) <= 1e-12
    deviations = fig3_deviations(capsys, "3a", 11)
    assert len(deviations) == 121 and deviations.max() <= cli.CHOI_TOL


def test_sweep_3b_header(tmp_path, capsys):
    out = tmp_path / "fig3b.csv"
    assert main(["sweep", "--figure", "3b", "--points", "3", "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "p,F_ab,F_ba"
    p, f_ab, f_ba = lines[-1].split(",")
    assert float(p) == 1.0 and abs(float(f_ab) - 1.0) <= 1e-12 and abs(float(f_ba) - 0.5) <= 1e-12
    assert fig3_deviations(capsys, "3b", 11).max() <= cli.CHOI_TOL


def test_sweep_fig4_critical_row(tmp_path):
    out = tmp_path / "fig4.csv"
    assert main(["sweep", "--figure", "4", "--points", "4", "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "t,i_aux,i_tot,i_class,discord,concurrence,i_coh,min_pt_eig,entanglement_breaking"
    row = lines[3].split(",")  # t = 2/3 on a 4-point grid
    assert abs(float(row[0]) - 2 / 3) <= 1e-12
    assert abs(float(row[1]) - 0.0817) <= 5e-5
    assert abs(float(row[3]) - float(row[1])) <= 1e-5
    assert abs(float(row[5])) <= 1e-12
    assert row[8] == "true"
    assert lines[1].split(",")[8] == "false"


def test_sweep_json_format(tmp_path):
    out = tmp_path / "fig4.json"
    assert main(["sweep", "--figure", "4", "--points", "3", "--format", "json", "--out", str(out)]) == 0
    payload = read_json(out)
    assert payload["columns"][0] == "t"
    assert len(payload["rows"]) == 3
    assert payload["rows"][2][8] is True


def per_value_format(value) -> str:
    """The CSV cell rule: bools as true/false, numbers as %.12g."""
    if isinstance(value, bool):
        return "true" if value else "false"
    return f"{value:.12g}"


def test_csv_cells_format_each_value_by_its_bits():
    values = [0.0, -0.0, 1 / 3, 1 / 3, 1e-300, 0.5]
    cells = cli._csv_cells(np.array(values))
    assert cells == ["%.12g" % v for v in values]
    assert cells[:2] == ["0", "-0"] and cells[2] == cells[3]
    assert cli._csv_cells(np.array([True, False, True])) == ["true", "false", "true"]


@pytest.mark.parametrize("points", [2, 7, 41, 101])
@pytest.mark.parametrize("figure", ["3a", "3b", "3c", "4"])
def test_sweep_csv_equals_the_per_value_format_of_the_json_rows(capsys, figure, points):
    assert main(["sweep", "--figure", figure, "--points", str(points), "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert main(["sweep", "--figure", figure, "--points", str(points)]) == 0
    lines = [",".join(payload["columns"])] + [",".join(map(per_value_format, row)) for row in payload["rows"]]
    assert capsys.readouterr().out == "\n".join(lines) + "\n"


def test_outputs_are_deterministic(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    for path in (a, b):
        assert main(["sweep", "--figure", "4", "--points", "5", "--out", str(path)]) == 0
    assert a.read_bytes() == b.read_bytes()
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    for path in (a, b):
        assert main(["simulate", "--scheme", "mixed", "--t", "0.5", "--out", str(path)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_sweep_stdout(capsys):
    assert main(["sweep", "--figure", "3c", "--points", "2"]) == 0
    captured = capsys.readouterr()
    assert captured.out.startswith("t,F\n")


def test_verify_passes(capsys):
    assert main(["verify", "--grid", "5", "--points", "21"]) == 0
    captured = capsys.readouterr()
    assert "VERIFY: PASS" in captured.out
    assert captured.out.count("PASS") >= 9


def test_verify_wider_grid_passes(capsys):
    assert main(["verify", "--grid", "17", "--points", "11"]) == 0
    assert "VERIFY: PASS" in capsys.readouterr().out


def test_run_verification_results(monkeypatch):
    results = run_verification(grid=3, points=11)
    assert all(result.passed for result in results)
    assert any("independent" in result.name for result in results)
    report = cli.info_report_from_choi
    monkeypatch.setattr(cli, "info_report_from_choi", lambda *args: shifted(report(*args), "i_class", 1e-9))
    failed = [result.name for result in run_verification(grid=3, points=11) if not result.passed]
    assert len(failed) == 1 and failed[0].startswith("classical capacity")
    for grid, points in ((1, 11), (3, 0)):
        with pytest.raises(OutOfRange):
            run_verification(grid=grid, points=points)


@pytest.mark.parametrize(
    "call",
    [
        lambda: run_verification(grid=2.5),
        lambda: run_verification(grid=9.0),
        lambda: run_verification(grid=True, points=5),
        lambda: run_verification(points=5.5),
        lambda: cli.trigger_info_deviation(2.5),
        lambda: cli.trigger_info_deviation(1),
        lambda: cli.infotheory_deviations(2.5),
        lambda: cli.infotheory_deviations(np.float64(5.0)),
    ],
    ids=["grid-2.5", "grid-9.0", "grid-True", "points-5.5", "trigger-2.5", "trigger-1", "info-2.5", "info-float64"],
)
def test_a_count_that_is_not_an_integer_of_at_least_two_raises_out_of_range(call):
    with pytest.raises(OutOfRange):
        call()


def test_numpy_integer_counts_are_accepted():
    assert all(result.passed for result in run_verification(grid=np.int64(3), points=np.int32(5)))
    assert cli.trigger_info_deviation(np.int64(5)) == cli.trigger_info_deviation(5)


def test_a_second_paper_session_adds_no_plan():
    # a per-call value in the plan key would pass every other test and show only as a slowdown
    def session():
        run_verification()
        for _, build_columns in cli._SWEEPS.values():
            build_columns(np.linspace(0.0, 1.0, 101))
        for scheme in SCHEMES:
            cli.simulated_choi(scheme, SchemeParams(t=0.5), A_TO_B)

    sim._plan.cache_clear()
    session()
    first = sim._plan.cache_info()
    session()
    second = sim._plan.cache_info()
    assert second.misses == first.misses and second.hits > first.hits
    assert second.currsize <= 8


def failed_checks(capsys) -> set[str]:
    """Names of the checks a small verify run fails, each without its grid size; the run must fail.

    A channel line keeps its direction: ``independent choi vs closed form (3x3, A to B)`` gives
    ``independent choi vs closed form A to B``.
    """
    assert main(["verify", "--grid", "3", "--points", "5"]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines[-1] == "VERIFY: FAIL"
    failed = [line for line in lines[:-1] if line.endswith("FAIL")]
    failed = [re.match(r"(.+?) \([^,)]*(?:, (A to B|B to A))?\)", line).groups() for line in failed]
    return {f"{name} {direction}" if direction else name for name, direction in failed}


def test_information_checks_read_simulated_states(monkeypatch, capsys):
    # a 1% depolarized extraction must show in both channel checks, the information checks and figs 3 and 4
    extract = cli.extract_choi
    monkeypatch.setattr(cli, "extract_choi", lambda *args: 0.99 * extract(*args) + 0.01 * np.eye(4) / 4)
    assert failed_checks(capsys) == {
        "independent choi vs closed form A to B",
        "independent choi vs closed form B to A",
        "common choi vs closed form A to B",
        "common choi vs closed form B to A",
        "total info closed form vs channel state",
        "classical capacity closed form vs optimizer",
        "concurrence closed form vs spectrum",
    }
    assert main(["sweep", "--figure", "4", "--points", "3"]) == 0
    row = capsys.readouterr().out.splitlines()[1].split(",")  # t = 0
    assert abs(float(row[2]) - total_info_closed(0.0)) > cli.TOTAL_TOL
    for figure in FIG3:
        assert fig3_deviations(capsys, figure, 3).max() > cli.CHOI_TOL, figure


@pytest.mark.parametrize("direction", DIRECTIONS)
def test_each_channel_line_checks_one_direction(monkeypatch, capsys, direction):
    # a marginal defect that reaches the CLI in one direction's states fails that direction's two channel lines and
    # no other line: the information checks read the A-to-B states, but this shift stays within their tolerances
    extract = cli.extract_choi
    output = protocols.channel_endpoints(direction)[1]
    shift = 1e-8 * np.kron(np.diag([1.0, -1.0]), np.eye(2)) / 2  # reference marginal I/2 + 1e-8 Z, trace kept
    monkeypatch.setattr(cli, "extract_choi", lambda *args: extract(*args) + (args[2] == output) * shift)
    name = " to ".join(direction.upper())
    assert failed_checks(capsys) == {f"independent choi vs closed form {name}", f"common choi vs closed form {name}"}


@pytest.mark.parametrize(
    ("field", "line", "tolerance"),
    [
        ("i_tot", "total info closed form vs channel state", cli.TOTAL_TOL),
        ("i_class", "classical capacity closed form vs optimizer", cli.CAPACITY_TOL),
        ("concurrence", "concurrence closed form vs spectrum", cli.CONCURRENCE_TOL),
    ],
)
def test_each_information_line_reads_its_field_of_the_printed_report(monkeypatch, capsys, field, line, tolerance):
    # verify's information lines read the report that sweep --figure 4 and simulate print, one field each. The shift
    # is ten tolerances: a shift of one tolerance can read exactly the tolerance where the value is exact, and pass
    report = cli.info_report_from_choi
    monkeypatch.setattr(cli, "info_report_from_choi", lambda *args: shifted(report(*args), field, 10 * tolerance))
    assert failed_checks(capsys) == {line}


def test_trigger_info_check_can_fail(monkeypatch, capsys):
    # with the tests above, every one of the eight verify lines has a test that makes it fail
    aux = cli.aux_info_closed
    monkeypatch.setattr(cli, "aux_info_closed", lambda t: aux(t) + 1e-9)
    assert failed_checks(capsys) == {"trigger info closed form vs table"}


def test_verify_reports_a_raised_check_as_fail(monkeypatch, capsys):
    # a defect that the extraction's own validation rejects fails the lines it feeds, without a traceback
    names = [result.name for result in run_verification(grid=3, points=5)]
    reduced = protocols.run_reduced
    shift = 1e-8 * np.kron(np.diag([1.0, -1.0]), np.eye(2)) / 2  # reference marginal I/2 + 1e-8 Z, trace kept
    with monkeypatch.context() as patch:
        patch.setattr(protocols, "run_reduced", lambda *args: reduced(*args) + shift)
        assert main(["verify", "--grid", "3", "--points", "5"]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 9 and lines[-1] == "VERIFY: FAIL"
    for name, line in zip(names, lines):
        assert line.startswith(name), line
        if name.startswith("trigger info"):  # reads no simulated state, so no extraction error can fail it
            assert " max dev " in line and line.endswith("PASS"), line
        else:
            assert " BadChannelState: " in line and line.endswith("FAIL") and "max dev" not in line, line
    assert sum(" BadChannelState: " in line for line in lines) == 7
    assert cli.MARGINAL_TOL is protocols.MARGINAL_TOL < 1e-8  # the bound the benchmark reads is the one enforced
    assert not re.search(r"\b(nan|inf)\b", "\n".join(lines), re.IGNORECASE)

    # an error inside one computation fails only the lines that computation feeds
    def raise_domain_error(*args):
        raise DomainError("entropy of a negative probability")

    monkeypatch.setattr(cli, "info_report_from_choi", raise_domain_error)
    assert failed_checks(capsys) == {
        "total info closed form vs channel state",
        "classical capacity closed form vs optimizer",
        "concurrence closed form vs spectrum",
    }


def test_fig4_sweep_memory_budget(capsys):
    # the accessible-information lattice is scored in blocks of 8 states, a traced peak of about 0.6 MiB
    # cold and warm in this test, set by the lattice values of the 101-state stack and one block's intermediates;
    # the Newton stencils add little. Scanning the lattice for the whole stack at once traces about 4.2 MiB in
    # the optimizer alone
    tracemalloc.start()
    try:
        assert main(["sweep", "--figure", "4"]) == 0
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(capsys.readouterr().out.splitlines()) == 102
    assert peak <= 4 * 2**20


def test_fig3a_sweep_memory_budget(capsys):
    # four corner states per direction and 10,201 rows of CSV cells. Each column's distinct floats are formatted
    # once and its cells share those strings: a traced peak of about 2.0 MiB cold and 1.8 MiB warm, set by the
    # joined rows and the text; formatting every cell on its own peaks at about 2.5 MiB cold and 2.3 MiB warm
    tracemalloc.start()
    try:
        assert main(["sweep", "--figure", "3a"]) == 0
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(capsys.readouterr().out.splitlines()) == 101**2 + 1
    assert peak <= 4 * 2**20


def test_verify_memory_budget(capsys):
    # verify extracts each grid in stacked circuits of at most 81 points, so the default 9x9 grid is one circuit.
    # Extraction writes the reached amplitudes straight into the complex (4, 512) operands, so that block extracts
    # within about 2.7 MiB, against about 4.6 MiB for the dense 2**11 registers (the stacked verify-grid budget in
    # test_protocols); the accessible-information lattice scan of the 101-state stack peaks at about 0.6 MiB
    tracemalloc.start()
    try:
        assert main(["verify"]) == 0
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert capsys.readouterr().out.endswith("VERIFY: PASS\n")
    assert peak <= 4 * 2**20


def test_verify_memory_is_bounded_by_one_block(capsys):
    # the 20x20 grid runs as five stacked circuits of at most 81 points; as one 400-point circuit it traces ~13 MiB
    tracemalloc.start()
    try:
        assert main(["verify", "--grid", "20", "--points", "5"]) == 0
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert capsys.readouterr().out.endswith("VERIFY: PASS\n")
    assert peak <= 4 * 2**20


def test_channel_deviation_rejects_empty_points():
    # no rows, and one row of no points
    for grid in (SchemeParams(theta=np.empty((0, 3))), SchemeParams(theta1=np.empty((0, 1))), SchemeParams(theta=[])):
        with pytest.raises(OutOfRange, match=r"^channel_deviation needs at least one parameter point"):
            cli.channel_deviation("common", grid)


def worst_per_point_distances(theta1, theta2):
    """Per direction, the worst trace distance of the independent scheme over the points, one circuit per point."""
    points = [SchemeParams(a, b) for a, b in zip(theta1.ravel(), theta2.ravel())]
    return [
        max(
            trace_distance(
                protocols.extract_choi(protocols.build_scheme_independent(point), *protocols.channel_endpoints(d)),
                choi_of_channel(analytic_channel("independent", point, d)),
            )
            for point in points
        )
        for d in DIRECTIONS
    ]


def count_deviation_calls(monkeypatch):
    """The calls channel_deviation makes, in order: each extraction as its number of points, the rest by name."""
    calls = []

    def counted(name, function):
        def call(*args):
            value = function(*args)
            calls.append(len(value) if name == "extract_choi" else name)
            return value

        return call

    for name in ("extract_choi", "analytic_channel", "choi_of_channel", "trace_distance"):
        monkeypatch.setattr(cli, name, counted(name, getattr(cli, name)))
    return calls


def test_channel_deviation_is_the_worst_per_point_trace_distance(monkeypatch):
    thetas = np.linspace(0.0, math.pi, 3)
    # three rows of three points; the last row's theta2 is off the grid
    theta1, theta2 = np.broadcast_arrays(np.array([*thetas[:2], 0.3])[:, None], [thetas, thetas, [2.0, 0.7, 2.9]])
    expected = worst_per_point_distances(theta1, theta2)
    calls = count_deviation_calls(monkeypatch)
    assert cli.channel_deviation("independent", SchemeParams(theta1=theta1, theta2=theta2)) == expected
    # one stacked extraction per direction; the closed form and its distances once per direction
    assert calls == [9, "analytic_channel", "choi_of_channel", "trace_distance"] * 2


def test_channel_deviation_extracts_a_grid_larger_than_one_block_in_blocks(monkeypatch):
    # 100 points: a block of 81 and one of 19, each one stacked extraction per direction
    theta1, theta2 = np.broadcast_arrays(np.linspace(0.0, math.pi, 10)[:, None], np.linspace(0.2, 3.0, 10))
    expected = worst_per_point_distances(theta1, theta2)
    calls = count_deviation_calls(monkeypatch)
    assert cli.channel_deviation("independent", SchemeParams(theta1=theta1, theta2=theta2)) == expected
    assert calls == [81, 19, "analytic_channel", "choi_of_channel", "trace_distance"] * 2


def test_channel_deviation_names_the_two_circuit_schemes():
    with pytest.raises(ValueError, match=r"^scheme must be one of \('independent', 'common'\), got 'mixed'$"):
        cli.channel_deviation("mixed", SchemeParams())


def test_verify_builds_one_scheme_params_per_grid_and_per_block(monkeypatch):
    # the 9x9 grid and its one 81-point block, the 17-angle common row and its one block, and the symmetric point of
    # the information checks as one object whose t is the t grid: 5 objects, where building that point once per
    # scheme made 6
    built = []
    check = SchemeParams.__post_init__
    monkeypatch.setattr(SchemeParams, "__post_init__", lambda params: built.append(params) or check(params))
    assert all(result.passed for result in run_verification())
    assert len(built) == 5


def test_main_builds_no_parser(monkeypatch, capsys):
    built = []
    init = argparse.ArgumentParser.__init__

    def counted_init(parser, *args, **kwargs):
        built.append(parser)
        init(parser, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted_init)
    assert run_main(capsys, ["sweep", "--figure", "3c", "--points", "2"])[0] == 0
    assert run_main(capsys, ["simulate", "--scheme", "mixed"])[0] == 2
    assert run_main(capsys, ["verify", "--help"])[0] == 0
    assert built == []


# usage errors first, then commands and help texts, all through the one parser of this process
SESSION = [
    ["sweep"],  # argparse's own error
    ["sweep", "--figure", "3c", "--points", "3"],
    ["simulate", "--scheme", "mixed"],  # _resolve_params' error
    ["simulate", "--scheme", "common", "--theta", "0.4"],
    ["verify", "--grid", "1"],  # an OutOfRange raised by a command
    ["verify", "--grid", "3", "--points", "5"],
    ["--help"],
    ["simulate", "--help"],
    ["verify", "--help"],
    ["sweep", "--help"],
]


def test_one_process_answers_each_command_as_a_fresh_process_does(monkeypatch, capsys):
    monkeypatch.setenv("COLUMNS", "80")  # help text wraps to the terminal width, here and in the child processes
    in_process = [run_main(capsys, argv) for argv in SESSION]
    with concurrent.futures.ThreadPoolExecutor(2) as pool:
        fresh = list(pool.map(lambda argv: run_module("-m", "bellbidir.cli", *argv), SESSION))
    for argv, got, proc in zip(SESSION, in_process, fresh):
        assert got == (proc.returncode, proc.stdout, proc.stderr), argv
    assert [got[0] for got in in_process] == [2, 0, 2, 0, 2, 0, 0, 0, 0, 0]


def test_module_invocation_smoke():
    proc = run_module("-m", "bellbidir.cli", "sweep", "--figure", "3b", "--points", "3")
    assert proc.returncode == 0
    assert proc.stdout.startswith("p,F_ab,F_ba\n")


def test_non_finite_angle_is_usage_error_under_optimize():
    proc = run_module("-O", "-m", "bellbidir.cli", "simulate", "--scheme", "common", "--theta", "nan")
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
