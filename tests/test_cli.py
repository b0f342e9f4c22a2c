import json
import math
import subprocess
import sys

import numpy as np
import pytest

from bellbidir.cli import main, run_verification
from bellbidir.errors import OutOfRange


def run_cli(args, capsys=None):
    code = main(args)
    return code


def read_json(path):
    with open(path, "r", encoding="utf-8") as handle:
        return json.load(handle)


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


def test_simulate_mixed_critical_point(tmp_path):
    out = tmp_path / "report.json"
    code = main(["simulate", "--scheme", "mixed", "--t", "0.6666666666666666", "--out", str(out)])
    assert code == 0
    report = read_json(out)
    assert abs(report["fidelity"] - 2 / 3) <= 1e-9
    assert report["info"]["entanglement_breaking"] is True
    assert abs(report["info"]["i_aux"] - report["info"]["i_class"]) <= 1e-5


def test_simulate_probability_flags(tmp_path):
    out = tmp_path / "report.json"
    code = main(["simulate", "--scheme", "independent", "--p1", "1", "--p2", "0", "--out", str(out)])
    assert code == 0
    report = read_json(out)
    assert abs(report["q"] - 1.0) <= 1e-9


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
    ):
        with pytest.raises(SystemExit) as err:
            main(argv)
        assert err.value.code == 2, argv


def test_io_error_exit_3(tmp_path):
    code = main(["sweep", "--figure", "3c", "--points", "3", "--out", str(tmp_path / "missing" / "f.csv")])
    assert code == 3


def test_sweep_3c_values(tmp_path):
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


def test_sweep_3a_corner(tmp_path):
    out = tmp_path / "fig3a.csv"
    assert main(["sweep", "--figure", "3a", "--points", "3", "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "p1,p2,F_ab,F_ba"
    assert len(lines) == 1 + 9
    rows = {tuple(line.split(",")[:2]): line.split(",")[2:] for line in lines[1:]}
    f_ab, f_ba = rows[("1", "0")]
    assert abs(float(f_ab) - 1.0) <= 1e-12
    assert abs(float(f_ba) - 0.5) <= 1e-12


def test_sweep_3b_header(tmp_path):
    out = tmp_path / "fig3b.csv"
    assert main(["sweep", "--figure", "3b", "--points", "3", "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "p,F_ab,F_ba"
    p, f_ab, f_ba = lines[-1].split(",")
    assert float(p) == 1.0 and abs(float(f_ab) - 1.0) <= 1e-12 and abs(float(f_ba) - 0.5) <= 1e-12


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


def test_run_verification_results():
    results = run_verification(grid=3, points=11)
    assert all(result.passed for result in results)
    assert any("independent" in result.name for result in results)
    for grid, points in ((1, 11), (3, 0)):
        with pytest.raises(OutOfRange):
            run_verification(grid=grid, points=points)


def test_module_invocation_smoke():
    proc = subprocess.run(
        [sys.executable, "-m", "bellbidir.cli", "sweep", "--figure", "3b", "--points", "3"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout.startswith("p,F_ab,F_ba\n")


def test_non_finite_angle_is_usage_error_under_optimize():
    proc = subprocess.run(
        [sys.executable, "-O", "-m", "bellbidir.cli", "simulate", "--scheme", "common", "--theta", "nan"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
