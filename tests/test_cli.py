import dataclasses
import json
import warnings

import numpy as np
import pytest

from flagcones import certificate, cli
from flagcones.cli import main
from flagcones.cones import DEFAULT_TOL
from flagcones.flags import Flag, NumericalDomainError, ProjectiveCovector, ProjectivePoint
from flagcones.plane import ProjectionError, project


def run(args):
    return main(args)


def test_certificate_command(tmp_path):
    out = tmp_path / "report.json"
    code = run(
        [
            "certificate",
            "--beta-max", "0.9",
            "--beta-phases", "4",
            "--z-steps", "16",
            "--d-step", "0.5",
            "--out", str(out),
        ]
    )
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["min_margin"] >= -1e-9
    assert payload["oracle_dev"] <= 1e-10
    assert payload["analytic_floor_gap"] >= -1e-9
    assert {"argmin", "grid", "min_eta"} <= set(payload)


def test_certificate_fails_below_analytic_floor(tmp_path, capsys, monkeypatch):
    sweep = certificate.sweep
    monkeypatch.setattr(
        certificate, "sweep", lambda grid: dataclasses.replace(sweep(grid), analytic_floor_gap=-1e-6)
    )
    out = tmp_path / "report.json"
    code = run(["certificate", "--beta-phases", "2", "--z-steps", "8", "--d-step", "0.5", "--out", str(out)])
    assert code == 1
    assert capsys.readouterr().out.rstrip().endswith("FAIL")
    assert json.loads(out.read_text())["analytic_floor_gap"] == -1e-6


def test_certificate_rejects_beta_one(tmp_path, capsys):
    for beta_max in ("1.0", "nan"):
        with pytest.raises(SystemExit) as exc:
            run(["certificate", "--beta-max", beta_max, "--out", str(tmp_path / "r.json")])
        assert exc.value.code == 2


@pytest.mark.parametrize(
    "flag, value",
    [("--d-step", "nan"), ("--d-step", "inf"), ("--d-max", "inf"), ("--d-max", "nan"), ("--d-step", "1e-300")],
)
def test_certificate_rejects_non_finite_d_range(tmp_path, capsys, flag, value):
    with pytest.raises(SystemExit) as exc:
        run(["certificate", flag, value, "--out", str(tmp_path / "r.json")])
    assert exc.value.code == 2
    assert "finite" in capsys.readouterr().err
    assert not (tmp_path / "r.json").exists()


def test_solve_torus_command(tmp_path):
    prefix = tmp_path / "run"
    code = run(
        ["solve", "--domain", "torus", "--t-const", "1", "--n", "32", "--out-prefix", str(prefix)]
    )
    assert code == 0
    report = json.loads((tmp_path / "run_report.json").read_text())
    assert report["converged"]
    field = (tmp_path / "run_field.csv").read_text().splitlines()
    assert field[0] == "nx,ny"
    assert field[1] == "32,32"
    values = np.fromstring(field[2], sep=",")
    assert np.abs(values).max() <= 1e-8


def test_solve_disk_reference_command(tmp_path):
    prefix = tmp_path / "disk"
    code = run(
        ["solve", "--domain", "disk", "--t-zero", "--n", "64", "--out-prefix", str(prefix)]
    )
    assert code == 0
    report = json.loads((tmp_path / "disk_report.json").read_text())
    assert report["reference_error"] <= 5e-3


@pytest.mark.parametrize(
    "args",
    [
        ["--domain", "torus", "--t-const", "1e200"],
        ["--domain", "disk", "--t-monomial", "1e200,2", "--boundary", "reference"],
        ["--domain", "torus", "--t-const", "2", "--tol", "-1"],
        ["--domain", "torus", "--t-const", "2", "--tol", "nan"],
        ["--domain", "torus", "--t-const", "2", "--periods", "1"],
        ["--domain", "torus", "--t-const", "2", "--periods", "1,1,1"],
        ["--domain", "torus", "--t-const", "2", "--periods", "inf,1"],
        ["--domain", "disk", "--t-monomial", "1,2.5", "--boundary", "reference"],
        ["--domain", "disk", "--t-monomial", "1,-2", "--boundary", "reference"],
    ],
)
def test_solve_bad_datum_or_tol_usage_error(tmp_path, args):
    with pytest.raises(SystemExit) as exc:
        run(["solve", *args, "--n", "16", "--out-prefix", str(tmp_path / "x")])
    assert exc.value.code == 2
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "args, message",
    [
        (["--domain", "torus", "--t-const", "0", "--n", "32"], "vanishes identically"),
        (["--domain", "torus", "--t-const", "1e-200", "--n", "32"], "vanishes identically"),
        (["--domain", "disk", "--t-zero", "--radius", "0.95", "--n", "32"], "ring reaches radius"),
        (["--domain", "disk", "--t-zero", "--radius", "0.97", "--n", "32"], "ring reaches radius"),
        (["--domain", "disk", "--t-zero", "--radius", "0.97", "--n", "16"], "ring reaches radius"),
    ],
)
def test_solve_without_a_solution_usage_error(tmp_path, capsys, args, message):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(SystemExit) as exc:
            run(["solve", *args, "--out-prefix", str(tmp_path / "x")])
    assert exc.value.code == 2
    assert message in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_solve_extreme_datum_fails_without_warnings(tmp_path, capsys):
    # |t|^2 = 1e200: Newton lowers u by about 1 per step towards -153, so 50 steps fall short
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = run(["solve", "--domain", "torus", "--t-const", "1e100", "--n", "32",
                    "--out-prefix", str(tmp_path / "x")])
    assert code == 1
    assert "no convergence in 50 iterations" in capsys.readouterr().out
    report = json.loads((tmp_path / "x_report.json").read_text())
    assert report["converged"] is False and report["iterations"] == 50
    assert not (tmp_path / "x_field.csv").exists()


def test_solve_disk_requires_boundary_for_nonzero_t(tmp_path):
    with pytest.raises(SystemExit) as exc:
        run(["solve", "--domain", "disk", "--t-const", "1", "--n", "32",
             "--out-prefix", str(tmp_path / "x")])
    assert exc.value.code == 2
    code = run(
        ["solve", "--domain", "disk", "--t-monomial", "1,1", "--n", "32",
         "--boundary", "reference", "--out-prefix", str(tmp_path / "ok")]
    )
    assert code == 0


def test_gap_scan_command_and_determinism(tmp_path):
    p1 = tmp_path / "s1"
    p2 = tmp_path / "s2"
    for p in (p1, p2):
        code = run(["gap-scan", "--family", "red", "--max-len", "3",
                    "--seed", "0", "--out-prefix", str(p)])
        assert code == 0
    assert (tmp_path / "s1_scan.csv").read_bytes() == (tmp_path / "s2_scan.csv").read_bytes()
    assert (tmp_path / "s1_summary.json").read_bytes() == (tmp_path / "s2_summary.json").read_bytes()
    summary = json.loads((tmp_path / "s1_summary.json").read_text())
    assert summary["family"] == "reducible-fuchsian"


def test_gap_scan_barbot_zero_matches_red(tmp_path):
    run(["gap-scan", "--family", "red", "--max-len", "2", "--out-prefix", str(tmp_path / "red")])
    run(["gap-scan", "--family", "barbot", "--chi", "0,0,0,0", "--max-len", "2",
         "--out-prefix", str(tmp_path / "bt")])
    red_rows = json.loads((tmp_path / "red_summary.json").read_text())["rows"]
    bt_rows = json.loads((tmp_path / "bt_summary.json").read_text())["rows"]
    for r, b in zip(red_rows, bt_rows):
        assert r["min_sg12"] == pytest.approx(b["min_sg12"], abs=1e-12)


def test_gap_scan_barbot_requires_chi(tmp_path):
    for chi in ([], ["--chi", "1,2,3"]):
        with pytest.raises(SystemExit) as exc:
            run(["gap-scan", "--family", "barbot", *chi, "--out-prefix", str(tmp_path / "x")])
        assert exc.value.code == 2


def test_gap_scan_irr_doubles_minima(tmp_path):
    run(["gap-scan", "--family", "red", "--max-len", "3", "--out-prefix", str(tmp_path / "red")])
    run(["gap-scan", "--family", "irr", "--max-len", "3", "--out-prefix", str(tmp_path / "irr")])
    red_rows = json.loads((tmp_path / "red_summary.json").read_text())["rows"]
    irr_rows = json.loads((tmp_path / "irr_summary.json").read_text())["rows"]
    for r, i in zip(red_rows, irr_rows):
        assert i["min_lg12"] == pytest.approx(2 * r["min_lg12"], rel=1e-9)
        assert i["min_sg12"] == pytest.approx(2 * r["min_sg12"], rel=1e-9)


def test_gap_scan_overflowing_words_usage_error(tmp_path, capsys):
    prefix = tmp_path / "long"
    with pytest.raises(SystemExit) as exc:
        run(["gap-scan", "--family", "red", "--max-len", "700", "--budget", "700",
             "--out-prefix", str(prefix)])
    assert exc.value.code == 2
    assert "overflow" in capsys.readouterr().err
    assert not (tmp_path / "long_summary.json").exists()


def test_certify_flow_command(tmp_path):
    out = tmp_path / "flow.json"
    code = run(
        ["certify-flow", "--betas", "0,0.5", "--times", "0.5,1.0",
         "--samples", "100", "--out", str(out)]
    )
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["certified"]
    assert payload["nesting"]["all_nested"]
    for push in payload["pushforwards"]:
        assert push["all_inside"]


def test_certify_flow_deterministic(tmp_path):
    for name in ("a.json", "b.json"):
        code = run(["certify-flow", "--betas", "0.4", "--times", "0.5",
                    "--samples", "64", "--out", str(tmp_path / name)])
        assert code == 0
    assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()


#: The certify-flow report at the defaults; the cone frames and the
#: projections must reproduce it exactly.
STABLE_FLOW_ESTIMATES = [0.04999949999999938, 0.24999949999999957, 0.49999949999999954, 0.9999994999999996]
STABLE_FLOW_DISPLACEMENTS = [0.0019999999999988916, 0.0010467747774173253, 0.0002841949785929998]


def test_certify_flow_default_report_is_stable(tmp_path):
    out = tmp_path / "flow.json"
    assert run(["certify-flow", "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    nesting = payload["nesting"]
    assert [r["t"] for r in nesting["results"]] == [0.1, 0.5, 1.0, 2.0]
    assert [r["estimate"] for r in nesting["results"]] == STABLE_FLOW_ESTIMATES
    # a translate by t is nested by t/2, less the half tolerance the
    # classification keeps
    for r in nesting["results"]:
        assert abs(r["estimate"] - (r["t"] - DEFAULT_TOL) / 2) <= 1e-14
    assert [p["min_displacement"] for p in payload["pushforwards"]] == STABLE_FLOW_DISPLACEMENTS
    assert all(p["inside"] == p["samples"] == 512 for p in payload["pushforwards"])
    assert payload["certified"]


def test_certify_flow_past_resolved_times_exits_one(tmp_path, capsys):
    # t = 40 is resolved; at t = 48 the contraction fixes every sample in float
    out = tmp_path / "flow.json"
    assert run(["certify-flow", "--times", "40,48", "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "NumericalDomainError" in err
    assert not out.exists()


def test_certify_flow_far_frame_off_determinant_exits_one(tmp_path, capsys):
    # at angle 0.7 and t = 16 the product of two validated frames misses determinant 1 by
    # 2.2e-10 in float: a numerical failure, not a usage error
    out = tmp_path / "flow.json"
    assert run(["certify-flow", "--angle", "0.7", "--times", "16", "--betas", "0", "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "NumericalDomainError" in err and "determinant" in err
    assert not out.exists()


def test_certify_flow_zero_step_usage_error(tmp_path):
    with pytest.raises(SystemExit) as exc:
        run(["certify-flow", "--t-step", "0", "--out", str(tmp_path / "x.json")])
    assert exc.value.code == 2


@pytest.mark.parametrize(
    "extra",
    [
        ["--tol", "-1"],
        ["--tol", "nan"],
        ["--samples", "0"],
        ["--samples", "-5"],
        ["--betas", ","],
        ["--times", ","],
        ["--angle", "nan"],
        ["--angle", "inf"],
    ],
)
def test_certify_flow_invalid_input_usage_error(tmp_path, extra):
    out = tmp_path / "flow.json"
    with pytest.raises(SystemExit) as exc:
        run(["certify-flow", "--samples", "16", *extra, "--out", str(out)])
    assert exc.value.code == 2
    assert not out.exists()


def test_fiber_command(tmp_path):
    prefix = tmp_path / "fib"
    code = run(["fiber", "--theta-steps", "64", "--out-prefix", str(prefix)])
    assert code == 0
    lines = (tmp_path / "fib_fiber.csv").read_text().splitlines()
    assert len(lines) == 65
    for line in lines[1:]:
        assert abs(float(line.split(",")[-1])) <= 1e-12


def test_fiber_csv_loads_as_plain_numbers(tmp_path):
    prefix = tmp_path / "fib"
    assert run(["fiber", "--theta-steps", "16", "--point", "2,1,1", "--out-prefix", str(prefix)]) == 0
    data = np.loadtxt(tmp_path / "fib_fiber.csv", delimiter=",", skiprows=1)
    assert data.shape == (16, 8)
    assert np.all(np.isfinite(data))


def test_fiber_conic_position(tmp_path):
    prefix = tmp_path / "fib"
    code = run(["fiber", "--theta-steps", "8", "--conic-position",
                "--samples", "120", "--out-prefix", str(prefix)])
    assert code == 0
    payload = json.loads((tmp_path / "fib_conic.json").read_text())
    assert payload["lines_outside"] == 120
    assert payload["planes_meet_interior"] == 120


def test_fiber_conic_position_reports_rejected_draws(tmp_path):
    prefix = tmp_path / "fib"
    run(["fiber", "--theta-steps", "8", "--conic-position", "--samples", "50", "--seed", "2",
         "--out-prefix", str(prefix)])
    payload = json.loads((tmp_path / "fib_conic.json").read_text())
    assert payload["rejected_not_separated"] == 0
    assert payload["rejected_not_real"] == 0
    assert payload["lines_outside"] == 50


def test_fiber_conic_position_rejects_zero_samples(tmp_path):
    with pytest.raises(SystemExit) as exc:
        run(["fiber", "--theta-steps", "8", "--conic-position", "--samples", "0",
             "--out-prefix", str(tmp_path / "fib")])
    assert exc.value.code == 2
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("steps", ["0", "-3"])
def test_fiber_rejects_non_positive_theta_steps(tmp_path, capsys, steps):
    with pytest.raises(SystemExit) as exc:
        run(["fiber", "--theta-steps", steps, "--out-prefix", str(tmp_path / "fib")])
    assert exc.value.code == 2
    assert "--theta-steps must be positive" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_fiber_invalid_point(tmp_path):
    for point in ("1,0,0", "1,1,0.5", "-1,-1,0", "nan,1,0"):
        with pytest.raises(SystemExit) as exc:
            run(["fiber", f"--point={point}", "--out-prefix", str(tmp_path / "x")])
        assert exc.value.code == 2


def test_fiber_accepts_far_points(tmp_path):
    # distance 8: ab - c^2 - 1 = -1.16e-10, within PlanePoint's relative bound
    prefix = tmp_path / "far"
    point = "2863.301070074154,117.65725243020199,580.4197935851105"
    assert run(["fiber", "--theta-steps", "8", "--point", point, "--out-prefix", str(prefix)]) == 0
    data = np.loadtxt(tmp_path / "far_fiber.csv", delimiter=",", skiprows=1)
    assert data.shape == (8, 8) and np.all(np.isfinite(data))


@pytest.mark.parametrize("error", [ProjectionError("no convergence"), NumericalDomainError("overflow")])
def test_numerical_failure_exits_one_with_one_line(tmp_path, capsys, monkeypatch, error):
    def failing(args, parser):
        raise error

    monkeypatch.setattr(cli, "_cmd_certify_flow", failing)
    code = run(["certify-flow", "--out", str(tmp_path / "flow.json")])
    assert code == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert type(error).__name__ in err and str(error) in err


def test_projection_without_interior_minimum_exits_one(tmp_path, capsys, monkeypatch):
    # a flag whose outer parts are parallel in float has no interior projection
    flag = Flag(ProjectivePoint([0.6, 5e-7, 0.8]), ProjectiveCovector([-0.8, 5e-7, 0.6]))
    monkeypatch.setattr(cli, "_cmd_certify_flow", lambda args, parser: project(flag))
    assert run(["certify-flow", "--out", str(tmp_path / "flow.json")]) == 1
    assert "ProjectionError" in capsys.readouterr().err
