import json
import math
import os

import numpy as np
import pytest

from funkball.cli import main

FAST_CFG = """
# small solver for test runs
solver.m = 120
params.n = 3
params.a = 0.5
"""


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def value_of(stdout, key):
    for line in stdout.splitlines():
        if line.startswith(key + " = "):
            return line.split(" = ", 1)[1]
    raise AssertionError(f"{key} not printed in {stdout!r}")


def test_metric_funk_radial(capsys):
    code, out, _ = run(capsys, "metric", "--n", "2", "--a", "1", "--x", "0.5,0", "--y", "1,0")
    assert code == 0
    assert float(value_of(out, "F")) == pytest.approx(2.0, rel=1e-15)


def test_metric_origin_euclidean(capsys):
    code, out, _ = run(capsys, "metric", "--n", "3", "--a", "0", "--x", "0", "--y", "0,0,1")
    assert code == 0
    assert float(value_of(out, "F")) == pytest.approx(1.0, rel=1e-15)


def test_metric_reversibility_flag(capsys):
    code, out, _ = run(capsys, "metric", "--a", "0.5", "--reversibility")
    assert code == 0
    assert float(value_of(out, "r_F")) == pytest.approx(3.0, rel=1e-15)


def test_metric_verify_passes(capsys):
    code, out, _ = run(
        capsys, "metric", "--n", "2", "--a", "0.6", "--x", "0.3,0.2", "--alpha", "1,-1", "--verify"
    )
    assert code == 0
    assert "F_star" in out


def test_metric_validation_failures(capsys):
    code, _, err = run(capsys, "metric", "--n", "2", "--a", "1.5", "--x", "0.5,0", "--y", "1,0")
    assert code == 2
    code, _, err = run(capsys, "metric", "--n", "2", "--a", "0.5", "--x", "0.99,0,0", "--y", "1,0")
    assert code == 2  # dimension mismatch
    code, _, err = run(capsys, "metric", "--n", "2", "--a", "0.5")
    assert code == 2  # nothing to evaluate


def test_metric_distance_needs_funk_endpoint(capsys):
    code, out, _ = run(capsys, "metric", "--n", "2", "--a", "1", "--x", "0", "--x2", "0.5,0")
    assert code == 0
    assert float(value_of(out, "funk_distance")) == pytest.approx(math.log(2.0), rel=1e-12)
    code, _, _ = run(capsys, "metric", "--n", "2", "--a", "0.5", "--x", "0", "--x2", "0.5,0")
    assert code == 2


def test_counterexample_verdicts(capsys, tmp_path):
    out_dir = tmp_path / "ce"
    code, out, _ = run(capsys, "counterexample", "--n", "2", "--out", str(out_dir))
    assert code == 0
    assert "verdict: PASS" in out
    rows = (out_dir / "counterexample.csv").read_text().splitlines()
    assert rows[0] == "R,C1,C2,slope_fit"
    assert len(rows) == 10
    assert (out_dir / "resolved.cfg").exists()

    code, out, _ = run(capsys, "counterexample", "--n", "3")
    assert code == 0 and "verdict: PASS" in out


def test_counterexample_passes_at_n_100(capsys):
    # the slope between the two largest radii, free of the r^(n-1) bias of
    # the small ones
    code, out, _ = run(capsys, "counterexample", "--n", "100")
    assert code == 0 and "verdict: PASS" in out


def test_counterexample_single_radius_rejected(capsys):
    code, _, err = run(capsys, "counterexample", "--n", "2", "--r-schedule", "0.9")
    assert code == 2


def test_counterexample_beyond_the_float_range_exits_2(capsys):
    code, out, err = run(capsys, "counterexample", "--n", "400")
    assert (code, out) == (2, "")
    assert err == "error: Gamma(201.0) exceeds the float range\n"


def test_solve_lambda_zero(capsys, tmp_path):
    cfg = tmp_path / "fast.cfg"
    cfg.write_text(FAST_CFG)
    code, out, _ = run(capsys, "solve", "--config", str(cfg), "--lambda", "0")
    assert code == 0
    assert value_of(out, "classification") == "only-zero"
    assert float(value_of(out, "lambda_star")) > 0.0


def test_solve_rejects_funk_endpoint(capsys):
    code, _, err = run(capsys, "solve", "--n", "3", "--a", "1", "--lambda", "1")
    assert code == 2
    assert "vector space" in err or "negation" in err


@pytest.mark.parametrize("command", ["scan", "diag"])
def test_scan_and_diag_reject_funk_endpoint(capsys, command):
    # ModelParams gives the reason, on the library path of each subcommand
    code, out, err = run(capsys, command, "--n", "3", "--a", "1")
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and "not closed under negation" in err


def test_solve_requires_lambda(capsys):
    code, _, _ = run(capsys, "solve", "--n", "3", "--a", "0.5")
    assert code == 2


def test_scan_rejects_non_finite_lambdas(capsys, monkeypatch):
    from funkball import elliptic_solver as es

    def no_search(*args):
        raise AssertionError("the tent search ran")

    monkeypatch.setattr(es, "_tilde_search", no_search)
    for lams in ("nan", "1,inf", "1,-inf"):
        code, out, err = run(capsys, "scan", "--lambdas", lams)
        assert (code, out) == (2, "")
        assert err == "error: lambda values must be finite and non-negative\n"


def test_solve_writes_reports(capsys, tmp_path):
    cfg = tmp_path / "fast.cfg"
    cfg.write_text(FAST_CFG)
    out_dir = tmp_path / "run"
    code, out, _ = run(
        capsys, "solve", "--config", str(cfg), "--lambda", "200000", "--out", str(out_dir)
    )
    assert code == 0
    assert value_of(out, "classification") == "two"
    blob = json.loads((out_dir / "report.json").read_text())
    assert blob["classification"] == "two"
    assert len(blob["solutions"]) == 2
    prof = np.loadtxt(out_dir / "profile_minimizer.csv", delimiter=",", skiprows=1)
    assert prof.shape[1] == 2
    assert prof[-1, 1] == 0.0


def test_scan_explicit_schedule_and_determinism(capsys, tmp_path):
    cfg = tmp_path / "fast.cfg"
    cfg.write_text(FAST_CFG)
    outs = []
    for name in ("s1", "s2"):
        out_dir = tmp_path / name
        code, out, _ = run(
            capsys,
            "scan",
            "--config",
            str(cfg),
            "--lambdas",
            "1,200000",
            "--out",
            str(out_dir),
        )
        assert code == 0
        outs.append(out_dir)
    for fname in ("scan.json", "scan.csv", "profile_1_minimizer.csv", "resolved.cfg"):
        a = (outs[0] / fname).read_bytes()
        b = (outs[1] / fname).read_bytes()
        assert a == b, f"{fname} not byte-identical across identical runs"
    lines = (outs[0] / "scan.csv").read_text().splitlines()
    assert lines[0].startswith("lambda,classification")


def test_failed_starts_exit_1_in_solve_and_scan(capsys, tmp_path, monkeypatch):
    from funkball import elliptic_solver as es

    def failing(asm, lam, kappa, nl, cfg, init_vec):
        return init_vec, 0.0, 10.0 * cfg.tol, 1

    monkeypatch.setattr(es, "_minimize_vec", failing)
    cfg = tmp_path / "fast.cfg"
    cfg.write_text(FAST_CFG)
    code, out, _ = run(capsys, "solve", "--config", str(cfg), "--lambda", "1")
    assert code == 1
    assert value_of(out, "classification") == "only-zero"
    notes = [line for line in out.splitlines() if line.startswith("  note: ")]
    assert notes == ["  note: minimize residual 1.000e-07 above tol from one start"] * 5
    # every start failed, so the scan's only-zero is not certified either
    code, out, _ = run(capsys, "scan", "--config", str(cfg), "--lambdas", "1")
    assert code == 1
    assert "lambda = 1: only-zero" in out


def test_a_minimizer_that_fails_its_certificate_exits_1(capsys, monkeypatch):
    # the default problem at 0.6 lambda~, where two starts end at zero below
    # the minimizer's J: its failed certificate must not leave a silent
    # only-zero that exits 0
    from funkball import ModelParams, Nonlinearity, WeightKappa, tilde_lambda_estimate
    from funkball import elliptic_solver as es

    certify = es._certify

    def failing(*args):
        cert, failed = certify(*args)
        return (cert, failed + ["forced"]) if args[-1] == 0 else (cert, failed)

    monkeypatch.setattr(es, "_certify", failing)
    params = ModelParams(n=3, a=0.5)
    lam = 0.6 * tilde_lambda_estimate(params, WeightKappa.default(), Nonlinearity.default())
    code, out, _ = run(capsys, "solve", "--lambda", repr(lam))
    assert code == 1
    assert value_of(out, "classification") == "only-zero"
    assert "  note: nonzero minimizer failed certification (forced)" in out.splitlines()


def test_starts_cut_off_by_max_iter_exit_1(capsys, tmp_path):
    # about 11 lambda~ of the M = 120 problem, where the paper has two solutions
    cfg = tmp_path / "starved.cfg"
    cfg.write_text(FAST_CFG + "solver.max_iter = 1\n")
    code, out, _ = run(capsys, "solve", "--config", str(cfg), "--lambda", "200000")
    assert code == 1
    assert value_of(out, "classification") != "two"
    assert "  note: minimize residual " in out


def test_scan_two_runs_write_identical_output(capsys, tmp_path):
    cfg = tmp_path / "fast.cfg"
    cfg.write_text(FAST_CFG)
    dirs = []
    for name in ("run1", "run2"):
        out_dir = tmp_path / name
        code, _, _ = run(
            capsys, "scan", "--config", str(cfg), "--lambdas", "1,2", "--out", str(out_dir)
        )
        assert code == 0
        dirs.append(out_dir)
    for fname in ("scan.json", "scan.csv", "resolved.cfg"):
        assert (dirs[0] / fname).read_bytes() == (dirs[1] / fname).read_bytes()


def test_config_flag_precedence(capsys, tmp_path):
    cfg = tmp_path / "base.cfg"
    cfg.write_text("params.n = 2\nparams.a = 0.9\n")
    out_dir = tmp_path / "norms"
    # --a on the command line must override the file
    code, out, _ = run(
        capsys, "norms", "--config", str(cfg), "--a", "0.0", "--out", str(out_dir)
    )
    assert code == 0
    resolved = (out_dir / "resolved.cfg").read_text()
    assert "params.a = 0" in resolved
    assert "params.n = 2" in resolved


def test_config_rejects_unknown_key(capsys, tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("params.zz = 3\n")
    code, _, err = run(capsys, "norms", "--config", str(cfg))
    assert code == 2
    assert "unknown key" in err


def test_norms_counterexample_profile(capsys):
    code, out, _ = run(capsys, "norms", "--n", "2", "--a", "1", "--r-max", str(1.0 - 1e-8))
    assert code == 0
    total = float(value_of(out, "total"))
    assert total**2 == pytest.approx(5.0 * math.pi / 12.0, abs=1e-5)


def test_norms_r_max_flag_sets_the_report_radius(capsys):
    code, out, _ = run(capsys, "norms", "--r-max", "0.99")
    assert code == 0
    assert float(value_of(out, "r_max")) == 0.99


def test_norms_tent_profile(capsys):
    code, out, _ = run(capsys, "norms", "--n", "3", "--a", "0", "--profile", "tent:1,0.5")
    assert code == 0
    rep_total = float(value_of(out, "total"))
    assert rep_total > 0.0
    np.testing.assert_allclose(
        float(value_of(out, "total")), float(value_of(out, "riemannian")), rtol=1e-10
    )
    code, _, _ = run(capsys, "norms", "--n", "3", "--a", "0", "--profile", "tent:bad")
    assert code == 2


def test_csv_floats_roundtrip(capsys, tmp_path):
    out_dir = tmp_path / "ce"
    code, _, _ = run(capsys, "counterexample", "--n", "2", "--out", str(out_dir))
    assert code == 0
    rows = (out_dir / "counterexample.csv").read_text().splitlines()[1:]
    from funkball import c1_c2_integrals

    R, c1, _, _ = rows[0].split(",")
    exact_c1 = c1_c2_integrals(float(R), 2)[0]
    assert float(c1) == exact_c1  # 17 significant digits round-trip doubles


def test_diag_tables(capsys, tmp_path):
    cfg = tmp_path / "fast.cfg"
    cfg.write_text(FAST_CFG)
    out_dir = tmp_path / "diag"
    code, out, _ = run(capsys, "diag", "--config", str(cfg), "--out", str(out_dir))
    assert code == 0
    assert "gradient check" in out
    sub = np.loadtxt(out_dir / "diag_subquadraticity.csv", delimiter=",", skiprows=1)
    assert sub.shape[1] == 2
    grad = (out_dir / "diag_gradcheck.csv").read_text().splitlines()
    assert grad[0] == "state,rel_error"
    assert len(grad) == 6


def test_diag_fails_a_nan_gradient_check(capsys, tmp_path, monkeypatch):
    # max(0.0, nan) is 0.0: a NaN state error must not read as a pass
    from funkball import elliptic_solver as es

    cfg = tmp_path / "fast.cfg"
    cfg.write_text(FAST_CFG)
    gradient, calls = es.discrete_gradient, []

    def nan_at_the_third_state(*args):
        calls.append(None)
        g = gradient(*args)
        return g * math.nan if len(calls) == 3 else g

    monkeypatch.setattr(es, "discrete_gradient", nan_at_the_third_state)
    code, out, err = run(capsys, "diag", "--config", str(cfg))
    assert code == 1
    assert "gradient check: worst relative error nan over 5 states" in out
    assert err == "error: gradient check exceeded its tolerance\n"


def test_scan_default_schedule_runs_one_tent_search(capsys, tmp_path):
    # lambda~ and every solve of the scan read the search's memo: one miss
    from funkball import elliptic_solver as es

    es._tilde_search.cache_clear()
    cfg = tmp_path / "fast.cfg"
    cfg.write_text(FAST_CFG)
    code, out, _ = run(capsys, "scan", "--config", str(cfg))
    assert code == 0
    assert es._tilde_search.cache_info().misses == 1
    lam_star = float(value_of(out, "lambda_star"))
    lam_tilde = float(value_of(out, "lambda_tilde_est"))
    lams = [
        float(line[9:].split(":")[0]) for line in out.splitlines() if line.startswith("lambda = ")
    ]
    assert lams == [0.5 * lam_star, 10.0 * lam_tilde]


def test_scan_default_schedule_needs_an_onset(capsys, tmp_path):
    # exp(-1/R^2) underflows in the potential of every tent trial
    cfg = tmp_path / "tiny.cfg"
    cfg.write_text(FAST_CFG + "problem.kappa_radius = 0.037\n")
    code, out, err = run(capsys, "scan", "--config", str(cfg))
    assert code == 2
    assert out == ""
    assert err == "error: no finite onset estimate; pass an explicit --lambdas schedule\n"


RESOLVED_DEFAULT = """\
params.a = 0.5
params.n = 3
problem.kappa_radius = 0.5
solver.m = 400
solver.max_iter = 400
"""


def test_resolved_cfg_of_default_run(capsys, tmp_path):
    out_dir = tmp_path / "ce"
    code, _, _ = run(capsys, "counterexample", "--out", str(out_dir))
    assert code == 0
    assert (out_dir / "resolved.cfg").read_text() == RESOLVED_DEFAULT


@pytest.mark.parametrize(
    "line, message",
    [
        ("solver.m = 8", "need at least 16 radial elements"),
        ("solver.path_nodes = 2", "unknown key 'solver.path_nodes'"),
        ("quad.m = 4", "unknown key 'quad.m'"),
        ("quad.scheme = spiral", "unknown key 'quad.scheme'"),
        ("problem.kappa_radius = 1.5", "the weight radius must lie in (0, 1)"),
        ("problem.g = cubic", "unknown key 'problem.g'"),
        ("problem.kappa = bump", "unknown key 'problem.kappa'"),
        ("solver.seed = -1", "unknown key 'solver.seed'"),
        ("solver.max_iter = 0", "max_iter must be at least 1"),
        ("solver.max_sweeps = 0", "unknown key 'solver.max_sweeps'"),
        ("solver.quad_order = 8", "unknown key 'solver.quad_order'"),
        ("solver.r_max = 0.5", "unknown key 'solver.r_max'"),
        ("solver.tol = 0", "unknown key 'solver.tol'"),
        ("run.verify = 1", "unknown key 'run.verify'"),
        ("quad.r_max = 0.9", "unknown key 'quad.r_max'"),
    ],
)
def test_every_subcommand_validates_the_whole_config(capsys, tmp_path, line, message):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(line + "\n")
    for argv in (("metric", "--reversibility"), ("counterexample", "--r-schedule", "0.5,0.9")):
        code, out, err = run(capsys, *argv, "--config", str(cfg))
        assert (code, out) == (2, "")
        assert message in err


@pytest.mark.parametrize(
    "argv, cfg_line, message",
    [
        (("metric", "--n", "1", "--reversibility"), "", "dimension must be an integer >= 2"),
        (("metric", "--a", "1.5", "--reversibility"), "", "interpolation parameter must lie in"),
        (("metric", "--reversibility"), "params.a = nan", "interpolation parameter must lie in"),
        (("solve", "--lambda", "1"), "params.a = 1", "not closed under negation"),
        (("diag", "--lambda", "-5"), "", "lambda must be finite and non-negative"),
        (("norms", "--r-max", "1"), "", "r_max must lie in (0, 1), got 1.0"),
        (("counterexample", "--r-schedule", "0.9"), "", "need at least two truncation radii"),
        (("counterexample", "--r-schedule", "0.5,1.2"), "", "truncation radii must lie in (0, 1)"),
        (("solve", "--lambda", "-1"), "", "lambda must be finite and non-negative"),
        (("metric", "--x", "1.5,0,0", "--y", "1,0,0"), "", "not strictly inside the unit ball"),
        (("metric", "--a", "1", "--x", "0,0,0", "--x2", "2,0,0"), "", "not strictly inside"),
        (("solve", "--lambda", "nan"), "", "lambda must be finite and non-negative"),
        (("solve", "--lambda", "inf"), "", "lambda must be finite and non-negative"),
        (("diag", "--lambda", "nan"), "", "lambda must be finite and non-negative"),
        (("diag", "--lambda", "inf"), "", "lambda must be finite and non-negative"),
        (("norms", "--r-max", "2"), "", "r_max must lie in (0, 1), got 2.0"),
    ],
)
def test_checks_left_to_the_owning_class_exit_2(capsys, tmp_path, argv, cfg_line, message):
    cfg = tmp_path / "case.cfg"
    cfg.write_text(cfg_line + "\n")
    code, out, err = run(capsys, *argv, "--config", str(cfg))
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and message in err


@pytest.mark.parametrize(
    "argv",
    [
        ("metric", "--reversibility", "--seed", "3"),
        ("metric", "--reversibility", "--out", "unread"),
        ("norms", "--seed", "3"),
        ("norms", "--verify"),
        ("counterexample", "--seed", "3"),
        ("counterexample", "--verify"),
        ("solve", "--lambda", "1", "--verify"),
        ("solve", "--lambda", "1", "--seed", "3"),
        ("scan", "--verify"),
        ("scan", "--seed", "3"),
        ("diag", "--verify"),
        ("diag", "--seed", "3"),
    ],
)
def test_a_flag_the_subcommand_does_not_read_exits_2(capsys, monkeypatch, tmp_path, argv):
    # argparse rejects it before any work is done or any file is written
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err
    assert os.listdir(tmp_path) == []
