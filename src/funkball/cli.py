"""Command-line driver with reproducible, machine-readable output.

Subcommands map onto the library layers: ``metric`` evaluates the closed
forms at a point (with sampling-oracle cross-checks under ``--verify``),
``norms`` assembles a norm report for a radial profile, ``counterexample``
tabulates the truncated dichotomy integrals and prints a PASS/FAIL verdict,
``solve``/``scan`` drive the variational solver, and ``diag`` emits
subquadraticity and gradient-check tables.  Each subcommand takes only the
flags it reads: ``--n``, ``--a`` and ``--config`` everywhere, ``--out``
everywhere but ``metric``, ``--verify`` on ``metric``; a flag the subcommand
does not read exits 2.  No subcommand takes a seed: ``diag`` draws its
gradient-check states from a constant one.

Configuration is a flat ``key = value`` text file with dotted keys
(``params.a = 0.5``), overridden by command-line flags; every run that
writes outputs also writes its fully resolved configuration next to them.
The ``solver.*`` keys are the fields of ``SolverConfig``, defaults
included; its class constants, such as ``tol``, are not keys.  There are
five keys; a retired one, such as ``quad.r_max``, exits 2 as unknown.  The
problem is the default nonlinearity with the bump weight of radius
``problem.kappa_radius``.  Every subcommand validates every key, each by
the class that owns it, so ``ModelParams`` rejects a = 1 on every solver
path; the CLI checks what no class owns (key names, numbers and the
``--r-max`` of ``norms``, by default ``quadrature.R_MAX``).
``scan`` runs its schedule sequentially through ``lambda_scan``.
Exit codes: 0 success, 1 certification failure (a failed start or an
uncertified solution, at any lambda of a scan), 2 validation failure.
All CSV numbers use 17 significant digits so doubles round-trip exactly.
"""

import argparse
import json
import math
import os
import sys
from dataclasses import fields
from types import SimpleNamespace

import numpy as np

from . import elliptic_solver as es
from . import finsler_core as fc
from . import sobolev as sb
from .quadrature import R_MAX, _check_r_max

__all__ = ["main"]

EXIT_OK = 0
EXIT_CERTIFICATION = 1
EXIT_VALIDATION = 2


class CliValidationError(ValueError):
    pass


class CliCertificationError(RuntimeError):
    pass


def _fmt(x):
    if isinstance(x, float):
        return "%.17g" % x
    return str(x)


def _write_csv(path, header, rows):
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_fmt(v) for v in row))
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def _write_json(path, obj):
    with open(path, "w") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")


# ---------------------------------------------------------------------------
# Configuration
# ---------------------------------------------------------------------------

#: ``solver.<lower-cased field name>`` for each field of ``SolverConfig``
_SOLVER_KEYS = {f"solver.{f.name.lower()}": f for f in fields(es.SolverConfig)}

CONFIG_DEFAULTS = {
    "params.n": 3,
    "params.a": 0.5,
    **{key: f.default for key, f in _SOLVER_KEYS.items()},
    "problem.kappa_radius": 0.5,
}


def _parse_config_file(path):
    out = {}
    try:
        with open(path) as fh:
            text = fh.read()
    except OSError as exc:
        raise CliValidationError(f"cannot read config file {path}: {exc}")
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise CliValidationError(f"{path}:{lineno}: expected 'key = value'")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if key not in CONFIG_DEFAULTS:
            raise CliValidationError(f"{path}:{lineno}: unknown key {key!r}")
        out[key] = value
    return out


def _coerce(key, value):
    """Text from a config file, converted to the type of the key's default."""
    if not isinstance(value, str):
        return value
    try:
        return type(CONFIG_DEFAULTS[key])(value)
    except ValueError:
        raise CliValidationError(f"config key {key} expects a number, got {value!r}")


def resolve_config(args):
    """Merge defaults, config file and flags, and validate every key.

    Returns a namespace holding the resolved ``cfg`` dict and the objects
    built from it: ``params``, ``solver``, ``nl`` and ``kappa``.  Each class
    checks its own fields, so every subcommand validates the whole
    configuration, whichever parts it uses.
    """
    cfg = dict(CONFIG_DEFAULTS)
    if getattr(args, "config", None):
        cfg.update(_parse_config_file(args.config))
    if getattr(args, "n", None) is not None:
        cfg["params.n"] = args.n
    if getattr(args, "a", None) is not None:
        cfg["params.a"] = args.a
    cfg = {k: _coerce(k, v) for k, v in cfg.items()}
    params = fc.ModelParams(n=cfg["params.n"], a=cfg["params.a"])
    solver = es.SolverConfig(**{f.name: cfg[key] for key, f in _SOLVER_KEYS.items()})
    nl = es.Nonlinearity.default()
    kappa = es.WeightKappa.default(radius=cfg["problem.kappa_radius"])
    return SimpleNamespace(cfg=cfg, params=params, solver=solver, nl=nl, kappa=kappa)


def _ensure_outdir(args):
    out = getattr(args, "out", None)
    if out:
        os.makedirs(out, exist_ok=True)
    return out


def _dump_resolved(cfg, outdir):
    lines = [f"{k} = {_fmt(v)}" for k, v in sorted(cfg.items())]
    with open(os.path.join(outdir, "resolved.cfg"), "w") as fh:
        fh.write("\n".join(lines) + "\n")


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def _parse_vec(text, n, name):
    if text is None:
        return None
    try:
        parts = [float(p) for p in text.split(",") if p.strip() != ""]
    except ValueError:
        raise CliValidationError(f"--{name} expects comma-separated numbers, got {text!r}")
    if len(parts) == 1 and parts[0] == 0.0:
        return np.zeros(n)
    if len(parts) != n:
        raise CliValidationError(f"--{name} must have {n} components, got {len(parts)}")
    return np.array(parts)


def cmd_metric(args):
    run = resolve_config(args)
    params = run.params
    n = params.n
    lines = []
    if args.reversibility:
        lines.append(f"r_F = {_fmt(fc.reversibility(params))}")
    x = _parse_vec(args.x, n, "x")
    p = fc.BallPoint(x) if x is not None else None
    y = _parse_vec(args.y, n, "y")
    alpha = _parse_vec(args.alpha, n, "alpha")
    x2 = _parse_vec(args.x2, n, "x2")
    if p is None and (y is not None or alpha is not None):
        raise CliValidationError("--x is required to evaluate the metric")

    mismatches = []
    if p is not None:
        lines.append(f"x = {','.join(_fmt(float(v)) for v in p.x)}")
        lines.append(f"density = {_fmt(fc.volume_density(params, p))}")
        lines.append(f"beta_norm = {_fmt(fc.beta_norm(params, p))}")
        if not args.reversibility:
            lines.append(f"r_F = {_fmt(fc.reversibility(params))}")
        lines.append(f"l_F = {_fmt(fc.uniformity_lF(params))}")
    if p is not None and y is not None:
        F = fc.randers_F(params, p, y)
        lines.append(f"F = {_fmt(F)}")
    if p is not None and alpha is not None:
        Fs = fc.polar_F_star(params, p, alpha)
        grad = fc.legendre_gradient(params, p, alpha)
        lines.append(f"F_star = {_fmt(Fs)}")
        lines.append(f"grad = {','.join(_fmt(float(v)) for v in grad)}")
        if args.verify:
            oracle = fc.polar_F_star_oracle(params, p, alpha, samples=20000)
            if abs(oracle - Fs) > 1e-3 * (1.0 + Fs):
                mismatches.append(f"dual-norm oracle {oracle} vs closed form {Fs}")
            pair = float(alpha @ grad)
            if abs(pair - Fs * Fs) > 1e-8 * (1.0 + Fs * Fs):
                mismatches.append("duality identity alpha(grad) = F_star^2 failed")
            if abs(fc.randers_F(params, p, grad) - Fs) > 1e-8 * (1.0 + Fs):
                mismatches.append("duality identity F(grad) = F_star failed")
    if p is not None and args.verify and params.a < 1.0:
        r_pt = (1.0 + params.a * p.r) / (1.0 - params.a * p.r)
        oracle = fc.reversibility_oracle(params, p, samples=20000)
        if abs(oracle - r_pt) > 1e-3 * (1.0 + r_pt):
            mismatches.append(f"reversibility oracle {oracle} vs pointwise {r_pt}")
    if p is not None and x2 is not None:
        if params.a != 1.0:
            raise CliValidationError("the distance formula applies to a = 1 only")
        lines.append(f"funk_distance = {_fmt(fc.funk_distance(p, fc.BallPoint(x2)))}")
    if not lines:
        raise CliValidationError("nothing to evaluate: pass --x with --y/--alpha, or --reversibility")
    print("\n".join(lines))
    if mismatches:
        for m in mismatches:
            print(f"VERIFY FAIL: {m}", file=sys.stderr)
        raise CliCertificationError("oracle verification failed")
    return EXIT_OK


def cmd_norms(args):
    run = resolve_config(args)
    r_max = _check_r_max(args.r_max)
    if args.profile == "counterexample":
        u = sb.counterexample_profile()
    elif args.profile.startswith("tent:"):
        try:
            h, w = (float(v) for v in args.profile[5:].split(","))
        except ValueError:
            raise CliValidationError("tent profile must be written tent:height,width")
        if not 0.0 < w < 1.0:
            raise CliValidationError("tent width must lie in (0, 1)")
        u = es.RadialFunction.from_callables(
            lambda r, h=h, w=w: h * np.maximum(1.0 - np.asarray(r) / w, 0.0),
            lambda r, h=h, w=w: np.where(np.asarray(r) < w, -h / w, 0.0),
            r_max=1.0,
        )
    else:
        raise CliValidationError(f"unknown profile {args.profile!r}")
    report = sb.w12a_norm(u, run.params, r_max)
    for name in sb.NormReport.CSV_HEADER:
        print(f"{name} = {_fmt(getattr(report, name))}")
    outdir = _ensure_outdir(args)
    if outdir:
        _write_json(os.path.join(outdir, "norms.json"), report.to_json_dict())
        _write_csv(
            os.path.join(outdir, "norms.csv"),
            sb.NormReport.CSV_HEADER,
            [report.to_csv_row()],
        )
        _dump_resolved(run.cfg, outdir)
    return EXIT_OK


def cmd_counterexample(args):
    run = resolve_config(args)
    schedule = None  # divergence_trend's default, 1 - 10^-k for k = 1..9
    if args.r_schedule:
        try:
            schedule = [float(v) for v in args.r_schedule.split(",")]
        except ValueError:
            raise CliValidationError("--r-schedule expects comma-separated radii")
    trend = sb.divergence_trend(run.params.n, schedule)
    rows = [
        (R, c1, c2, trend["slope"])
        for R, c1, c2 in zip(trend["R"], trend["C1"], trend["C2"])
    ]
    header = ("R", "C1", "C2", "slope_fit")
    limit = trend["c1_limit"]
    slope_ok = abs(trend["slope"] - trend["slope_expected"]) <= 0.05 * trend["slope_expected"]
    c1_ok = trend["c1_rel_error"] <= 1e-4
    verdict = "PASS" if (slope_ok and c1_ok) else "FAIL"
    print(f"C1 limit = {_fmt(limit)} (relative error {_fmt(trend['c1_rel_error'])})")
    print(
        f"C2 slope = {_fmt(trend['slope'])} vs expected {_fmt(trend['slope_expected'])}"
    )
    print(f"verdict: {verdict}")
    outdir = _ensure_outdir(args)
    if outdir:
        _write_csv(os.path.join(outdir, "counterexample.csv"), header, rows)
        _dump_resolved(run.cfg, outdir)
    if verdict != "PASS":
        raise CliCertificationError("dichotomy verdict FAIL")
    return EXIT_OK


def _write_profiles(outdir, report, tag=""):
    """One ``profile_<tag><which>.csv`` per solution of a solve report."""
    for sol in report.solutions:
        prof = sol["profile"]
        _write_csv(
            os.path.join(outdir, f"profile_{tag}{sol['which']}.csv"),
            ("r", "u"),
            list(zip(prof.nodes.tolist(), prof.values.tolist())),
        )


def _certified(report):
    """A solve report is certified when no start failed and every solution
    is ``ok``; an ``error`` report carries its error as a failure."""
    return not report.failures and all(s["ok"] for s in report.solutions)


def cmd_solve(args):
    run = resolve_config(args)
    if args.lam is None:
        raise CliValidationError("--lambda is required for solve")
    report = es.solve(args.lam, run.params, run.kappa, run.nl, run.solver)
    print(f"lambda_star = {_fmt(report.lambda_star)}")
    print(f"lambda_tilde_est = {_fmt(report.lambda_tilde_est)}")
    print(f"classification = {report.classification}")
    for sol in report.solutions:
        print(
            f"  {sol['which']}: J = {_fmt(sol['energy'])}, residual = "
            f"{_fmt(sol['residual'])}, h12_norm = {_fmt(sol['h12_norm'])}"
        )
    for msg in report.failures:
        print(f"  note: {msg}")
    outdir = _ensure_outdir(args)
    if outdir:
        _write_json(os.path.join(outdir, "report.json"), report.to_json_dict())
        _write_csv(os.path.join(outdir, "report.csv"), es.CSV_SCAN_HEADER, report.csv_rows())
        _write_profiles(outdir, report)
        _dump_resolved(run.cfg, outdir)
    if not _certified(report):
        raise CliCertificationError("solution certification failed")
    return EXIT_OK


def cmd_scan(args):
    run = resolve_config(args)
    schedule = None  # lambda_scan's default (lambda*/2, 10 lambda~)
    if args.lambdas:
        try:
            schedule = [float(v) for v in args.lambdas.split(",")]
        except ValueError:
            raise CliValidationError("--lambdas expects comma-separated numbers")
        if not all(0.0 <= l < math.inf for l in schedule):
            raise CliValidationError("lambda values must be finite and non-negative")
    try:
        report = es.lambda_scan(schedule, run.params, run.kappa, run.nl, run.solver)
    except es.SolverError:  # raised only for the default schedule
        raise CliValidationError("no finite onset estimate; pass an explicit --lambdas schedule")
    print(f"lambda_star = {_fmt(report.lambda_star)}")
    print(f"lambda_tilde_est = {_fmt(report.lambda_tilde_est)}")
    for lam, rep in zip(report.lambdas, report.reports):
        print(f"lambda = {_fmt(lam)}: {rep.classification}")
    outdir = _ensure_outdir(args)
    if outdir:
        _write_json(os.path.join(outdir, "scan.json"), report.to_json_dict())
        _write_csv(os.path.join(outdir, "scan.csv"), es.CSV_SCAN_HEADER, report.csv_rows())
        for k, rep in enumerate(report.reports):
            _write_profiles(outdir, rep, f"{k}_")
        _dump_resolved(run.cfg, outdir)
    if not all(_certified(r) for r in report.reports):
        raise CliCertificationError("scan encountered per-lambda failures")
    return EXIT_OK


def cmd_diag(args):
    run = resolve_config(args)
    params, kappa, nl, scfg = run.params, run.kappa, run.nl, run.solver
    nodes = es.solver_nodes(scfg)
    direction = np.maximum(1.0 - nodes / 0.4, 0.0)
    direction[-1] = 0.0
    table = es.subquadraticity_diagnostic(direction, params, kappa, nl, cfg=scfg)

    gradcheck_rows = []
    lam = args.lam if args.lam is not None else 1.0
    for state in range(5):
        rng = np.random.default_rng(np.random.SeedSequence([0, 977, state]))
        vals = rng.standard_normal(nodes.size) * np.maximum(0.0, 1.0 - nodes / 0.9)
        vals[-1] = 0.0
        u = es.RadialFunction.from_values(nodes, vals)
        g = es.discrete_gradient(u, lam, params, kappa, nl)
        idx = np.arange(0, nodes.size - 1, max(1, nodes.size // 24))
        fd = np.zeros(idx.size)
        h = 1e-6
        for j, i in enumerate(idx):
            vp, vm = vals.copy(), vals.copy()
            vp[i] += h
            vm[i] -= h
            up = es.RadialFunction.from_values(nodes, vp)
            um = es.RadialFunction.from_values(nodes, vm)
            fd[j] = (
                es.j_lambda(up, lam, params, kappa, nl) - es.j_lambda(um, lam, params, kappa, nl)
            ) / (2.0 * h)
        scale = float(np.max(np.abs(g[idx]))) or 1.0
        gradcheck_rows.append((state, float(np.max(np.abs(g[idx] - fd)) / scale)))
    worst = float(np.max([rel for _, rel in gradcheck_rows]))  # NaN if any state is NaN
    peak = float(np.max(table[:, 1]))
    print(
        f"subquadraticity: peak ratio {_fmt(peak)}, end ratios "
        f"{_fmt(float(table[0, 1]))} / {_fmt(float(table[-1, 1]))}"
    )
    print(f"gradient check: worst relative error {_fmt(worst)} over 5 states")

    outdir = _ensure_outdir(args)
    if outdir:
        _write_csv(
            os.path.join(outdir, "diag_subquadraticity.csv"),
            ("t", "ratio"),
            [tuple(row) for row in table],
        )
        _write_csv(
            os.path.join(outdir, "diag_gradcheck.csv"),
            ("state", "rel_error"),
            gradcheck_rows,
        )
        _dump_resolved(run.cfg, outdir)
    if not worst <= 1e-5:
        raise CliCertificationError("gradient check exceeded its tolerance")
    return EXIT_OK


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

def _add_common(sub, out=True):
    """--n, --a and --config, then --out where the subcommand reads it."""
    sub.add_argument("--n", type=int, help="space dimension (>= 2)")
    sub.add_argument("--a", type=float, help="interpolation parameter in [0, 1]")
    sub.add_argument("--config", help="flat key = value configuration file")
    if out:
        sub.add_argument("--out", help="output directory for reports")


def build_parser():
    ap = argparse.ArgumentParser(
        prog="funkball",
        description="Metric calculus, Sobolev norms and a radial variational "
        "solver for the Funk-type metric family on the unit ball.",
    )
    subs = ap.add_subparsers(dest="command", required=True)

    m = subs.add_parser("metric", help="evaluate the metric closed forms at a point")
    _add_common(m, out=False)
    m.add_argument("--verify", action="store_true", help="run oracle cross-checks")
    m.add_argument("--x", help="base point, comma-separated (0 for the origin)")
    m.add_argument("--y", help="tangent vector")
    m.add_argument("--alpha", help="covector")
    m.add_argument("--x2", help="second point for the a = 1 distance")
    m.add_argument("--reversibility", action="store_true", help="print r_F only")
    m.set_defaults(fn=cmd_metric)

    n = subs.add_parser("norms", help="norm report for a radial profile")
    _add_common(n)
    n.add_argument("--profile", default="counterexample", help="counterexample or tent:h,w")
    n.add_argument("--r-max", dest="r_max", type=float, default=R_MAX, help="truncation radius")
    n.set_defaults(fn=cmd_norms)

    c = subs.add_parser("counterexample", help="dichotomy integrals and verdict")
    _add_common(c)
    c.add_argument("--r-schedule", dest="r_schedule", help="comma-separated truncation radii")
    c.set_defaults(fn=cmd_counterexample)

    s = subs.add_parser("solve", help="solve at one lambda")
    _add_common(s)
    s.add_argument("--lambda", dest="lam", type=float, help="coupling value")
    s.set_defaults(fn=cmd_solve)

    sc = subs.add_parser("scan", help="classify a lambda schedule")
    _add_common(sc)
    sc.add_argument("--lambdas", help="comma-separated lambda schedule")
    sc.set_defaults(fn=cmd_scan)

    d = subs.add_parser("diag", help="subquadraticity and gradient-check tables")
    _add_common(d)
    d.add_argument("--lambda", dest="lam", type=float, help="coupling for the gradient check")
    d.set_defaults(fn=cmd_diag)
    return ap


def main(argv=None):
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        return args.fn(args)
    except ValueError as exc:  # the CLI's checks and every library class's
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except CliCertificationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CERTIFICATION


if __name__ == "__main__":
    sys.exit(main())
