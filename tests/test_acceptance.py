"""End-to-end acceptance runs, one per headline claim, each printing a
single PASS/FAIL line with the measured quantities and its runtime.

Run with ``pytest -s tests/test_acceptance.py`` to see the lines live.
"""

import math
import time

import numpy as np

from funkball import (
    BallPoint,
    ModelParams,
    Nonlinearity,
    QuadratureConfig,
    RadialFunction,
    SolverConfig,
    WeightKappa,
    c1_c2_integrals,
    counterexample_profile,
    discrete_gradient,
    federer_fleming_check,
    j_lambda,
    minimize,
    nonexistence_threshold,
    polar_F_star,
    polar_F_star_oracle,
    solve,
    solver_nodes,
    tilde_lambda_estimate,
    w12a_norm,
)
from conftest import random_ball_point, random_profile


def report(tag, ok, detail, t0):
    line = f"[{tag}] {'PASS' if ok else 'FAIL'} ({detail}, {time.perf_counter() - t0:.2f} s)"
    print(line)
    assert ok, line


def test_counterexample_constants():
    t0 = time.perf_counter()
    c1, _ = c1_c2_integrals(1.0 - 1e-8, 2)
    err_c1 = abs(c1 - math.pi / 12.0)
    u = counterexample_profile()
    rep = w12a_norm(u, ModelParams(n=2, a=1.0), QuadratureConfig(r_max=1.0 - 1e-8))
    err_total = abs(rep.total**2 - 5.0 * math.pi / 12.0)
    elapsed = time.perf_counter() - t0
    ok = err_c1 < 1e-6 and err_total < 1e-5 and elapsed < 1.0
    report(
        "counterexample-constants",
        ok,
        f"C1 err {err_c1:.2e}, squared-norm err {err_total:.2e}",
        t0,
    )


def test_divergence_decades():
    t0 = time.perf_counter()
    radii = [1.0 - 10.0**-k for k in range(1, 10)]
    c2 = [c1_c2_integrals(R, 2)[1] for R in radii]
    per_decade = 2.0 * math.pi * math.log(10.0)
    worst = max(abs((c2[k] - c2[k - 1]) - per_decade) / per_decade for k in range(4, 9))
    monotone = all(b > a for a, b in zip(c2, c2[1:]))
    elapsed = time.perf_counter() - t0
    ok = worst < 0.05 and monotone and elapsed < 1.0
    report(
        "divergence-decades",
        ok,
        f"worst decade increment off by {100.0 * worst:.2f}%, monotone={monotone}",
        t0,
    )


def test_eikonal_identities():
    t0 = time.perf_counter()
    params = ModelParams(n=2, a=1.0)
    worst_fwd = worst_bwd = 0.0
    rng = np.random.default_rng(11)
    for r in np.linspace(0.005, 0.995, 100):
        th = rng.uniform(0.0, 2.0 * math.pi)
        x = r * np.array([math.cos(th), math.sin(th)])
        p = BallPoint(x)
        alpha = x / (r * (1.0 - r))
        fwd = polar_F_star(params, p, alpha)
        bwd = polar_F_star(params, p, -alpha)
        expect = (1.0 + r) / (1.0 - r)
        worst_fwd = max(worst_fwd, abs(fwd - 1.0))
        worst_bwd = max(worst_bwd, abs(bwd - expect) / expect)
    ok = worst_fwd < 1e-10 and worst_bwd < 1e-10
    report(
        "eikonal-identities",
        ok,
        f"max |F*(Dd)-1| {worst_fwd:.2e}, max rel err backward {worst_bwd:.2e}",
        t0,
    )


def test_polar_duality_oracle():
    t0 = time.perf_counter()
    rng = np.random.default_rng(23)
    worst = 0.0
    for k in range(100):
        n = int(rng.integers(2, 5))
        a = 0.0 if k == 0 else 1.0 if k == 1 else float(rng.uniform(0.0, 1.0))
        params = ModelParams(n=n, a=a)
        p = BallPoint(random_ball_point(rng, n, r_cap=0.9))
        alpha = rng.standard_normal(n)
        closed = polar_F_star(params, p, alpha)
        approx = polar_F_star_oracle(params, p, alpha, samples=10000)
        worst = max(worst, abs(approx - closed) / closed)
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-4 and elapsed < 10.0
    report("polar-duality", ok, f"max rel err {worst:.2e} over 100 draws", t0)


def test_sandwich_and_federer_fleming():
    t0 = time.perf_counter()
    rng = np.random.default_rng(31)
    slack = 1e-10
    violations = 0
    checked = 0
    for _ in range(100):
        u = random_profile(rng)
        for n in (2, 3, 4):
            lhs, rhs, ratio = federer_fleming_check(u, ModelParams(n=n, a=0.0))
            checked += 1
            if ratio > 1.0 + slack:
                violations += 1
            for a in (0.0, 0.2, 0.5, 0.8):
                params = ModelParams(n=n, a=a)
                rep = w12a_norm(u, params)
                lo = (1.0 - a * a) ** ((n + 1) / 4.0) / (1.0 + a)
                hi = 1.0 / (1.0 - a)
                checked += 1
                if not (
                    lo * rep.riemannian <= rep.total * (1.0 + slack)
                    and rep.total <= hi * rep.riemannian * (1.0 + slack)
                ):
                    violations += 1
    ok = violations == 0
    report(
        "sandwich-federer-fleming",
        ok,
        f"{violations} violations across {checked} inequality checks",
        t0,
    )


def test_gradient_against_finite_differences():
    t0 = time.perf_counter()
    rng = np.random.default_rng(41)
    kappa = WeightKappa.default()
    nl = Nonlinearity.default()
    cfg = SolverConfig(M=40)
    nodes = solver_nodes(cfg)
    worst = 0.0
    for a in (0.0, 0.5):
        params = ModelParams(n=3, a=a)
        for _ in range(10):
            vals = rng.standard_normal(nodes.size) * np.maximum(0.0, 1.0 - nodes)
            vals[-1] = 0.0
            u = RadialFunction.from_values(nodes, vals)
            lam = float(rng.uniform(0.5, 5.0))
            g = discrete_gradient(u, lam, params, kappa, nl)
            h = 1e-6
            fd = np.zeros(nodes.size - 1)
            for i in range(nodes.size - 1):
                vp, vm = vals.copy(), vals.copy()
                vp[i] += h
                vm[i] -= h
                fd[i] = (
                    j_lambda(RadialFunction.from_values(nodes, vp), lam, params, kappa, nl)
                    - j_lambda(RadialFunction.from_values(nodes, vm), lam, params, kappa, nl)
                ) / (2.0 * h)
            scale = float(np.max(np.abs(g[:-1])))
            worst = max(worst, float(np.max(np.abs(g[:-1] - fd))) / scale)
    ok = worst < 1e-5
    report("gradient-fd", ok, f"max rel err {worst:.2e} over 20 states", t0)


def test_below_threshold_only_zero():
    t0 = time.perf_counter()
    rng = np.random.default_rng(53)
    kappa = WeightKappa.default()
    nl = Nonlinearity.default()
    cfg = SolverConfig(M=200)
    nodes = solver_nodes(cfg)
    from funkball.elliptic_solver import _Assembly

    worst = 0.0
    fails = 0
    for a in (0.0, 0.5):
        params = ModelParams(n=3, a=a)
        asm = _Assembly(params, nodes, quad_order=cfg.quad_order)
        lam_star = nonexistence_threshold(params, nl, kappa)
        for frac in (0.1, 0.5):
            for _ in range(20):
                init = rng.standard_normal(nodes.size) * np.maximum(0.0, 1.0 - nodes)
                init *= float(rng.uniform(0.1, 5.0))
                init[-1] = 0.0
                u, J, res = minimize(frac * lam_star, params, kappa, nl, cfg, init)
                norm = asm.h12_norm(u.values)
                worst = max(worst, norm)
                if not (res < cfg.tol and norm < 1e-6):
                    fails += 1
    elapsed = time.perf_counter() - t0
    ok = fails == 0 and elapsed < 60.0
    report(
        "below-threshold",
        ok,
        f"{fails} failures over 80 runs, largest terminal norm {worst:.2e}",
        t0,
    )


def test_two_solutions_with_mesh_stability():
    t0 = time.perf_counter()
    params = ModelParams(n=3, a=0.5)
    kappa = WeightKappa.default()
    nl = Nonlinearity.default()
    cfg = SolverConfig(M=200)
    lam = 10.0 * tilde_lambda_estimate(params, kappa, nl, cfg=cfg)
    rep = solve(lam, params, kappa, nl, cfg)
    ok = rep.classification == "two" and not rep.failures
    detail = f"classification {rep.classification}"
    if ok:
        e1 = rep.solutions[0]["energy"]
        e2 = rep.solutions[1]["energy"]
        certified = all(
            s["residual"] < 1e-8 and s["min_value"] >= -1e-10 for s in rep.solutions
        )
        rep2 = solve(lam, params, kappa, nl, SolverConfig(M=400))
        stable = rep2.classification == "two" and all(
            abs(s2["energy"] - s1["energy"]) <= 0.01 * abs(s1["energy"])
            for s1, s2 in zip(rep.solutions, rep2.solutions)
        )
        drift = max(
            abs(s2["energy"] - s1["energy"]) / abs(s1["energy"])
            for s1, s2 in zip(rep.solutions, rep2.solutions)
        )
        ok = e1 < 0.0 < e2 and certified and stable
        detail = (
            f"J1 {e1:.3e} < 0 < J2 {e2:.3e}, residuals certified, "
            f"mesh-doubling drift {100.0 * drift:.3f}%"
        )
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 300.0
    report("two-solutions", ok, detail, t0)


def test_existence_suite_statement():
    # the existence theory carries no numeric tables; its acceptance rests
    # on the residual/invariant suites exercised above and in the module
    # tests, which this line records explicitly
    t0 = time.perf_counter()
    report(
        "existence-suite",
        True,
        "acceptance for the solver rests on the invariant and oracle suites",
        t0,
    )
