import copy
import dataclasses
import math
import types
from fractions import Fraction

import numpy as np
import pytest

from funkball import (
    BallPoint,
    GeometryError,
    ModelParams,
    Nonlinearity,
    RadialFunction,
    SolveReport,
    SolverConfig,
    SolverError,
    WeightKappa,
    compute_cg,
    discrete_gradient,
    energy_E,
    g_functional,
    j_lambda,
    lambda_scan,
    minimize,
    mountain_pass,
    nonexistence_threshold,
    polar_F_star,
    radial_fstar,
    solve,
    solver_nodes,
    sphere_area,
    subquadraticity_diagnostic,
    tilde_lambda_estimate,
    w12a_norm,
)
from funkball import elliptic_solver as es
from funkball.elliptic_solver import _Assembly, _tilde_search
from conftest import random_profile

FAST = SolverConfig(M=120)


def tent_values(nodes, height=1.0, width=0.4):
    v = height * np.maximum(1.0 - nodes / width, 0.0)
    v[-1] = 0.0
    return v


def _gauss_points(asm, n, q):
    """Points R of the assembly's q-point Gauss rule on each element and
    their Euclidean volume weights, built from the Gauss-Legendre rule, as
    ``(q, M)`` arrays: one row per Gauss node, one column per element."""
    gx, gw = np.polynomial.legendre.leggauss(q)
    lows = np.concatenate(([0.0], asm.nodes[:-1]))
    half = 0.5 * (asm.nodes - lows)
    R = lows + half * (gx[:, None] + 1.0)
    return R, half * gw[:, None] * sphere_area(n) * R ** (n - 1)


def _klein_weights(asm, n, q=8):
    """The Klein volume weights at the assembly's points."""
    R, base = _gauss_points(asm, n, q)
    return base * ((1.0 - R) * (1.0 + R)) ** (-0.5 * (n + 1))


def _best_tent(params, kappa, nl, cfg):
    """lambda~, the refined tent behind it and the kept assembly."""
    lam_tilde, asm, tent = _tilde_search(params, kappa, nl, cfg)
    return lam_tilde, tent, asm


# --- radial closed form ----------------------------------------------------

def test_radial_fstar_klein_case(rng):
    params = ModelParams(n=2, a=0.0)
    for _ in range(20):
        r = float(rng.uniform(0.05, 0.95))
        du = float(rng.standard_normal())
        np.testing.assert_allclose(
            radial_fstar(params, r, du), (1.0 - r * r) * abs(du), rtol=1e-14
        )


def test_radial_fstar_eikonal():
    params = ModelParams(n=3, a=1.0)
    for r in np.linspace(0.05, 0.95, 19):
        np.testing.assert_allclose(radial_fstar(params, r, 1.0 / (1.0 - r)), 1.0, rtol=1e-13)


def test_radial_fstar_zero_and_bounds():
    params = ModelParams(n=2, a=0.5)
    assert radial_fstar(params, 0.5, 0.0) == 0.0
    with pytest.raises(ValueError):
        radial_fstar(params, 1.0, 1.0)
    with pytest.raises(ValueError):
        radial_fstar(params, -0.1, 1.0)


def test_radial_fstar_matches_polar(rng):
    # covector du * x/r at x = (r, 0, ...) is just (du, 0, ...)
    for _ in range(40):
        n = int(rng.integers(2, 5))
        a = float(rng.uniform(0.0, 1.0))
        params = ModelParams(n=n, a=a)
        r = float(rng.uniform(0.05, 0.9))
        du = float(rng.standard_normal())
        x = np.zeros(n)
        x[0] = r
        alpha = np.zeros(n)
        alpha[0] = du
        np.testing.assert_allclose(
            radial_fstar(params, r, du),
            polar_F_star(params, BallPoint(x), alpha),
            atol=1e-12,
        )


@pytest.mark.parametrize("a", [0.99, 0.9999])
def test_one_minus_ar_forms_match_exact_values(a):
    # against the exact rationals of the float inputs a and r; forming
    # 1 - (a r)^2 by subtracting the rounded square is 2e3 eps off at
    # a = 0.9999, r = r_max
    eps = np.finfo(float).eps
    r_max = es.R_MAX
    A = Fraction(a)
    for r in (r_max, float(np.nextafter(r_max, 0.0)), 1.0 - 1e-5, 1.0 - 3e-4, 0.99):
        R = Fraction(r)
        down, up = es._one_minus_ar(a, r)
        assert abs(Fraction(down) - (1 - A * R)) <= 4 * eps * (1 - A * R)
        assert abs(Fraction(down * up) - (1 - A * A * R * R)) <= 4 * eps * (1 - A * A * R * R)
        params = ModelParams(n=3, a=a)
        for du, exact in ((1.0, (1 - R * R) / (1 + A * R)), (-1.0, (1 - R * R) / (1 - A * R))):
            assert abs(Fraction(radial_fstar(params, r, du)) - exact) <= 4 * eps * exact
    # the assembly's Finsler weights: w_fins / w_klein = (1 - a^2 r^2)^((n+1)/2)
    asm = _Assembly(ModelParams(n=3, a=a), solver_nodes(SolverConfig(M=48)))
    for r, wf, wk in zip(asm.R[:, -1], asm.w_fins[:, -1], _klein_weights(asm, 3)[:, -1]):
        R = Fraction(float(r))
        exact = (1 - A * A * R * R) ** 2
        assert abs(Fraction(float(wf)) / Fraction(float(wk)) - exact) <= 4 * eps * exact


# --- profiles --------------------------------------------------------------

def test_radial_function_validation():
    with pytest.raises(ValueError):
        RadialFunction.from_values([0.2, 0.5, 0.9], [1.0, 0.5, 0.1])  # end not 0
    with pytest.raises(ValueError):
        RadialFunction.from_values([0.5, 0.2, 0.9], [1.0, 0.5, 0.0])  # not increasing
    with pytest.raises(TypeError):
        RadialFunction()


def test_radial_function_evaluation():
    u = RadialFunction.from_values([0.25, 0.5, 0.95], [1.0, 0.5, 0.0])
    assert u.is_grid
    np.testing.assert_allclose(u.u(0.375), 0.75, rtol=1e-14)
    np.testing.assert_allclose(u.u(0.1), 1.0, rtol=1e-14)  # flat center
    np.testing.assert_allclose(u.du(0.1), 0.0, atol=1e-14)
    np.testing.assert_allclose(u.du(0.375), -2.0, rtol=1e-14)
    v = u.scale(2.0)
    np.testing.assert_allclose(v.values, [2.0, 1.0, 0.0])
    w = -u
    np.testing.assert_allclose(w.values, [-1.0, -0.5, 0.0])


def test_closed_form_profile_needs_its_derivative():
    with pytest.raises(TypeError):
        RadialFunction.from_callables(lambda r: 1.0 - np.asarray(r))


# --- energy and potential --------------------------------------------------

def test_zero_profile_functionals():
    params = ModelParams(n=3, a=0.5)
    nodes = solver_nodes(FAST)
    u = RadialFunction.from_values(nodes, np.zeros_like(nodes))
    assert energy_E(u, params) == 0.0
    assert g_functional(u, params, WeightKappa.default(), Nonlinearity.default()) == 0.0
    assert j_lambda(u, 2.0, params, WeightKappa.default(), Nonlinearity.default()) == 0.0


def test_energy_rejects_funk_endpoint():
    nodes = solver_nodes(FAST)
    u = RadialFunction.from_values(nodes, tent_values(nodes))
    with pytest.raises(GeometryError):
        energy_E(u, ModelParams(n=2, a=1.0))


def test_energy_scaling_quadratic(rng):
    params = ModelParams(n=3, a=0.5)
    nodes = solver_nodes(FAST)
    u = RadialFunction.from_values(nodes, tent_values(nodes))
    E = energy_E(u, params)
    for t in (0.5, 2.0, 7.0):
        np.testing.assert_allclose(energy_E(u.scale(t), params), t * t * E, rtol=1e-12)


def test_energy_negation_bounded_by_reversibility():
    params = ModelParams(n=3, a=0.5)
    nodes = solver_nodes(FAST)
    u = RadialFunction.from_values(nodes, tent_values(nodes))
    E = energy_E(u, params)
    En = energy_E(-u, params)
    assert abs(En - E) > 1e-3 * E  # genuinely asymmetric
    rev2 = ((1.0 + params.a) / (1.0 - params.a)) ** 2
    assert En <= rev2 * E * (1.0 + 1e-12)


def test_energy_klein_case_is_gradient_norm(rng):
    params = ModelParams(n=2, a=0.0)
    for _ in range(5):
        u = random_profile(rng)
        rep = w12a_norm(u, params, 1.0 - 1e-9)
        np.testing.assert_allclose(
            energy_E(u, params), rep.klein_gradient**2, rtol=1e-10
        )


def test_energy_legendre_route_identity(rng):
    # du * J*(du x/r) = F*^2(du x/r) pointwise, so the energy assembled
    # through the Legendre pairing matches the direct route
    from funkball import legendre_gradient, radial_integral

    params = ModelParams(n=3, a=0.7)
    u = random_profile(rng)

    def paired_density(r):
        r = np.atleast_1d(np.asarray(r, dtype=float))
        out = np.empty_like(r)
        for i, ri in enumerate(r):
            x = np.zeros(3)
            x[0] = ri
            alpha = np.zeros(3)
            alpha[0] = float(u.du(ri))
            grad = legendre_gradient(params, BallPoint(x), alpha)
            out[i] = float(alpha @ grad)
        return out

    direct = energy_E(u, params)
    paired = radial_integral(paired_density, params, "finsler_a", 1.0 - 1e-9)
    np.testing.assert_allclose(paired, direct, rtol=1e-10)


def test_grid_and_callable_energy_agree():
    params = ModelParams(n=3, a=0.4)
    nodes = solver_nodes(SolverConfig(M=800))
    vals = tent_values(nodes, height=2.0, width=0.5)
    grid_u = RadialFunction.from_values(nodes, vals)
    smooth_u = RadialFunction.from_callables(
        lambda r: 2.0 * np.maximum(1.0 - np.asarray(r) / 0.5, 0.0),
        lambda r: np.where(np.asarray(r) < 0.5, -4.0, 0.0),
    )
    # P1 interpolation of the tent is exact away from the kink node
    np.testing.assert_allclose(
        energy_E(grid_u, params), energy_E(smooth_u, params), rtol=1e-3
    )


# --- discrete gradient -----------------------------------------------------

def test_gradient_zero_at_zero_profile():
    params = ModelParams(n=3, a=0.5)
    nodes = solver_nodes(FAST)
    u = RadialFunction.from_values(nodes, np.zeros_like(nodes))
    g = discrete_gradient(u, 5.0, params, WeightKappa.default(), Nonlinearity.default())
    assert np.all(g == 0.0)


def test_gradient_matches_finite_differences(rng):
    params = ModelParams(n=3, a=0.5)
    kappa = WeightKappa.default()
    nl = Nonlinearity.default()
    cfg = SolverConfig(M=40)
    nodes = solver_nodes(cfg)
    lam = 1.0
    for _ in range(3):
        vals = rng.standard_normal(nodes.size) * np.maximum(0.0, 1.0 - nodes)
        vals[-1] = 0.0
        u = RadialFunction.from_values(nodes, vals)
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
        scale = np.max(np.abs(g[:-1])) or 1.0
        np.testing.assert_allclose(g[:-1], fd, atol=1e-5 * scale)


def test_gradient_klein_case_against_independent_assembly(rng):
    # separately coded P1 Riemannian assembly at a=0: stiffness with
    # (1-r^2)^2 against the Klein volume minus the weighted g load
    from numpy.polynomial.legendre import leggauss

    n = 3
    params = ModelParams(n=n, a=0.0)
    kappa = WeightKappa.default()
    nl = Nonlinearity.default()
    cfg = SolverConfig(M=60)
    nodes = solver_nodes(cfg)
    vals = np.sin(2.0 * nodes) * (1.0 - nodes)
    vals[-1] = 0.0
    lam = 3.0

    tq, wq = leggauss(cfg.quad_order)
    area = sphere_area(n)
    edges = np.concatenate([[0.0], nodes])
    vfull = np.concatenate([[vals[0]], vals])
    grad = np.zeros(nodes.size)
    for e in range(edges.size - 1):
        rl, rr = edges[e], edges[e + 1]
        h = rr - rl
        r = 0.5 * (rl + rr) + 0.5 * h * tq
        w = 0.5 * h * wq
        meas = area * w * r ** (n - 1) * (1.0 - r * r) ** (-0.5 * (n + 1))
        if e == 0:
            # flat center element: no flux, load goes to the first node
            uq = np.full_like(r, vfull[1])
            grad[0] -= lam * float(np.sum(meas * kappa.kappa(r) * nl.g(uq)))
            continue
        du = (vfull[e + 1] - vfull[e]) / h
        uq = vfull[e] + du * (r - rl)
        flux = float(np.sum(meas * (1.0 - r * r) ** 2 * du))
        load = meas * kappa.kappa(r) * nl.g(uq)
        il, ir = e - 1, e
        grad[il] -= flux / h
        grad[ir] += flux / h
        grad[il] -= lam * float(np.sum(load * (rr - r) / h))
        grad[ir] -= lam * float(np.sum(load * (r - rl) / h))
    grad[-1] = 0.0

    u = RadialFunction.from_values(nodes, vals)
    got = discrete_gradient(u, lam, params, kappa, nl)
    np.testing.assert_allclose(got, grad, atol=1e-10 * max(1.0, np.max(np.abs(grad))))


# --- nonlinearity and thresholds ------------------------------------------

def test_compute_cg_default_closed_form():
    nl = Nonlinearity.default()
    s_star = 2.0 ** (2.0 / 3.0)
    assert nl.c_g == pytest.approx(s_star / (1.0 + s_star**1.5), rel=1e-15)
    assert abs(compute_cg(nl) - 2.0 ** (2.0 / 3.0) / 3.0) < 1e-8


def test_default_nonlinearity_matches_power_forms():
    # g, G and dg take s^(3/2) as s * sqrt(s); compare with the pow forms
    nl = Nonlinearity.default()
    s = np.geomspace(1e-8, 1e12, 4001)
    s15 = s**1.5
    np.testing.assert_allclose(nl.g(s), s * s / (1.0 + s15), rtol=1e-13)
    np.testing.assert_allclose(nl.G(s), (2.0 / 3.0) * (s15 - np.log1p(s15)), rtol=1e-13)
    np.testing.assert_allclose(
        nl.dg(s), (2.0 * s + 0.5 * s**2.5) / (1.0 + s15) ** 2, rtol=1e-13
    )


def _masked_kernels():
    """The default kernels as formerly written, masked by np.where: the
    oracle for the fmax forms."""

    def positive_part(s):
        s = np.asarray(s, dtype=float)
        return s, np.maximum(s, 0.0)

    def g(s):
        s, sp = positive_part(s)
        return np.where(s > 0.0, sp * sp / (1.0 + sp * np.sqrt(sp)), 0.0)

    def G(s):
        s, sp = positive_part(s)
        sp = sp * np.sqrt(sp)
        return np.where(s > 0.0, (2.0 / 3.0) * (sp - np.log1p(sp)), 0.0)

    def dg(s):
        s, sp = positive_part(s)
        root = np.sqrt(sp)
        return np.where(
            s > 0.0, (2.0 * sp + 0.5 * sp * sp * root) / (1.0 + sp * root) ** 2, 0.0
        )

    return {"g": g, "G": G, "dg": dg}


def test_default_kernels_match_masked_forms_bit_for_bit(rng):
    nl = Nonlinearity.default()
    special = np.array(
        [-1.0, -0.0, 0.0, 5e-324, 1e-300, 1e-8, 1.0, 1e12, np.inf, -np.inf, np.nan]
    )
    # SIMD lanes and scalar tails treat -0.0 differently, so every special
    # value is also placed at every offset of a long array
    s = np.concatenate(
        (np.tile(special, 8), 10.0 * rng.standard_normal(500), np.exp(rng.uniform(-60, 60, 500)))
    )
    with np.errstate(all="ignore"):
        for name, oracle in _masked_kernels().items():
            kernel = getattr(nl, name)
            for start in range(special.size):
                got, want = kernel(s[start:]), oracle(s[start:])
                np.testing.assert_array_equal(got.view(np.int64), want.view(np.int64), err_msg=name)
            for x in special:
                got, want = np.asarray(kernel(x)), np.asarray(oracle(x))
                assert got.view(np.int64) == want.view(np.int64), (name, x)


#: stand-in G and dg for the validator tests, which reject g itself
STAND_INS = dict(G=np.zeros_like, dg=np.zeros_like)


def test_nonlinearity_validator_rejects_non_sublinear():
    with pytest.raises(ValueError):
        Nonlinearity(g=lambda s: np.where(s > 0.0, s * np.exp(-s), 0.0), **STAND_INS)


def test_nonlinearity_must_vanish_on_negative_axis():
    with pytest.raises(ValueError):
        Nonlinearity(
            g=lambda s: np.asarray(s, dtype=float) ** 2 / (1.0 + np.abs(s) ** 1.5), **STAND_INS
        )


@pytest.mark.parametrize("missing", [("G",), ("dg",), ("G", "dg")])
def test_nonlinearity_requires_its_primitive_and_derivative(missing):
    # G and dg are closed forms the caller brings; neither is derived from g
    ref = Nonlinearity.default()
    forms = {name: getattr(ref, name) for name in ("g", "G", "dg") if name not in missing}
    with pytest.raises(TypeError):
        Nonlinearity(**forms)


def _doubled(base):
    """The nonlinearity 2 g of ``base`` with doubled closed forms; c_g is computed."""
    return Nonlinearity(
        g=lambda s: 2.0 * base.g(s), G=lambda s: 2.0 * base.G(s), dg=lambda s: 2.0 * base.dg(s)
    )


def test_cg_scales_linearly():
    base = Nonlinearity.default()
    np.testing.assert_allclose(_doubled(base).c_g, 2.0 * base.c_g, rtol=1e-7)


def test_threshold_reference_values():
    unit_nl = types.SimpleNamespace(c_g=1.0)
    unit_kappa = types.SimpleNamespace(sup_norm=1.0)
    assert nonexistence_threshold(ModelParams(n=3, a=0.0), unit_nl, unit_kappa) == pytest.approx(1.0)
    got = nonexistence_threshold(ModelParams(n=3, a=0.5), unit_nl, unit_kappa)
    assert got == pytest.approx(0.25, rel=1e-14)
    # vanishes toward the Funk endpoint
    near = nonexistence_threshold(ModelParams(n=3, a=0.999), unit_nl, unit_kappa)
    assert near < 1e-4


def test_weight_kappa_validation():
    with pytest.raises(ValueError):
        WeightKappa(kappa=lambda r: -np.ones_like(np.asarray(r, dtype=float)))
    with pytest.raises(ValueError):
        WeightKappa(kappa=lambda r: np.zeros_like(np.asarray(r, dtype=float)))
    bump = WeightKappa.default(radius=0.5)
    np.testing.assert_allclose(bump.sup_norm, math.exp(-4.0), rtol=1e-12)
    for radius in (0.0, -0.5, 1.0, 1.5, math.nan):
        with pytest.raises(ValueError, match=r"the weight radius must lie in \(0, 1\)"):
            WeightKappa.default(radius)


@pytest.mark.parametrize(
    "field, value, message",
    [
        ("max_iter", 0, "max_iter must be at least 1"),
    ],
)
def test_solver_config_rejects_bad_iteration_knobs(field, value, message):
    with pytest.raises(ValueError, match=message):
        SolverConfig(**{field: value})
    SolverConfig(**{field: value + 1})  # the smallest accepted value


def test_solver_tolerance_is_a_class_constant():
    # every solve certifies against one residual tolerance, which is no field
    assert [f.name for f in dataclasses.fields(SolverConfig)] == ["M", "max_iter"]
    assert SolverConfig.tol == SolverConfig(M=120).tol == 1e-8
    with pytest.raises(TypeError):
        SolverConfig(tol=1e-6)


def test_scalar_only_weight_is_sampled_per_entry():
    # math.exp raises TypeError on an array, so the weight is called per entry
    scalar = WeightKappa(kappa=lambda r: math.exp(-r))
    vector = WeightKappa(kappa=lambda r: np.exp(-np.asarray(r, dtype=float)))
    assert scalar.sup_norm == 1.0
    r = np.linspace(0.0, 0.9, 7)
    np.testing.assert_allclose(scalar.kappa(r), vector.kappa(r), rtol=1e-15)
    params, nl = ModelParams(n=3, a=0.5), Nonlinearity.default()
    u = RadialFunction.from_values(solver_nodes(FAST), tent_values(solver_nodes(FAST)))
    np.testing.assert_allclose(
        g_functional(u, params, scalar, nl),
        g_functional(u, params, vector, nl),
        rtol=1e-14,
    )


def test_branching_scalar_nonlinearity_is_sampled_per_entry():
    # `if s > 0` raises ValueError on an array, so g, G and dg are called
    # per entry
    def g(s):
        if s > 0:
            return s * s / (1.0 + s**1.5)
        return 0.0

    def G(s):
        if s > 0:
            return 2.0 / 3.0 * (s**1.5 - math.log1p(s**1.5))
        return 0.0

    def dg(s):
        if s > 0:
            return (2.0 * s + 0.5 * s**2.5) / (1.0 + s**1.5) ** 2
        return 0.0

    nl, ref = Nonlinearity(g=g, G=G, dg=dg), Nonlinearity.default()
    s = np.array([-1.0, 0.0, 0.5, 2.0, 1e3])
    for name in ("g", "G", "dg"):
        np.testing.assert_allclose(getattr(nl, name)(s), getattr(ref, name)(s), rtol=1e-14)
    assert nl.c_g == pytest.approx(ref.c_g, rel=1e-12)


def test_default_primitive_matches_panel_quadrature_of_g():
    # G(b) - G(a) against 16-point Gauss-Legendre on each of 400 log-spaced
    # intervals from 1e-8 to 1e12, about 12 % wide
    ref = Nonlinearity.default()
    breaks = np.geomspace(1e-8, 1e12, 401)
    gx, gw = np.polynomial.legendre.leggauss(16)
    lo, hi = breaks[:-1, None], breaks[1:, None]
    half = 0.5 * (hi - lo)
    quad = (half * gw * ref.g(lo + half * (gx + 1.0))).sum(axis=1)
    # G(s) = (2/3)(s^1.5 - log1p(s^1.5)) cancels to s^3/3 for small s: its
    # rounding is that of s^1.5, a few eps s^1.5
    slack = 4.0 * np.finfo(float).eps * breaks[1:] ** 1.5
    err = np.abs(ref.G(breaks[1:]) - ref.G(breaks[:-1]) - quad)
    assert np.all(err <= 1e-13 * quad + slack)


def test_default_derivative_matches_central_differences_of_g():
    ref = Nonlinearity.default()
    s = np.geomspace(1e-8, 1e12, 401)
    h = 1e-5 * s
    fd = (ref.g(s + h) - ref.g(s - h)) / (2.0 * h)
    np.testing.assert_allclose(ref.dg(s), fd, rtol=1e-8)


# --- onset estimate --------------------------------------------------------

def test_tilde_estimate_finite_positive():
    params = ModelParams(n=3, a=0.5)
    est = tilde_lambda_estimate(params, WeightKappa.default(), Nonlinearity.default(), cfg=FAST)
    assert math.isfinite(est) and est > 0.0


def test_tilde_estimate_halves_when_kappa_doubles():
    params = ModelParams(n=3, a=0.5)
    nl = Nonlinearity.default()
    base_kappa = WeightKappa.default()
    twice = WeightKappa(kappa=lambda r: 2.0 * base_kappa.kappa(r))
    a = tilde_lambda_estimate(params, base_kappa, nl, cfg=FAST)
    b = tilde_lambda_estimate(params, twice, nl, cfg=FAST)
    np.testing.assert_allclose(b, 0.5 * a, rtol=1e-9)


def test_tilde_best_trial_has_positive_potential():
    params = ModelParams(n=3, a=0.5)
    kappa = WeightKappa.default()
    nl = Nonlinearity.default()
    ratio, best_vec, asm = _best_tent(params, kappa, nl, FAST)
    assert asm.g_int(best_vec, kappa, nl) > 0.0
    assert math.isfinite(ratio) and ratio > 0.0


def _counting(monkeypatch, names):
    """Count the calls of the named _Assembly kernels."""
    calls = {name: 0 for name in names}
    for name in names:
        kernel = getattr(_Assembly, name)

        def counted(self, *args, _name=name, _kernel=kernel, **kwargs):
            calls[_name] += 1
            return _kernel(self, *args, **kwargs)

        monkeypatch.setattr(_Assembly, name, counted)
    return calls


def test_tilde_search_assembles_each_width_once(monkeypatch):
    # one energy per width plus the chosen width again; the heights are
    # scored through the point values, never through g_int
    calls = _counting(monkeypatch, ("energy", "g_int"))
    _tilde_search(ModelParams(n=3, a=0.5), WeightKappa.default(), Nonlinearity.default(), FAST)
    assert calls["energy"] <= 12
    assert calls["g_int"] == 0


def test_tilde_search_scores_the_grid_on_the_rough_rule(monkeypatch):
    # the 2-point rule scores all 250 cells; full order rescores 3 heights
    # per width (30) and runs the golden refinement (53 probes), against
    # 303 full-order potentials when every cell was scored at full order
    calls = {}
    potential = _Assembly._potential

    def counted(self, *args):
        order = self.R.shape[0]
        calls[order] = calls.get(order, 0) + 1
        return potential(self, *args)

    monkeypatch.setattr(_Assembly, "_potential", counted)
    _tilde_search(ModelParams(n=3, a=0.5), WeightKappa.default(), Nonlinearity.default(), FAST)
    assert calls[2] == 250
    assert calls[FAST.quad_order] <= 90


def _scored_tilde_search(params, kappa, nl, cfg):
    """The tent search that scores every (height, width) tent by its own
    energy and potential: (lambda~, grid height, grid width)."""
    asm = _Assembly(params, solver_nodes(cfg), quad_order=cfg.quad_order)

    def onset_ratio(h, w):
        v = tent_values(asm.nodes, h, w)
        E, G = asm.energy(v), asm.g_int(v, kappa, nl)
        return E / (2.0 * G) if G > 0.0 else math.inf

    tents = [(h, w) for w in np.linspace(0.15, 0.8, 10) for h in np.geomspace(1e-2, 1e2, 25)]
    ratios = [onset_ratio(h, w) for h, w in tents]
    k = int(np.argmin(ratios))  # the first minimum
    h0, w0 = tents[k]

    def neg_ratio(log_h):
        return -onset_ratio(math.exp(log_h), w0)

    _, neg_rat, _ = es._golden_max(
        neg_ratio, math.log(h0 / 3.0), math.log(h0 * 3.0), tol=1e-10, max_iter=60
    )
    return min(-neg_rat, ratios[k]), h0, w0


_TENT_WEIGHTS = {
    "bump0.5": WeightKappa.default(0.5),
    "bump0.3": WeightKappa.default(0.3),
    "exp": WeightKappa(kappa=lambda r: np.exp(-np.asarray(r))),
}
# (n, a, weight, mesh); at M = 16 and n = 10 the cell that wins on the
# 2-point rule is not the full-order winner (lambda~ 315727, 379822 and
# 394514 against 315107, 365374 and 377331), so these cases need the rescoring
_TENT_CASES = [(n, a, w, FAST) for n in (2, 3, 10) for a in (0.0, 0.5, 0.99) for w in _TENT_WEIGHTS]
_TENT_CASES += [(10, a, "bump0.5", SolverConfig(M=16)) for a in (0.5, 0.9, 0.99)]


@pytest.mark.parametrize(
    "n, a, weight, cfg",
    _TENT_CASES,
    ids=[f"{n}-{a}-{w}" + ("" if cfg is FAST else f"-M{cfg.M}") for n, a, w, cfg in _TENT_CASES],
)
def test_tilde_search_matches_per_tent_scoring(monkeypatch, n, a, weight, cfg):
    params, kappa, nl = ModelParams(n=n, a=a), _TENT_WEIGHTS[weight], Nonlinearity.default()
    ref, h_ref, w_ref = _scored_tilde_search(params, kappa, nl, cfg)
    brackets = []
    golden = es._golden_max

    def recording(fn, lo, hi, **kwargs):
        brackets.append((lo, hi))
        return golden(fn, lo, hi, **kwargs)

    monkeypatch.setattr(es, "_golden_max", recording)
    lam_tilde, trial, asm = _best_tent(params, kappa, nl, cfg)
    # the bracket is centred on the grid height in log scale
    (lo, hi), = brackets
    np.testing.assert_allclose(math.exp(0.5 * (lo + hi)), h_ref, rtol=1e-12)
    # a tent's shape trial / trial[0] depends on its width only
    shape = tent_values(asm.nodes, 1.0, w_ref)
    np.testing.assert_allclose(trial / trial[0], shape / shape[0], rtol=1e-12, atol=1e-12)
    np.testing.assert_allclose(lam_tilde, ref, rtol=1e-12)


def test_tilde_search_rescores_every_height_the_rough_rule_cannot_see():
    # a weight on the middle of one element, between the 2-point rule's
    # points: no width has a finite rough ratio, so each is rescored in full
    nodes = solver_nodes(FAST)
    lo, hi = nodes[40] + 0.3 * (nodes[41] - nodes[40]), nodes[40] + 0.7 * (nodes[41] - nodes[40])

    def band(r):
        r = np.asarray(r, dtype=float)
        return ((lo < r) & (r < hi)).astype(float)

    params, nl = ModelParams(n=3, a=0.5), Nonlinearity.default()
    kappa = WeightKappa(kappa=band)
    ref, _, _ = _scored_tilde_search(params, kappa, nl, FAST)
    assert _tilde_search(params, kappa, nl, FAST)[0] == pytest.approx(ref, rel=1e-12)


def test_tilde_estimate_signals_incompatible_weight():
    # weight supported where every tent (widths up to 0.8) stays flat at 0
    params = ModelParams(n=3, a=0.5)
    nl = Nonlinearity.default()

    def outer_band(r):
        r = np.asarray(r, dtype=float)
        return ((0.85 < r) & (r < 0.95)).astype(float)

    with pytest.raises(SolverError):
        tilde_lambda_estimate(params, WeightKappa(kappa=outer_band), nl, cfg=FAST)


def test_tilde_estimate_samples_closed_form_trial():
    # a closed-form profile is sampled at the solver nodes
    params = ModelParams(n=3, a=0.5)
    kappa, nl = WeightKappa.default(), Nonlinearity.default()
    closed = RadialFunction.from_callables(
        lambda r: np.maximum(1.0 - np.asarray(r) / 0.4, 0.0),
        lambda r: np.where(np.asarray(r) < 0.4, -1.0 / 0.4, 0.0),
    )
    grid = tent_values(solver_nodes(FAST))
    table = subquadraticity_diagnostic(closed, params, kappa, nl, cfg=FAST)
    assert np.array_equal(table, subquadraticity_diagnostic(grid, params, kappa, nl, cfg=FAST))


def test_tilde_estimate_pins_raw_trial():
    # a raw vector of nodal values has its boundary entry pinned to 0
    params = ModelParams(n=3, a=0.5)
    kappa, nl = WeightKappa.default(), Nonlinearity.default()
    cfg = SolverConfig(M=64)
    pinned = tent_values(solver_nodes(cfg))
    unpinned = pinned.copy()
    unpinned[-1] = 1.0
    table = subquadraticity_diagnostic(unpinned, params, kappa, nl, cfg=cfg)
    assert np.array_equal(table, subquadraticity_diagnostic(pinned, params, kappa, nl, cfg=cfg))


# --- minimization and mountain pass ---------------------------------------

def test_minimize_at_lambda_zero(rng):
    params = ModelParams(n=3, a=0.5)
    nodes = solver_nodes(FAST)
    init = rng.standard_normal(nodes.size) * 0.1
    init[-1] = 0.0
    u, J, res = minimize(0.0, params, WeightKappa.default(), Nonlinearity.default(), FAST, init)
    assert res < FAST.tol
    assert np.max(np.abs(u.values)) < 1e-8
    assert abs(J) < 1e-16


def test_minimize_below_threshold_collapses(rng):
    params = ModelParams(n=3, a=0.5)
    kappa = WeightKappa.default()
    nl = Nonlinearity.default()
    lam_star = nonexistence_threshold(params, nl, kappa)
    asm = _Assembly(params, solver_nodes(FAST), quad_order=FAST.quad_order)
    for _ in range(5):
        init = np.abs(rng.standard_normal(asm.M)) * 0.5
        init[-1] = 0.0
        u, J, res = minimize(0.5 * lam_star, params, kappa, nl, FAST, init)
        assert res < FAST.tol
        assert asm.h12_norm(u.values) < 1e-6


def test_minimize_negative_energy_above_onset():
    params = ModelParams(n=3, a=0.5)
    kappa = WeightKappa.default()
    nl = Nonlinearity.default()
    lam = 10.0 * tilde_lambda_estimate(params, kappa, nl, cfg=FAST)
    ratio, best_vec, _ = _best_tent(params, kappa, nl, FAST)
    u, J, res = minimize(lam, params, kappa, nl, FAST, best_vec)
    assert res < FAST.tol
    assert J < 0.0


def test_mountain_pass_needs_nonzero_target():
    params = ModelParams(n=3, a=0.5)
    nodes = solver_nodes(FAST)
    flat = RadialFunction.from_values(nodes, np.zeros_like(nodes))
    with pytest.raises(SolverError, match="nonzero target"):
        mountain_pass(1.0, params, WeightKappa.default(), Nonlinearity.default(), flat, FAST)


def test_mountain_pass_saddle_above_zero():
    params = ModelParams(n=3, a=0.5)
    kappa = WeightKappa.default()
    nl = Nonlinearity.default()
    lam = 10.0 * tilde_lambda_estimate(params, kappa, nl, cfg=FAST)
    ratio, best_vec, asm = _best_tent(params, kappa, nl, FAST)
    u1, J1, res1 = minimize(lam, params, kappa, nl, FAST, best_vec)
    assert J1 < 0.0
    u2, J2, res2 = mountain_pass(lam, params, kappa, nl, u1, FAST)
    assert J2 > 0.0 > J1
    assert res2 < FAST.tol
    assert np.min(u2.values) >= -1e-10
    assert es.morse_index(asm.hessian_banded(u2.values, lam, kappa, nl)) == 1
    diff = u1.values - u2.values
    assert asm.h12_norm(diff) > 1e-4


def test_mountain_pass_rejects_a_candidate_of_index_0(monkeypatch):
    # the minimizer itself fed to the saddle check: Newton from the ray's
    # t = 1 takes no step, and the certificate names the index and the energy
    params, kappa, nl = ModelParams(n=3, a=0.5), WeightKappa.default(), Nonlinearity.default()
    lam_tilde, best_vec, asm = _best_tent(params, kappa, nl, FAST)
    lam = 10.0 * lam_tilde
    u1, J1, res1 = minimize(lam, params, kappa, nl, FAST, best_vec)
    assert res1 < FAST.tol
    assert es.morse_index(asm.hessian_banded(u1.values, lam, kappa, nl)) == 0
    monkeypatch.setattr(es, "_ray_barrier", lambda *args: (1.0, J1))
    with pytest.raises(SolverError) as info:
        mountain_pass(lam, params, kappa, nl, u1, FAST)
    message = str(info.value)
    assert message.startswith("mountain-pass candidate failed certification (")
    assert "Morse index 0, not 1" in message
    assert f"energy {J1:.3e} not above 0.000e+00" in message
    assert "residual" not in message and "min " not in message


def test_mountain_pass_rejects_a_candidate_of_index_3(monkeypatch):
    # a point on the ray past the barrier, where the Hessian has three
    # negative eigenvalues, passed off as a critical point: the residual and
    # the least value pass, and the certificate names the index
    params, kappa, nl = ModelParams(n=3, a=0.5), WeightKappa.default(), Nonlinearity.default()
    lam_tilde, best_vec, asm = _best_tent(params, kappa, nl, FAST)
    lam = 10.0 * lam_tilde
    u1, _, _ = minimize(lam, params, kappa, nl, FAST, best_vec)
    assert es.morse_index(asm.hessian_banded(1e-3 * u1.values, lam, kappa, nl)) == 3
    monkeypatch.setattr(es, "_ray_barrier", lambda *args: (1e-3, 0.0))
    monkeypatch.setattr(es, "_newton_refine", lambda asm, u, *args: (u, 0.0, 0))
    with pytest.raises(SolverError) as info:
        mountain_pass(lam, params, kappa, nl, u1, FAST)
    message = str(info.value)
    assert "Morse index 3, not 1" in message
    assert "residual" not in message and "min " not in message


def test_morse_index_counts_the_negative_eigenvalues(rng):
    for m in (1, 2, 5, 40, 300):
        for shift in (0.0, -1.5, -3.0, -4.0):
            diag, off = _seeded_band(rng, m, shift)
            dense = np.diag(diag) + np.diag(off, 1) + np.diag(off, -1)
            expected = int(np.sum(np.linalg.eigvalsh(dense) < 0.0))
            assert es.morse_index((diag, off)) == expected
    # an exact zero pivot is a Sturm count's smallest positive pivot
    assert es.morse_index((np.array([0.0, 0.0]), np.array([1.0]))) == 1
    assert es.morse_index((np.array([0.0, 1.0]), np.array([0.0]))) == 0


def test_full_support_saddle_energy_calls_capped(monkeypatch):
    # exp(-r) at (3, 0.99), 10 lambda~: Newton from the ray's barrier
    # certifies the saddle; the path relaxation before it ran out its 4000
    # sweeps here at M = 200.  The tent search is warm, so the count is the
    # solve's: J along 8 descents, the barrier scan and its golden section
    params, nl = ModelParams(n=3, a=0.99), Nonlinearity.default()
    kappa = WeightKappa(kappa=lambda r: np.exp(-np.asarray(r, dtype=float)))
    lam = 10.0 * tilde_lambda_estimate(params, kappa, nl, cfg=FAST)
    calls = []
    energy = _Assembly.energy

    def counting(self, *args, **kwargs):
        calls.append(None)
        return energy(self, *args, **kwargs)

    monkeypatch.setattr(_Assembly, "energy", counting)
    report = solve(lam, params, kappa, nl, FAST)
    assert report.classification == "two"
    assert [s["morse_index"] for s in report.solutions] == [0, 1]
    assert len(calls) <= 100  # 65 on this setup


@pytest.mark.parametrize("multiple", [10.0, 100.0])
def test_ray_barrier_matches_per_point_energies(multiple):
    # the barrier scan evaluates the energy once, through E(t v) = t^2 E(v),
    # and finds the first local maximum of the per-point J on its grid
    params = ModelParams(n=3, a=0.5)
    kappa = WeightKappa.default()
    nl = Nonlinearity.default()
    lam_tilde, best_vec, asm = _best_tent(params, kappa, nl, FAST)
    u1, _, _ = minimize(10.0 * lam_tilde, params, kappa, nl, FAST, best_vec)
    lam = multiple * lam_tilde
    target = (multiple / 10.0) ** 2 * u1.values  # amplitudes grow like lambda^2
    assert asm.j_lambda(target, lam, kappa, nl) < 0.0
    t_peak, J_peak = es._ray_barrier(asm, target, lam, kappa, nl)
    ts = np.exp(np.linspace(math.log(1e-12), math.log(1e12), 600))
    Js = np.array([asm.j_lambda(t * target, lam, kappa, nl) for t in ts])
    k = int(np.flatnonzero(Js[1:] < Js[:-1])[0])  # the first grid point above its right one
    assert ts[k] < 1.0
    assert ts[k - 1] < t_peak < ts[k + 1]
    assert J_peak > 0.0
    assert J_peak >= Js[k] * (1.0 - 1e-13)
    assert J_peak == pytest.approx(asm.j_lambda(t_peak * target, lam, kappa, nl), rel=1e-13)


def test_ray_barrier_needs_a_fall_below_the_target():
    # J(t v) of a profile below the onset only rises: no barrier below t = 1
    params, kappa, nl = ModelParams(n=3, a=0.5), WeightKappa.default(), Nonlinearity.default()
    _, best_vec, asm = _best_tent(params, kappa, nl, FAST)
    lam = 0.5 * nonexistence_threshold(params, nl, kappa)
    with pytest.raises(SolverError, match="no barrier on the ray below the target"):
        es._ray_barrier(asm, best_vec, lam, kappa, nl)


# --- full pipeline ---------------------------------------------------------

def test_solve_classifies_zero_coupling():
    report = solve(0.0, ModelParams(n=3, a=0.5), cfg=FAST)
    assert report.classification == "only-zero"
    assert report.solutions == ()


def _keyed_grads(monkeypatch):
    """Count the _Assembly.grad calls on each vector, keyed by its bytes."""
    seen = {}
    grad = _Assembly.grad

    def keyed(self, u, *args):
        seen[u.tobytes()] = seen.get(u.tobytes(), 0) + 1
        return grad(self, u, *args)

    monkeypatch.setattr(_Assembly, "grad", keyed)
    return seen


def _descents(lam, params, kappa, nl, cfg=FAST):
    """The kept assembly and the ends (u, J, residual, iterations) of the
    five descents of ``solve``, run directly: ``_minimize_vec`` from each
    multiple of the refined tent in ``es._STARTS``."""
    _, asm, tent = _tilde_search(params, kappa, nl, cfg)
    return asm, [es._minimize_vec(asm, lam, kappa, nl, cfg, t * tent) for t in es._STARTS]


def _all_at_zero(asm, ends, cfg=FAST):
    """Whether every descent converged and none is a candidate minimizer
    (H^1_2 norm at least 1e-6 and a positive value): the ends from which
    ``solve`` answers only-zero with no failure."""
    return all(
        res < cfg.tol and not (asm.h12_norm(u) >= 1e-6 and u.max() > 0.0)
        for u, _, res, _ in ends
    )


def _below_threshold():
    params, kappa, nl = ModelParams(n=3, a=0.5), WeightKappa.default(), Nonlinearity.default()
    return 0.5 * nonexistence_threshold(params, nl, kappa), params, kappa, nl


def test_solve_below_threshold_solves_one_riesz_system_per_gradient(monkeypatch):
    # each iterate's residual takes one Riesz solve, and the shifted-Newton
    # direction takes none; solve certifies this lambda without descending,
    # so the five descents run directly
    lam, params, kappa, nl = _below_threshold()
    calls = _counting(monkeypatch, ("grad", "riesz"))
    assert _all_at_zero(*_descents(lam, params, kappa, nl))
    assert calls["grad"] > 0
    assert calls["riesz"] == calls["grad"]
    # the shifted-Newton direction takes 26 gradients here; the Riesz
    # direction alone took 127
    assert calls["grad"] <= 40


def test_solve_below_threshold_evaluates_each_gradient_once(monkeypatch):
    # the Newton polish takes the gradient and residual that the descent
    # already holds
    lam, params, kappa, nl = _below_threshold()
    seen = _keyed_grads(monkeypatch)
    assert _all_at_zero(*_descents(lam, params, kappa, nl))
    assert seen and max(seen.values()) == 1


def test_solve_certifies_every_start_at_25_lambda_tilde_without_repeating_a_gradient(monkeypatch):
    # a residual-driven Newton switch inside the descent walked one start
    # here into a failed polish, and repeating that polish from the same
    # iterate until max_iter evaluated one vector 399 times
    params, kappa, nl = ModelParams(n=3, a=0.5), WeightKappa.default(), Nonlinearity.default()
    cfg = SolverConfig(M=160)
    lam = 25.0 * tilde_lambda_estimate(params, kappa, nl, cfg=cfg)
    seen = _keyed_grads(monkeypatch)
    report = solve(lam, params, kappa, nl, cfg)
    assert report.classification == "two"
    assert report.failures == ()
    assert seen and max(seen.values()) == 1


def test_solve_below_threshold_interpolates_each_iterate_once(monkeypatch):
    # the line search's J, then the gradient and the Hessian of an accepted
    # iterate read one kept set of slopes and point values; when each kernel
    # interpolated its own, the five descents made 70 interpolations of 26
    # vectors
    lam, params, kappa, nl = _below_threshold()
    _tilde_search(params, kappa, nl, FAST)  # the tent bases are not iterates
    seen = {}
    at_points = _Assembly.at_points

    def keyed(self, u, rows):
        seen[u.tobytes()] = seen.get(u.tobytes(), 0) + 1
        return at_points(self, u, rows)

    monkeypatch.setattr(_Assembly, "at_points", keyed)
    assert _all_at_zero(*_descents(lam, params, kappa, nl))
    assert seen and max(seen.values()) == 1


@pytest.mark.parametrize("where, expected", [("below", "only-zero"), ("above", "two")])
def test_solve_falls_back_to_the_riesz_direction(monkeypatch, where, expected):
    # a shifted Hessian that is never positive definite leaves the Riesz
    # direction -K^{-1} g, which must reach the same classification; below
    # lambda* solve certifies without descending, so there the five descents
    # run directly and must all end at zero
    params, kappa, nl = ModelParams(n=3, a=0.5), WeightKappa.default(), Nonlinearity.default()
    attempts = []

    def not_positive_definite(self, ab, g):
        attempts.append(None)
        raise np.linalg.LinAlgError("forced")

    monkeypatch.setattr(_Assembly, "shifted_solve", not_positive_definite)
    if where == "below":
        assert _all_at_zero(*_descents(*_below_threshold()))
    else:
        lam = 10.0 * tilde_lambda_estimate(params, kappa, nl, cfg=FAST)
        report = solve(lam, params, kappa, nl, FAST)
        assert report.classification == expected
        assert report.failures == ()
    assert attempts


# --- zero certificate ------------------------------------------------------

@pytest.mark.parametrize("M", [120, 400])
@pytest.mark.parametrize("n, a", [(2, 0.0), (3, 0.5), (5, 0.9), (3, 0.99), (10, 0.5), (2, 0.99)])
def test_zero_certificate_holds_at_lambda_star(n, a, M):
    # the paper's bound on the mesh, for the check matrix's problems; the
    # least margin measured over them is 2.07 lambda*
    params, nl = ModelParams(n=n, a=a), Nonlinearity.default()
    asm = _Assembly(params, solver_nodes(SolverConfig(M=M)))
    for kappa in (WeightKappa.default(), WeightKappa(kappa=lambda r: np.exp(-np.asarray(r)))):
        assert asm.only_zero(nonexistence_threshold(params, nl, kappa), kappa, nl)


@pytest.mark.parametrize("weight", ["bump", "exp"])
def test_zero_certificate_agrees_with_the_descents(weight):
    # wherever the certificate holds, the five descents of solve all end at
    # zero; the grid reaches past the certified range of both weights
    params, nl = ModelParams(n=3, a=0.5), Nonlinearity.default()
    if weight == "bump":
        kappa = WeightKappa.default()
    else:
        kappa = WeightKappa(kappa=lambda r: np.exp(-np.asarray(r)))
    lam_star = nonexistence_threshold(params, nl, kappa)
    asm = _tilde_search(params, kappa, nl, FAST)[1]
    certified = [lam for lam in lam_star * np.geomspace(0.01, 1e3, 6) if asm.only_zero(lam, kappa, nl)]
    assert 3 <= len(certified) < 6
    for lam in certified:
        assert _all_at_zero(*_descents(lam, params, kappa, nl))


def test_zero_certificate_fails_where_solve_certifies_two():
    params, kappa, nl = ModelParams(n=3, a=0.5), WeightKappa.default(), Nonlinearity.default()
    lam_tilde, asm, _ = _tilde_search(params, kappa, nl, FAST)
    assert not asm.only_zero(10.0 * lam_tilde, kappa, nl)
    report = solve(10.0 * lam_tilde, params, kappa, nl, FAST)
    assert report.classification == "two"
    assert all(s["ok"] for s in report.solutions)


@pytest.mark.parametrize("lam", [1e300, np.finfo(float).max])
def test_zero_certificate_of_a_huge_lambda_certifies_nothing(lam):
    # at 1e300 the band is finite and indefinite; at the largest double,
    # -2 lambda c_g overflows and the band holds infinities and NaNs.  Under
    # the suite's warning filter an overflow warning would raise here
    params, kappa, nl = ModelParams(n=3, a=0.5), WeightKappa.default(), Nonlinearity.default()
    asm = _Assembly(params, solver_nodes(FAST))
    assert asm.only_zero(lam, kappa, nl) is False


def test_a_certified_solve_descends_nowhere(monkeypatch):
    _tilde_search.cache_clear()
    lam, params, kappa, nl = _below_threshold()
    builds = _counted_builds(monkeypatch)

    def no_descent(*args):
        raise AssertionError("a certified solve descended")

    monkeypatch.setattr(es, "_minimize_vec", no_descent)
    report = solve(lam, params, kappa, nl, FAST)
    assert (report.classification, report.solutions, report.failures) == ("only-zero", (), ())
    assert builds == {2: 1, FAST.quad_order: 1, "gram": 0}


def test_solve_certifies_two_near_a_one():
    # the Riesz direction alone ended every start at zero here and answered
    # only-zero with no failures
    params, kappa, nl = ModelParams(n=2, a=0.99), WeightKappa.default(), Nonlinearity.default()
    lam = 10.0 * tilde_lambda_estimate(params, kappa, nl, cfg=FAST)
    report = solve(lam, params, kappa, nl, FAST)
    assert report.classification == "two"
    assert all(s["ok"] for s in report.solutions)


@pytest.mark.parametrize("n, a", [(2, 0.0), (3, 0.5), (3, 0.99), (5, 0.9)])
def test_solve_far_above_lambda_tilde_is_never_a_confident_only_zero(n, a):
    # a Newton switch at res < 1e-3 (1 + |J|), a threshold growing like
    # lambda^4, walked every start into zero here and answered only-zero
    # with no failures
    params, kappa, nl = ModelParams(n=n, a=a), WeightKappa.default(), Nonlinearity.default()
    lam_tilde = tilde_lambda_estimate(params, kappa, nl, cfg=FAST)
    report = solve(100.0 * lam_tilde, params, kappa, nl, FAST)
    assert report.classification == "two"
    assert report.failures == ()
    # at 1000 lambda~ the absolute tol is below the residual floor, so the
    # starts fail, but the report must say so
    report = solve(1000.0 * lam_tilde, params, kappa, nl, FAST)
    assert report.classification != "only-zero" or report.failures


def test_minimize_ends_a_start_once_its_line_search_resolves_no_decrease(monkeypatch):
    # accepting Armijo steps that no longer change J ran two of these
    # starts for 402 iterations
    params, kappa, nl = ModelParams(n=3, a=0.9), WeightKappa.default(), Nonlinearity.default()
    cfg = SolverConfig(M=400)
    lam = 17.0 * tilde_lambda_estimate(params, kappa, nl, cfg=cfg)
    iterations = []
    minimize_vec = es._minimize_vec

    def recorded(*args):
        out = minimize_vec(*args)
        iterations.append(out[3])
        return out

    monkeypatch.setattr(es, "_minimize_vec", recorded)
    assert solve(lam, params, kappa, nl, cfg).classification == "two"
    assert len(iterations) == 5
    assert max(iterations) <= 30


def test_solve_certifies_a_minimizer_with_a_full_support_weight():
    # with exp(-r) the descent used to end every start at zero here and
    # answer only-zero with no failures
    params, nl = ModelParams(n=2, a=0.0), Nonlinearity.default()
    kappa = WeightKappa(kappa=lambda r: np.exp(-r))
    lam = 10.0 * tilde_lambda_estimate(params, kappa, nl, cfg=FAST)
    report = solve(lam, params, kappa, nl, FAST)
    minimizer = report.solutions[0]
    assert minimizer["which"] == "minimizer"
    assert minimizer["ok"]
    assert minimizer["energy"] < 0.0


def test_a_start_with_no_positive_value_is_not_a_candidate(monkeypatch):
    # g vanishes for s <= 0, so on a profile with no positive value J = E/2,
    # whose only critical point is 0: a start that converges there is the
    # zero solution approached from below.  Taken as a candidate, it had
    # the lowest J and failed certification on its least value, and this
    # only-zero run exited 1
    params, nl = ModelParams(n=2, a=0.99), Nonlinearity.default()
    lam = 0.65 * tilde_lambda_estimate(params, EXP_WEIGHT, nl, cfg=FAST)
    ends = []
    minimize_vec = es._minimize_vec

    def recorded(asm, *args):
        out = minimize_vec(asm, *args)
        ends.append((out[2], asm.h12_norm(out[0]), out[0].max()))
        return out

    monkeypatch.setattr(es, "_minimize_vec", recorded)
    report = solve(lam, params, EXP_WEIGHT, nl, FAST)
    assert report.classification == "only-zero"
    assert report.failures == ()
    assert any(res < FAST.tol and norm >= 1e-6 and top == 0.0 for res, norm, top in ends)


def test_solve_two_solution_regime():
    params = ModelParams(n=3, a=0.5)
    kappa = WeightKappa.default()
    nl = Nonlinearity.default()
    lam = 10.0 * tilde_lambda_estimate(params, kappa, nl, cfg=FAST)
    report = solve(lam, params, kappa, nl, FAST)
    assert report.classification == "two"
    assert report.failures == ()
    which = [s["which"] for s in report.solutions]
    assert which == ["minimizer", "mountain-pass"]
    for s in report.solutions:
        assert s["residual"] < FAST.tol
        assert s["min_value"] >= -1e-10
        assert s["ok"]
    assert report.solutions[0]["energy"] < 0.0 < report.solutions[1]["energy"]
    assert [s["morse_index"] for s in report.solutions] == [0, 1]


def test_solve_rejects_a_numerically_zero_saddle():
    # at n = 10 the centre nodes are nearly free: Newton from the ray's barrier
    # stalls at a point of Morse index 4 (residual 1.2e-3), and a polish onto
    # the zero critical point would have index 0; neither certifies a second
    # solution, and the failure names the index
    params = ModelParams(n=10, a=0.5)
    kappa, nl = WeightKappa.default(), Nonlinearity.default()
    lam = 10.0 * tilde_lambda_estimate(params, kappa, nl, cfg=FAST)
    report = solve(lam, params, kappa, nl, FAST)
    assert report.classification == "one"
    assert [s["which"] for s in report.solutions] == ["minimizer"]
    assert report.solutions[0]["morse_index"] == 0
    assert len(report.failures) == 1
    assert report.failures[0].startswith(
        "mountain pass failed: mountain-pass candidate failed certification ("
    )
    assert "Morse index 4, not 1" in report.failures[0]


@pytest.mark.parametrize(
    "n, a, weight, multiple, M",
    [(3, 0.5, "bump", 0.6, 400), (2, 0.0, "exp", 0.65, 120)],
)
def test_solve_certifies_the_pair_just_above_the_fold(n, a, weight, multiple, M):
    # both solutions have J > 0 here: the minimizer is not the lowest start
    # (zero is), and the saddle lies on the ray toward it
    params, nl, cfg = ModelParams(n=n, a=a), Nonlinearity.default(), SolverConfig(M=M)
    if weight == "bump":
        kappa = WeightKappa.default()
    else:
        kappa = WeightKappa(kappa=lambda r: np.exp(-np.asarray(r, dtype=float)))
    lam = multiple * tilde_lambda_estimate(params, kappa, nl, cfg=cfg)
    report = solve(lam, params, kappa, nl, cfg)
    assert report.classification == "two"
    assert [(s["which"], s["morse_index"]) for s in report.solutions] == [
        ("minimizer", 0), ("mountain-pass", 1),
    ]
    minimizer, saddle = report.solutions
    assert saddle["energy"] > max(minimizer["energy"], 0.0)
    assert all(s["ok"] and s["min_value"] >= -1e-10 for s in report.solutions)


def test_a_minimizer_that_fails_its_certificate_is_always_noted(monkeypatch):
    # two starts end at zero, below the minimizer's J > 0; a failed
    # certificate of the minimizer was dropped without a note, and this
    # run answered a confident only-zero where the paper has two solutions
    params, kappa, nl = ModelParams(n=3, a=0.5), WeightKappa.default(), Nonlinearity.default()
    cfg = SolverConfig(M=400)
    lam = 0.6 * tilde_lambda_estimate(params, kappa, nl, cfg=cfg)
    energies = []
    minimize_vec, certify = es._minimize_vec, es._certify

    def recorded(*args):
        out = minimize_vec(*args)
        energies.append(out[1])
        return out

    def failing(*args):  # every certificate of Morse index 0 fails
        cert, failed = certify(*args)
        return (cert, failed + ["forced"]) if args[-1] == 0 else (cert, failed)

    monkeypatch.setattr(es, "_minimize_vec", recorded)
    monkeypatch.setattr(es, "_certify", failing)
    report = solve(lam, params, kappa, nl, cfg)
    assert min(energies) < 1e-12 < 0.4 < max(energies)
    assert report.classification == "only-zero"
    assert report.solutions == ()
    assert report.failures == ("nonzero minimizer failed certification (forced)",)


def test_solve_report_serialization():
    report = solve(0.0, ModelParams(n=3, a=0.5), cfg=FAST)
    blob = report.to_json_dict()
    assert blob["classification"] == "only-zero"
    assert "profile" not in str(blob)
    rows = report.csv_rows()
    assert len(rows) == 1 and rows[0][1] == "only-zero"


def test_solve_rejects_funk_endpoint():
    with pytest.raises(GeometryError):
        solve(1.0, ModelParams(n=3, a=1.0), cfg=FAST)


def test_lambda_scan_classifications():
    params = ModelParams(n=3, a=0.5)
    kappa = WeightKappa.default()
    nl = Nonlinearity.default()
    lam_star = nonexistence_threshold(params, nl, kappa)
    lam_tilde = tilde_lambda_estimate(params, kappa, nl, cfg=FAST)
    low = lambda_scan([0.1 * lam_star, 0.5 * lam_star], params, kappa, nl, FAST)
    assert list(low.classifications()) == ["only-zero", "only-zero"]
    high = lambda_scan([5.0 * lam_tilde, 10.0 * lam_tilde], params, kappa, nl, FAST)
    assert list(high.classifications()) == ["two", "two"]


def test_lambda_scan_runs_tilde_search_once():
    # lambda~ and every solve of the scan read the search's memo: one miss
    _tilde_search.cache_clear()
    report = lambda_scan([0.0, 1.0, 2.0], ModelParams(n=3, a=0.5), cfg=FAST)
    assert len(report.reports) == 3
    assert _tilde_search.cache_info().misses == 1


def test_lambda_scan_matches_cold_solves_across_the_onset():
    # the scan reuses the kept assembly, its state slot and its Gram factor
    # from one lambda to the next; every report must equal that of a solve
    # on a fresh tent search
    params, kappa, nl = ModelParams(n=3, a=0.5), WeightKappa.default(), Nonlinearity.default()
    lam_star = nonexistence_threshold(params, nl, kappa)
    lam_tilde = tilde_lambda_estimate(params, kappa, nl, cfg=FAST)
    lams = [0.5 * lam_star] + [m * lam_tilde for m in (2.0, 10.0, 100.0)]
    scan = lambda_scan(lams, params, kappa, nl, FAST)
    assert "two" in scan.classifications()
    for lam, rep in zip(lams, scan.reports):
        _tilde_search.cache_clear()
        assert rep.to_json_dict() == solve(lam, params, kappa, nl, FAST).to_json_dict()


def test_lambda_scan_reports_match_solve():
    params = ModelParams(n=3, a=0.5)
    kappa, nl = WeightKappa.default(), Nonlinearity.default()
    lam_star = nonexistence_threshold(params, nl, kappa)
    lam_tilde = tilde_lambda_estimate(params, kappa, nl, cfg=FAST)
    lams = [0.5 * lam_star, 10.0 * lam_tilde]
    scan = lambda_scan(lams, params, kappa, nl, FAST)
    for lam, rep in zip(lams, scan.reports):
        assert rep.to_json_dict() == solve(lam, params, kappa, nl, FAST).to_json_dict()


def _counted_builds(monkeypatch):
    """Count the _Assembly builds by quadrature order, and the Gram bands."""
    builds = {"gram": 0}
    init, gram = _Assembly.__init__, _Assembly.gram_banded

    def counted_init(self, params, nodes, quad_order=8):
        builds[quad_order] = builds.get(quad_order, 0) + 1
        init(self, params, nodes, quad_order)

    def counted_gram(self):
        builds["gram"] += 1
        return gram(self)

    monkeypatch.setattr(_Assembly, "__init__", counted_init)
    monkeypatch.setattr(_Assembly, "gram_banded", counted_gram)
    return builds


def test_solves_of_one_problem_share_one_tent_search(monkeypatch):
    # the search's two assemblies and the Gram factor are built once for
    # lambda~, two solves below lambda*, which the zero certificate decides,
    # and one at 10 lambda~, whose descents build the Gram factor
    _tilde_search.cache_clear()
    params, kappa, nl = ModelParams(n=3, a=0.5), WeightKappa.default(), Nonlinearity.default()
    builds = _counted_builds(monkeypatch)
    lam_tilde = tilde_lambda_estimate(params, kappa, nl, cfg=FAST)
    lam_star = nonexistence_threshold(params, nl, kappa)
    for lam in (0.25 * lam_star, 0.5 * lam_star):
        assert solve(lam, params, kappa, nl, FAST).classification == "only-zero"
    assert solve(10.0 * lam_tilde, params, kappa, nl, FAST).classification == "two"
    assert builds == {2: 1, FAST.quad_order: 1, "gram": 1}


def test_the_mountain_pass_of_a_solve_builds_no_assembly(monkeypatch):
    # the mountain pass works on the tent search's kept assembly, with its
    # weight values and its Gram factor, which the first start builds
    _tilde_search.cache_clear()
    params, kappa, nl = ModelParams(n=3, a=0.5), WeightKappa.default(), Nonlinearity.default()
    lam = 10.0 * tilde_lambda_estimate(params, kappa, nl, cfg=FAST)
    builds = _counted_builds(monkeypatch)
    # "two" certifies the mountain pass's saddle
    assert solve(lam, params, kappa, nl, FAST).classification == "two"
    assert builds == {"gram": 1}


@pytest.mark.parametrize("where", ["below", "above"])
def test_repeated_solve_matches_a_cold_one(where):
    params, kappa, nl = ModelParams(n=3, a=0.5), WeightKappa.default(), Nonlinearity.default()
    if where == "below":
        lam = 0.5 * nonexistence_threshold(params, nl, kappa)
    else:
        lam = 10.0 * tilde_lambda_estimate(params, kappa, nl, cfg=FAST)
    warm = [solve(lam, params, kappa, nl, FAST).to_json_dict() for _ in range(2)]
    _tilde_search.cache_clear()
    cold = solve(lam, params, kappa, nl, FAST).to_json_dict()
    assert warm[0] == warm[1] == cold
    assert cold["classification"] == ("only-zero" if where == "below" else "two")


def test_a_new_problem_misses_the_tent_search_cache():
    _tilde_search.cache_clear()
    params, kappa, nl = ModelParams(n=3, a=0.5), WeightKappa.default(), Nonlinearity.default()
    first = _tilde_search(params, kappa, nl, FAST)
    # equal frozen data hit, even when built anew
    assert _tilde_search(ModelParams(n=3, a=0.5), kappa, nl, SolverConfig(M=120)) is first
    assert _tilde_search.cache_info()[:2] == (1, 1)  # hits, misses
    others = [
        (params, WeightKappa.default(), nl, FAST),
        (params, kappa, Nonlinearity.default(), FAST),
        (params, kappa, nl, SolverConfig(M=64)),
        (ModelParams(n=3, a=0.6), kappa, nl, FAST),
    ]
    for k, args in enumerate(others, start=2):
        assert _tilde_search(*args) is not first
        assert _tilde_search.cache_info()[:2] == (1, k)


def test_omitted_problem_data_reuse_one_tent_search():
    # an omitted weight or nonlinearity was built anew by every call, so the
    # memo, which compares them by identity, missed on every default solve
    _tilde_search.cache_clear()
    params = ModelParams(n=3, a=0.5)
    first = solve(10.0, params, cfg=FAST)
    second = solve(10.0, params, cfg=FAST)
    assert _tilde_search.cache_info()[:2] == (1, 1)  # hits, misses
    assert second.to_json_dict() == first.to_json_dict()
    lambda_scan([10.0], params, cfg=FAST)
    assert _tilde_search.cache_info()[:2] == (3, 1)


@pytest.mark.parametrize("multiple", [10.0, 100.0])
def test_a_start_cut_off_by_max_iter_is_a_failed_start(monkeypatch, multiple):
    # the Newton polish walked starts cut off after one descent step into
    # zero, and solve answered only-zero with no failures
    params, kappa, nl = ModelParams(n=3, a=0.5), WeightKappa.default(), Nonlinearity.default()
    cfg = SolverConfig(M=120, max_iter=1)
    lam = multiple * tilde_lambda_estimate(params, kappa, nl, cfg=cfg)
    polishes = []
    newton_refine = es._newton_refine

    def recorded(*args):
        polishes.append(None)
        return newton_refine(*args)

    monkeypatch.setattr(es, "_newton_refine", recorded)
    report = solve(lam, params, kappa, nl, cfg)
    assert report.failures
    assert report.classification != "two"
    assert not polishes


def test_lambda_scan_isolates_negative_lambda():
    lams = [1.0, -1.0, math.nan, math.inf, 2.0]
    report = lambda_scan(lams, ModelParams(n=3, a=0.5), cfg=FAST)
    assert report.classifications() == ("only-zero", "error", "error", "error", "only-zero")
    for rep in report.reports[1:4]:
        assert rep.failures == ("lambda must be finite and non-negative",)
    assert report.reports[0].failures == report.reports[4].failures == ()


@pytest.mark.parametrize("lam", [math.nan, math.inf])
def test_solve_rejects_non_finite_lambda(monkeypatch, lam):
    def no_search(*args):
        raise AssertionError("the tent search ran")

    monkeypatch.setattr(es, "_tilde_search", no_search)
    with pytest.raises(ValueError, match="lambda must be finite and non-negative"):
        solve(lam, ModelParams(n=3, a=0.5), cfg=FAST)


def test_lambda_scan_search_failure_reports_every_lambda():
    # weight supported beyond every tent trial, so no trial has G > 0
    def kappa(r):
        r = np.asarray(r, dtype=float)
        return np.where((r > 0.9) & (r < 0.99), 1.0, 0.0)

    far = WeightKappa(kappa=kappa)
    report = lambda_scan([1.0, 2.0], ModelParams(n=3, a=0.5), kappa=far, cfg=FAST)
    assert report.lambda_tilde_est == math.inf
    assert report.classifications() == ("error", "error")
    for rep in report.reports:
        assert rep.lambda_tilde_est == math.inf
        assert len(rep.failures) == 1 and "incompatible" in rep.failures[0]
    # the default schedule (lambda*/2, 10 lambda~) needs a finite lambda~
    with pytest.raises(SolverError):
        lambda_scan(None, ModelParams(n=3, a=0.5), kappa=far, cfg=FAST)


def test_lambda_scan_empty_schedule():
    report = lambda_scan([], ModelParams(n=3, a=0.5), cfg=FAST)
    assert report.lambdas == ()
    assert report.reports == ()
    assert list(report.classifications()) == []
    assert list(report.csv_rows()) == []


# --- subquadraticity -------------------------------------------------------

def test_subquadraticity_limits():
    params = ModelParams(n=3, a=0.5)
    nodes = solver_nodes(FAST)
    direction = 20.0 * np.maximum(1.0 - nodes / 0.4, 0.0)
    # the right tail only decays like t^(-1/2), so a span of 1e8 in t is
    # needed before both ends drop under 1% of the peak
    table = subquadraticity_diagnostic(
        direction, params, t_schedule=np.geomspace(1e-4, 1e4, 33), cfg=FAST
    )
    ratios = table[:, 1]
    peak = float(np.max(ratios))
    ip = int(np.argmax(ratios))
    assert ratios[0] < 0.01 * peak
    assert ratios[-1] < 0.01 * peak
    assert np.all(np.diff(ratios[ip:]) < 0.0)  # monotone past the peak


def test_subquadraticity_zero_outside_weight_support():
    # direction supported outside the weight's bump: G identically 0
    params = ModelParams(n=3, a=0.5)
    nodes = solver_nodes(FAST)
    direction = np.where((nodes > 0.6) & (nodes < 0.9), 1.0, 0.0)
    direction[-1] = 0.0
    table = subquadraticity_diagnostic(direction, params, cfg=FAST)
    assert np.all(table[:, 1] == 0.0)


def test_subquadraticity_rejects_zero_direction():
    params = ModelParams(n=3, a=0.5)
    nodes = solver_nodes(FAST)
    with pytest.raises(ValueError):
        subquadraticity_diagnostic(np.zeros(nodes.size), params, cfg=FAST)


@pytest.mark.parametrize("t", [0.0, -1.0, math.inf, math.nan])
def test_subquadraticity_rejects_non_positive_or_non_finite_t(t):
    params = ModelParams(n=3, a=0.5)
    direction = np.maximum(1.0 - solver_nodes(FAST) / 0.4, 0.0)
    with pytest.raises(ValueError, match="t_schedule must hold positive finite values"):
        subquadraticity_diagnostic(direction, params, t_schedule=[1e-3, t, 1e3], cfg=FAST)


@pytest.mark.parametrize("extra", [2, -2])
def test_subquadraticity_rejects_direction_off_mesh(extra):
    params = ModelParams(n=3, a=0.5)
    direction = np.ones(solver_nodes(FAST).size + extra)
    with pytest.raises(ValueError):
        subquadraticity_diagnostic(direction, params, cfg=FAST)


# --- assembly kernels ------------------------------------------------------

def _dense(band):
    """Symmetric dense matrix of a ``(diagonal, off-diagonal)`` pair."""
    diag, off = band
    return np.diag(diag) + np.diag(off, 1) + np.diag(off, -1)


def test_hessian_banded_matches_gradient_differences():
    params = ModelParams(n=3, a=0.5)
    kappa, nl = WeightKappa.default(), Nonlinearity.default()
    cfg = SolverConfig(M=64)
    asm = _Assembly(params, solver_nodes(cfg), quad_order=cfg.quad_order)
    x = asm.nodes / asm.nodes[-1]
    u = 2.0 * (1.0 - x) ** 2 + (1.0 - x)  # strictly decreasing: no slope sign change
    lam = 1e4
    diag, off = asm.hessian_banded(u, lam, kappa, nl)
    nf = asm.M - 1
    assert diag.shape == (nf,) and off.shape == (nf - 1,)
    H = _dense((diag, off))
    fd = np.empty((nf, nf))
    h = 1e-6
    for j in range(nf):
        step = np.zeros(asm.M)
        step[j] = h
        fd[:, j] = (asm.grad(u + step, lam, kappa, nl) - asm.grad(u - step, lam, kappa, nl))[:nf]
    fd /= 2.0 * h
    np.testing.assert_allclose(fd, H, rtol=1e-8, atol=0.0)
    # the source term must show above that tolerance, or only the
    # stiffness part would be checked
    source = np.abs(H - _dense(asm.hessian_banded(u, 0.0, kappa, nl)))
    assert np.max(source[H != 0.0] / np.abs(H[H != 0.0])) > 1e-3


def test_gram_banded_matches_inner_product():
    params = ModelParams(n=3, a=0.5)
    cfg = SolverConfig(M=64)
    asm = _Assembly(params, solver_nodes(cfg), quad_order=cfg.quad_order)
    nf = asm.M - 1
    basis = np.eye(asm.M)[:nf]
    K = np.array([[asm.inner_K(ei, ej) for ej in basis] for ei in basis])
    diag, off = asm.gram_banded()
    assert diag.shape == (nf,) and off.shape == (nf - 1,)
    np.testing.assert_allclose(_dense((diag, off)), K, rtol=1e-12, atol=1e-14 * np.max(np.abs(K)))


# pointwise oracle: the slope terms evaluated at every quadrature point, as
# the kernels did before they were assembled from per-element moments

def _pointwise_slope_data(asm, params, u):
    """c = (1-r^2)/(1-a^2 r^2), 1 - a r sign(du) and du at every point.
    1 - a r is formed as (1 - r) + (1 - a) r: subtracting the rounded a*r
    from 1 costs eps / (1 - a r) of relative accuracy as a r -> 1."""
    R, a = asm.R, params.a
    down, up = (1.0 - R) + (1.0 - a) * R, 1.0 + a * R
    c = (1.0 - R) * (1.0 + R) / (down * up)
    du = (u - np.concatenate((u[:1], u[:-1]))) * asm.inv_h
    return c, np.where(du > 0.0, down, np.where(du < 0.0, up, 1.0)), du


def _pointwise_energy(asm, params, u):
    # F* = c (|du| - a r du) = c |du| (1 - a r sign(du))
    c, side, du = _pointwise_slope_data(asm, params, u)
    return float(np.vdot(asm.w_fins, (c * (np.abs(du) * side)) ** 2))


def _pointwise_flux(asm, params, u):
    """Per-element flux: element e adds it to node e and subtracts it from
    node e-1."""
    c, side, du = _pointwise_slope_data(asm, params, u)
    dphi = 2.0 * c**2 * du * side**2
    return 0.5 * (asm.w_fins * dphi).sum(axis=0) * asm.inv_h


def _pointwise_grad(asm, params, u):
    flux = _pointwise_flux(asm, params, u)
    out = flux.copy()
    out[:-1] -= flux[1:]
    out[-1] = 0.0
    return out


def _pointwise_hessian(asm, params, u):
    c, side, du = _pointwise_slope_data(asm, params, u)
    we = 0.5 * asm.w_fins * 2.0 * c**2 * side**2
    we = we.sum(axis=0) * asm.inv_h**2
    H = np.zeros((asm.M, asm.M))
    for e in range(1, asm.M):
        H[e - 1 : e + 1, e - 1 : e + 1] += we[e] * np.array([[1.0, -1.0], [-1.0, 1.0]])
    nf = asm.M - 1
    return H[:nf, :nf]


def _oracle_profiles(nodes, rng):
    mixed = rng.standard_normal(nodes.size)
    tent = tent_values(nodes, height=3.0, width=0.6)
    steps = np.repeat(rng.standard_normal(nodes.size // 4 + 1), 4)[: nodes.size]
    for u in (mixed, 1e-12 * mixed, tent, -tent, steps, np.abs(steps), -np.abs(steps)):
        u = u.copy()
        u[-1] = 0.0
        yield u


@pytest.mark.parametrize("n", [2, 3, 10])
@pytest.mark.parametrize("a", [0.0, 0.5, 0.9, 0.99, 0.9999])
def test_slope_moments_match_pointwise_kernels(rng, n, a):
    params = ModelParams(n=n, a=a)
    cfg = SolverConfig(M=48)
    asm = _Assembly(params, solver_nodes(cfg), quad_order=cfg.quad_order)
    kappa, nl = WeightKappa.default(), Nonlinearity.default()
    flat_seen = False
    for u in _oracle_profiles(asm.nodes, rng):
        flat_seen |= bool(np.any(asm.slopes(u)[1:] == 0.0))
        np.testing.assert_allclose(asm.energy(u), _pointwise_energy(asm, params, u), rtol=1e-13)
        # a gradient entry is the difference of two element fluxes, so its
        # rounding error scales with the fluxes, not with the entry
        flux_scale = np.max(np.abs(_pointwise_flux(asm, params, u)))
        np.testing.assert_allclose(
            asm.grad(u, 0.0, kappa, nl),
            _pointwise_grad(asm, params, u),
            rtol=1e-13,
            atol=1e-13 * flux_scale,
        )
        np.testing.assert_allclose(
            _dense(asm.hessian_banded(u, 0.0, kappa, nl)),
            _pointwise_hessian(asm, params, u),
            rtol=1e-13,
        )
    assert flat_seen


def test_g_int_uses_the_weight_of_each_call():
    # the first weight is freed before the second is built, so the second
    # can reuse its id(); the kernel must still see the new weight
    params, nl = ModelParams(n=3, a=0.5), Nonlinearity.default()
    asm = _Assembly(params, solver_nodes(FAST), quad_order=FAST.quad_order)
    u = tent_values(asm.nodes, height=5.0, width=0.8)
    asm.g_int(u, WeightKappa.default(0.3), nl)
    got = asm.g_int(u, WeightKappa.default(0.6), nl)
    fresh = _Assembly(params, asm.nodes, quad_order=FAST.quad_order)
    assert got == fresh.g_int(u, WeightKappa.default(0.6), nl)


def _full_points(asm, u):
    # the reference hat row xi on every element: u_0 on the flat element 0
    left = np.concatenate((u[:1], u[:-1]))
    return left + asm.xi * (u - left)


def _full_weights(asm, kappa):
    return asm.w_fins * kappa.kappa(asm.R)


def _live_rows(asm, kappa):
    """The live element count nk: the column count of the kept source
    weights."""
    return asm._source_weights(kappa).shape[1]


def _full_g_int(asm, u, kappa, nl):
    kw, Gv = _full_weights(asm, kappa), nl.G(_full_points(asm, u))
    # the elements the kernel skips add exact zeros; the dot product itself is
    # taken over the live elements, as BLAS may round a zero-padded one otherwise
    nk = _live_rows(asm, kappa)
    assert not (kw[:, nk:] * Gv[:, nk:]).any()
    return float(np.vdot(kw[:, :nk], Gv[:, :nk]))


def _full_grad(asm, u, lam, kappa, nl):
    du = asm.slopes(u)
    flux = asm._slope_moment(du) * du * asm.inv_h
    src = _full_weights(asm, kappa) * nl.g(_full_points(asm, u))
    src_r, src_l = es._hat_sums(asm._hats, src)
    right = flux - lam * src_r
    left = -flux - lam * src_l
    out = asm._to_nodes(right, left)
    out[-1] = 0.0
    return out


def _full_hessian(asm, u, lam, kappa, nl):
    # as in the kernel, the lambda-free hat-mass pair is scaled by -lambda
    stiff = asm._slope_moment(asm.slopes(u)) * asm.inv_h**2
    mass = _full_weights(asm, kappa) * nl.dg(_full_points(asm, u))
    return asm._tridiag(stiff, [-lam * m for m in asm._mass_pair(asm._hat_moments(mass))])


def _narrow_bump(r, R=0.005):
    # exp(-1/(R^2 - r^2)) scaled to sup 1, which does not underflow at small R
    r = np.asarray(r, dtype=float)
    with np.errstate(divide="ignore", over="ignore"):
        return np.where(r < R, np.exp(1.0 / R**2 - 1.0 / np.maximum(R**2 - r * r, 1e-300)), 0.0)


EXP_WEIGHT = WeightKappa(kappa=lambda r: np.exp(-np.asarray(r, dtype=float)))
NARROW_BUMP = WeightKappa(kappa=_narrow_bump)


def _assert_source_kernels_match_full_arrays(asm, kappa, rng):
    for nl in (Nonlinearity.default(), _doubled(Nonlinearity.default())):
        for scale in (1e-3, 1.0, 1e4):
            u = scale * rng.standard_normal(asm.M)  # both signs: g = 0 on s <= 0
            u[-1] = 0.0
            assert asm.g_int(u, kappa, nl) == _full_g_int(asm, u, kappa, nl)
            for lam in (0.0, 25.0, 2e5):
                np.testing.assert_array_equal(
                    asm.grad(u, lam, kappa, nl), _full_grad(asm, u, lam, kappa, nl)
                )
                got = asm.hessian_banded(u, lam, kappa, nl)
                for part, ref in zip(got, _full_hessian(asm, u, lam, kappa, nl)):
                    np.testing.assert_array_equal(part, ref)


@pytest.mark.parametrize(
    "kappa, live_rows_ok",
    [
        (WeightKappa.default(0.5), lambda nk, M: 0.3 * M < nk < 0.7 * M),
        (EXP_WEIGHT, lambda nk, M: nk == M),
        (NARROW_BUMP, lambda nk, M: 0 < nk < 10),
    ],
    ids=["bump", "full-support", "narrow-bump"],
)
def test_source_kernels_match_full_arrays(rng, kappa, live_rows_ok):
    # the kernels evaluate the source terms on the elements [:nk] only; every
    # output must equal the same computation on the full arrays bit for bit
    asm = _Assembly(ModelParams(n=3, a=0.5), solver_nodes(FAST), quad_order=FAST.quad_order)
    _assert_source_kernels_match_full_arrays(asm, kappa, rng)
    vals, nk = kappa.kappa(asm.R), _live_rows(asm, kappa)
    assert vals[:, nk - 1].any() and not vals[:, nk:].any()
    assert live_rows_ok(nk, asm.M)


def test_switching_weights_recomputes_the_live_rows(rng):
    asm = _Assembly(ModelParams(n=3, a=0.5), solver_nodes(FAST), quad_order=FAST.quad_order)
    seen = []
    for kappa in (EXP_WEIGHT, NARROW_BUMP, WeightKappa.default(0.5), EXP_WEIGHT):
        _assert_source_kernels_match_full_arrays(asm, kappa, rng)
        seen.append(_live_rows(asm, kappa))
    assert seen[0] == seen[3] == asm.M and seen[1] < seen[2] < asm.M


def _kernel_bits(asm, u, kappa, nl, lam=2e5):
    """The bits of every kernel's output on ``u``."""
    return [
        np.float64(asm.energy(u)).tobytes(),
        np.float64(asm.g_int(u, kappa, nl)).tobytes(),
        asm.grad(u, lam, kappa, nl).tobytes(),
        *(part.tobytes() for part in asm.hessian_banded(u, lam, kappa, nl)),
    ]


def _scale_one_entry(u, kappa):
    u[3] *= 1.5
    return kappa


def _negate_zeros(u, kappa):
    # -0.0 == 0.0, so a state kept by value would serve the slopes of +0.0
    u[np.flatnonzero(u == 0.0)[::2]] = -0.0
    return kappa


def _switch_weight(u, kappa):
    return EXP_WEIGHT


@pytest.mark.parametrize(
    "change", [_scale_one_entry, _negate_zeros, _switch_weight],
    ids=["in-place", "signed-zero", "weight"],
)
def test_kept_state_follows_the_vector_bits_and_the_weight(change):
    # each kernel reads the slopes, slope moments and point values kept for
    # the last vector; after the vector changes in place, a zero changes
    # sign or the weight changes, they must be those of a fresh assembly
    params, kappa, nl = ModelParams(n=3, a=0.5), WeightKappa.default(), Nonlinearity.default()
    asm = _Assembly(params, solver_nodes(FAST), quad_order=FAST.quad_order)
    u = tent_values(asm.nodes, height=5.0, width=0.4)
    before = _kernel_bits(asm, u, kappa, nl)
    kappa = change(u, kappa)
    after = _kernel_bits(asm, u, kappa, nl)
    assert after != before  # the change shows in the output bits
    fresh = _Assembly(params, asm.nodes, quad_order=FAST.quad_order)
    assert after == _kernel_bits(fresh, u, kappa, nl)


def test_kept_state_is_read_only():
    params, kappa, ref = ModelParams(n=3, a=0.5), WeightKappa.default(), Nonlinearity.default()
    asm = _Assembly(params, solver_nodes(FAST), quad_order=FAST.quad_order)
    u = tent_values(asm.nodes, height=5.0, width=0.8)
    for kept in (*asm._slope_state(u), asm._live_points(u, kappa)):
        with pytest.raises(ValueError):
            kept[0] = 1.0

    # a nonlinearity that writes into its argument fails on the kept point
    # values and is sampled per entry, so it cannot corrupt them
    def clobbering_g(s):
        out = ref.g(s)
        np.asarray(s)[...] = 1e3
        return out

    nl = Nonlinearity(g=clobbering_g, G=ref.G, dg=ref.dg, c_g=ref.c_g)
    got = _kernel_bits(asm, u, kappa, nl)
    fresh = _Assembly(params, asm.nodes, quad_order=FAST.quad_order)
    assert got == _kernel_bits(fresh, u, kappa, ref)


def test_solve_descends_from_five_multiples_of_the_read_only_tent(monkeypatch):
    # the starts are t * tent for t in (0.25, 0.5, 1, 2, 4), and the memo
    # shares the tent, so it must not be writable
    _tilde_search.cache_clear()
    params, kappa, nl = ModelParams(n=3, a=0.5), WeightKappa.default(), Nonlinearity.default()
    tent = _tilde_search(params, kappa, nl, FAST)[2]
    with pytest.raises(ValueError):
        tent[0] = 1.0
    starts = []
    minimize_vec = es._minimize_vec

    def recorded(asm, lam, kappa, nl, cfg, init_vec):
        starts.append(np.array(init_vec))
        return minimize_vec(asm, lam, kappa, nl, cfg, init_vec)

    monkeypatch.setattr(es, "_minimize_vec", recorded)
    lam = 10.0 * tilde_lambda_estimate(params, kappa, nl, cfg=FAST)
    assert solve(lam, params, kappa, nl, FAST).classification == "two"
    assert len(starts) == 5
    for v, t in zip(starts, (0.25, 0.5, 1.0, 2.0, 4.0)):
        assert np.array_equal(v, t * tent)
    assert _tilde_search(params, kappa, nl, FAST)[2] is tent


@pytest.mark.parametrize("other", ["equal-weight", "other-weight", "equal-nonlinearity"])
def test_kept_start_terms_follow_the_weight_and_nonlinearity(other):
    # an equal copy of the weight or nonlinearity hits the tent search's memo,
    # and another weight can reach the same assembly; neither may read the
    # state or the live row count kept for the first weight
    _tilde_search.cache_clear()
    params, kappa, nl = ModelParams(n=3, a=0.5), WeightKappa.default(), Nonlinearity.default()
    asm, tent = _tilde_search(params, kappa, nl, FAST)[1:]
    fresh = _Assembly(params, asm.nodes, quad_order=FAST.quad_order)
    starts = [t * tent for t in (0.25, 0.5, 1.0, 2.0, 4.0)]
    for v in starts:
        _kernel_bits(asm, v, kappa, nl)
    if other == "equal-weight":
        kappa = copy.copy(kappa)
        assert _tilde_search(params, kappa, nl, FAST)[1] is asm
    elif other == "equal-nonlinearity":
        nl = copy.copy(nl)
        assert _tilde_search(params, kappa, nl, FAST)[1] is asm
    else:
        # another vector under the other weight moves the live row count,
        # which the first weight's kernels must not read
        _kernel_bits(asm, tent_values(asm.nodes), EXP_WEIGHT, nl)
        for v in starts:
            assert _kernel_bits(asm, v, kappa, nl) == _kernel_bits(fresh, v, kappa, nl)
        kappa = EXP_WEIGHT
    for v in starts:
        assert _kernel_bits(asm, v, kappa, nl) == _kernel_bits(fresh, v, kappa, nl)
    # and a solve on the kept assembly equals one on a fresh tent search
    lam = 0.5 * nonexistence_threshold(params, nl, kappa)
    warm = solve(lam, params, kappa, nl, FAST).to_json_dict()
    _tilde_search.cache_clear()
    assert warm == solve(lam, params, kappa, nl, FAST).to_json_dict()


def test_lazy_tables_match_the_eager_formulas():
    # the Klein moments and the slope moment tables are built on first use,
    # with the bits of the formulas built eagerly
    for n, a, q in ((3, 0.5, 8), (5, 0.9, 2), (2, 0.0, 4)):
        asm = _Assembly(ModelParams(n=n, a=a), solver_nodes(FAST), quad_order=q)
        assert not {"_klein_moments", "_slope_tables"} & set(vars(asm))
        R, base = _gauss_points(asm, n, q)
        p = 0.5 * (n + 1)
        one_m = (1.0 - R) * (1.0 + R)
        down, up = es._one_minus_ar(a, R)
        one_m_a = down * up
        wc2 = asm.w_fins * (one_m / one_m_a) ** 2
        assert np.array_equal(asm.R, R)
        assert np.array_equal(asm.w_fins, base * (one_m_a / one_m) ** p)
        eager = (es._point_dot(wc2 * down, down), es._point_dot(wc2 * up, up), wc2.sum(axis=0))
        for lazy, ref in zip(asm._slope_tables, eager):
            assert np.array_equal(lazy, ref)
        klein = _klein_weights(asm, n, q)
        # the hat products at the reference row xi = NR, NL = 1 - xi; on
        # the flat element 0, NR = 1 and NL = 0
        xi = 0.5 * (np.polynomial.legendre.leggauss(q)[0] + 1.0)
        hat_mass = np.stack(((1.0 - xi) ** 2, (1.0 - xi) * xi, xi * xi)) @ klein
        hat_mass[:, 0] = 0.0, 0.0, klein[:, 0].sum()
        eager = (es._point_dot(klein, one_m**2), *hat_mass)
        for lazy, ref in zip(asm._klein_moments, eager):
            assert np.array_equal(lazy, ref)


@pytest.mark.parametrize("M, q", [(48, 2), (400, 8), (6400, 8)])
def test_reference_hat_row_matches_the_element_hats(rng, M, q):
    # every linear element reads the reference row xi = (gx + 1)/2 for NR
    # and 1 - xi for NL; the hats (R - low)/h and (high - R)/h of the
    # rounded points R differ from it by rounding, which grows as eps r/h
    # on the short elements next to r = 1
    params, kappa, nl = ModelParams(n=3, a=0.5), EXP_WEIGHT, Nonlinearity.default()
    asm = _Assembly(params, solver_nodes(SolverConfig(M=M)), quad_order=q)
    lows, highs = asm._edges[:-1], asm._edges[1:]
    h = highs - lows
    NR, NL = (asm.R - lows) / h, (highs - asm.R) / h
    bound = 2.0 * np.finfo(float).eps * (1.0 + highs / h)
    assert np.all(np.abs(NR - asm.xi)[:, 1:] <= bound[1:])
    assert np.all(np.abs(NL - (1.0 - asm.xi))[:, 1:] <= bound[1:])
    # the flat centre element 0 carries u_0 at every point, bit for bit
    u = rng.standard_normal(M)
    u[-1] = 0.0
    P = asm.at_points(u, M)
    assert P.shape == (q, M)
    assert P[:, 0].tobytes() == np.full(q, u[0]).tobytes()
    # and its whole source sum lands on node 0 (NR = 1, NL = 0 there),
    # while the two hats of every element split its sum between its nodes
    src = asm._source_weights(kappa) * nl.g(P)
    right, left = asm._source_sums(u, kappa, nl)
    assert right[0] == src[:, 0].sum() and left[0] == 0.0
    np.testing.assert_allclose(right + left, src.sum(axis=0), rtol=1e-13, atol=1e-300)
    LL, LR, RR = asm._hat_moments(src)
    assert LL[0] == LR[0] == 0.0 and RR[0] == src[:, 0].sum()


def test_the_rough_rule_builds_no_klein_or_slope_tables(monkeypatch):
    rough = []
    init = _Assembly.__init__

    def recorded(self, params, nodes, quad_order=8):
        init(self, params, nodes, quad_order)
        if quad_order == 2:
            rough.append(self)

    monkeypatch.setattr(_Assembly, "__init__", recorded)
    _tilde_search.cache_clear()
    _tilde_search(ModelParams(n=3, a=0.5), WeightKappa.default(), Nonlinearity.default(), FAST)
    assert len(rough) == 1
    assert not {"_klein_moments", "_slope_tables"} & set(vars(rough[0]))


def _seeded_band(rng, m, shift):
    """Tridiagonal ``(diagonal, off-diagonal)`` pair with diagonal 2 + shift
    and off-diagonal entries in (-1, 1)."""
    return 2.0 + shift + 0.1 * rng.random(m), rng.uniform(-1.0, 1.0, m - 1)


def _upper(band):
    """The 2-row upper form of a symmetric pair, as solveh_banded reads it."""
    diag, off = band
    return np.vstack((np.concatenate(([0.0], off)), diag))


def _general(band):
    """The 3-row (1, 1) form of a symmetric pair, as solve_banded reads it."""
    diag, off = band
    return np.vstack((np.concatenate(([0.0], off)), diag, np.concatenate((off, [0.0]))))


def test_banded_solves_match_the_scipy_wrappers_bit_for_bit(rng):
    from scipy.linalg import solveh_banded
    from scipy.linalg.lapack import dpttrf

    asm = _Assembly(ModelParams(n=3, a=0.5), solver_nodes(FAST), quad_order=FAST.quad_order)
    gram = asm.gram_banded()
    d, e, info = dpttrf(*gram)
    kept = asm._gram_factor()[1]
    assert info == 0 and np.array_equal(kept[0], d) and np.array_equal(kept[1], e)
    for _ in range(5):
        g = rng.standard_normal(asm.M)
        g[-1] = 0.0
        # a 2-row band goes to LAPACK's ?ptsv, the same LDL^T factor and solve
        assert np.array_equal(asm.riesz(g)[:-1], solveh_banded(_upper(gram), g[:-1]))
        band = _seeded_band(rng, asm.M - 1, 0.0)
        ref = solveh_banded(_upper(band) + es.HESSIAN_SHIFT * _upper(gram), g[:-1])
        got = asm.shifted_solve(band, g)
        assert np.array_equal(got[:-1], ref) and got[-1] == 0.0


def test_shifted_solve_raises_like_the_scipy_wrappers(rng):
    asm = _Assembly(ModelParams(n=3, a=0.5), solver_nodes(FAST), quad_order=FAST.quad_order)
    g = rng.standard_normal(asm.M)
    diag, off = _seeded_band(rng, asm.M - 1, 0.0)
    indefinite = diag.copy()
    indefinite[40] = -5.0
    with pytest.raises(np.linalg.LinAlgError):
        asm.shifted_solve((indefinite, off), g)
    for bad_band in (True, False):
        band, rhs = (diag, off.copy()), g.copy()
        if bad_band:
            band[1][7] = np.nan
        else:
            rhs[7] = np.nan
        with pytest.raises(ValueError):
            asm.shifted_solve(band, rhs)
    with pytest.raises(ValueError):
        asm.riesz(np.full(asm.M, np.inf))


class _PolishProbe:
    """Stands in for the assembly in ``_newton_refine``: serves the Hessian
    pair ``band``, records each trial vector and accepts the first one."""

    def __init__(self, band):
        self.band, self.trials = band, []

    def hessian_banded(self, u, lam, kappa, nl):
        return self.band

    def grad(self, u, lam, kappa, nl):
        self.trials.append(u)
        return u

    def _residual(self, g):
        return 0.0, None


def test_newton_polish_solves_like_solve_banded_bit_for_bit(rng):
    # the polish's LU solve (LAPACK's dgtsv) is the one scipy's solve_banded
    # makes for a (1, 1) band, with its input checks: the same bits, damping
    # where solve_banded raises LinAlgError and ValueError where it does
    from scipy.linalg import solve_banded

    m = 120
    u = np.zeros(m + 1)

    def polish(band, g):
        probe = _PolishProbe(band)
        es._newton_refine(probe, u, 1.0, None, None, FAST, g, 1.0)
        return probe.trials

    for _ in range(20):
        band = _seeded_band(rng, m, rng.uniform(-4.0, 0.0))  # mostly indefinite
        g = np.append(rng.standard_normal(m), 0.0)
        (trial,) = polish(band, g)
        assert np.array_equal(trial[:-1], solve_banded((1, 1), _general(band), -g[:-1]))
    # a zero first row and column: singular until the damping mu = 1e-8
    diag, off = _seeded_band(rng, m, 0.0)
    diag[0] = off[0] = 0.0
    with pytest.raises(np.linalg.LinAlgError):
        solve_banded((1, 1), _general((diag, off)), -g[:-1])
    (trial,) = polish((diag, off), g)
    assert np.array_equal(trial[:-1], solve_banded((1, 1), _general((diag + 1e-8, off)), -g[:-1]))
    for where in range(3):
        band, rhs = [diag.copy(), off.copy()], g.copy()
        (band[0], band[1], rhs)[where][5] = np.nan
        with pytest.raises(ValueError):
            solve_banded((1, 1), _general(band), -rhs[:-1])
        with pytest.raises(ValueError):
            polish(band, rhs)


@pytest.mark.parametrize("n, a, M", [(3, 0.5, 6400), (10, 0.5, 120), (2, 0.99, 400)])
def test_inner_K_matches_the_per_point_sum(rng, n, a, M):
    # the per-element Klein moments against the Klein slope and mass terms
    # summed at every quadrature point
    asm = _Assembly(ModelParams(n=n, a=a), solver_nodes(SolverConfig(M=M)))
    klein, dual = _klein_weights(asm, n), ((1.0 - asm.R) * (1.0 + asm.R)) ** 2

    def per_point(x, y):
        slope = dual * (asm.slopes(x) * asm.slopes(y))
        return float(np.vdot(klein, slope + asm.at_points(x, asm.M) * asm.at_points(y, asm.M)))

    noise = rng.standard_normal(asm.M)
    noise[-1] = 0.0
    tent = tent_values(asm.nodes)
    for x, y in ((noise, noise), (tent, tent), (noise, tent), (tent, noise)):
        scale = math.sqrt(per_point(x, x) * per_point(y, y))
        assert abs(asm.inner_K(x, y) - per_point(x, y)) <= 1e-13 * scale


def test_inner_K_of_a_vector_with_itself_bit_for_bit(rng):
    asm = _Assembly(ModelParams(n=3, a=0.5), solver_nodes(FAST), quad_order=FAST.quad_order)
    for scale in (1e-3, 1.0, 1e4):
        u = scale * rng.standard_normal(asm.M)
        u[-1] = 0.0
        assert asm.inner_K(u, u) == asm.inner_K(u, u.copy())
        assert asm.h12_norm(u) == math.sqrt(asm.inner_K(u, u.copy()))


def test_scalar_valued_weight_is_sampled_per_point():
    params, nl = ModelParams(n=3, a=0.5), Nonlinearity.default()
    u = RadialFunction.from_values(solver_nodes(FAST), tent_values(solver_nodes(FAST)))
    constant = WeightKappa(kappa=lambda r: 1.0)
    ones = WeightKappa(kappa=lambda r: np.ones_like(np.asarray(r, dtype=float)))
    got = g_functional(u, params, constant, nl)
    assert got > 0.0 and got == g_functional(u, params, ones, nl)


def test_grid_profile_on_another_mesh_is_sampled_at_the_nodes():
    params = ModelParams(n=3, a=0.5)
    kappa, nl = WeightKappa.default(), Nonlinearity.default()
    r = np.linspace(0.01, 0.5, 120)  # same size as the FAST mesh, other nodes
    other = RadialFunction.from_values(r, np.maximum(1.0 - r / 0.4, 0.0))
    sampled = other.u(solver_nodes(FAST))
    table = subquadraticity_diagnostic(other, params, kappa, nl, cfg=FAST)
    assert np.array_equal(table, subquadraticity_diagnostic(sampled, params, kappa, nl, cfg=FAST))
    # a profile on the solver mesh itself keeps its values exactly
    asm = _Assembly(params, solver_nodes(FAST), quad_order=FAST.quad_order)
    own = RadialFunction.from_values(asm.nodes, tent_values(asm.nodes))
    assert np.array_equal(es._mesh_vector(own, asm, "profile"), own.values)
