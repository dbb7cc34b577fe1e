import math

import numpy as np
import pytest

from funkball import (
    BallPoint,
    ModelParams,
    ball_integral_mc,
    gauss_panels,
    measure_density,
    radial_grid,
    radial_integral,
    sphere_area,
    unit_ball_volume,
    volume_density,
)
from funkball.quadrature import PANEL_POINTS, R_MAX

TIGHT = 1.0 - 1e-8


def test_unit_ball_volume_known_values():
    np.testing.assert_allclose(unit_ball_volume(2), math.pi, rtol=1e-15)
    np.testing.assert_allclose(unit_ball_volume(3), 4.0 * math.pi / 3.0, rtol=1e-15)
    np.testing.assert_allclose(unit_ball_volume(4), math.pi**2 / 2.0, rtol=1e-15)
    np.testing.assert_allclose(unit_ball_volume(5), 8.0 * math.pi**2 / 15.0, rtol=1e-15)


def test_unit_ball_volume_beyond_the_float_range_of_factorials():
    # 172! overflows a float, but omega_171 ~ 1.2e-87 does not; against the
    # recurrence omega_n = 2 pi / n omega_(n-2)
    vol = unit_ball_volume(171)
    assert 0.0 < vol < math.inf
    np.testing.assert_allclose(vol, 2.0 * math.pi / 171.0 * unit_ball_volume(169), rtol=1e-14)
    with pytest.raises(ValueError, match=r"Gamma\(201.0\) exceeds the float range"):
        unit_ball_volume(400)


def test_sphere_area_known_values():
    np.testing.assert_allclose(sphere_area(2), 2.0 * math.pi, rtol=1e-15)
    np.testing.assert_allclose(sphere_area(3), 4.0 * math.pi, rtol=1e-15)


def test_funk_volume_of_ball_is_lebesgue(dim):
    # at a=1 the volume density is 1, so the ball volume comes out
    params = ModelParams(n=dim, a=1.0)
    got = radial_integral(lambda r: np.ones_like(r), params, "finsler_a", TIGHT)
    np.testing.assert_allclose(got, unit_ball_volume(dim), rtol=1e-7)


def test_one_minus_r_against_closed_form():
    params = ModelParams(n=2, a=1.0)
    got = radial_integral(lambda r: 1.0 - r, params, "finsler_a", TIGHT)
    np.testing.assert_allclose(got, math.pi / 3.0, rtol=1e-8)


def test_zero_integrand():
    params = ModelParams(n=3, a=0.5)
    assert radial_integral(lambda r: np.zeros_like(r), params, "klein") == 0.0


def test_nonfinite_integrand_rejected():
    params = ModelParams(n=2, a=0.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        with pytest.raises(ValueError):
            radial_integral(lambda r: 1.0 / (r - r), params, "lebesgue")


def test_grid_invariants():
    grid = radial_grid(0.9)
    assert grid.nodes.size % PANEL_POINTS == 0
    assert np.all(np.diff(grid.nodes) > 0)
    assert np.all(grid.weights > 0)
    assert grid.nodes[0] > 0 and grid.nodes[-1] <= 0.9


def test_grid_is_built_once_and_read_only():
    grid = radial_grid(0.9)
    assert radial_grid(0.9) is grid
    assert not grid.nodes.flags.writeable and not grid.weights.flags.writeable
    nodes = grid.nodes.copy()
    params = ModelParams(n=3, a=0.5)
    before = radial_integral(lambda r: r, params, "klein", 0.9)

    def doubling(r):
        r *= 2.0  # on the shared array this raises; each entry is then doubled
        return r

    np.testing.assert_allclose(
        radial_integral(doubling, params, "klein", 0.9), 2.0 * before, rtol=1e-14
    )
    assert radial_integral(lambda r: r, params, "klein", 0.9) == before
    np.testing.assert_array_equal(grid.nodes, nodes)
    assert grid.nodes[0] > 0 and grid.nodes[-1] <= 0.9


def test_convergence_with_node_count():
    # smooth integrand (cos(3r) against the n = 2 Klein density), fixed
    # panels: the error should drop fast with the points per panel m
    edges = [0.0, 0.5, 0.75, 0.875, 0.9]

    def rule(m):
        r, w = gauss_panels(edges, m)
        assert r.shape == w.shape == (len(edges) - 1, m)
        return float(np.sum(w * np.cos(3.0 * r) * r * (1.0 - r * r) ** -1.5))

    exact = rule(96)
    errs = [abs(rule(m) - exact) for m in (8, 16)]
    assert errs[1] < errs[0] * 1e-3 or errs[1] < 1e-14


def test_gauss_panels_keep_the_bits_of_a_fresh_rule():
    # each order's rule is computed once and shared, so a caller that writes
    # into returned arrays must not reach a later call
    edges = np.array([0.0, 0.5, 0.9])
    gx, gw = np.polynomial.legendre.leggauss(8)
    half = 0.5 * np.diff(edges)[:, None]
    for _ in range(2):
        r, w = gauss_panels(edges, 8)
        assert np.array_equal(r, edges[:-1, None] + half * (gx + 1.0))
        assert np.array_equal(w, half * gw)
        r[...], w[...] = np.nan, np.nan


def test_measure_density_consistency(dim):
    params = ModelParams(n=dim, a=0.7)
    r = radial_grid(R_MAX).nodes
    fins = measure_density(params, r, "finsler_a")
    klein = measure_density(params, r, "klein")
    expect = (1.0 - (params.a * r) ** 2) ** (0.5 * (dim + 1))
    np.testing.assert_allclose(fins / klein, expect, rtol=1e-13)


@pytest.mark.parametrize("n, a", [(3, 0.5), (10, 0.9999), (10, 0.0), (2, 0.99)])
def test_measure_density_is_the_volume_density_near_the_boundary(n, a):
    # 1 - r^2 and 1 - a^2 r^2 formed without cancellation, as volume_density
    # forms them
    params = ModelParams(n=n, a=a)
    radii = np.array([0.999, 1.0 - 1e-6, 1.0 - 1e-9, 1.0 - 1e-12])
    got = measure_density(params, radii, "finsler_a")
    expect = [volume_density(params, BallPoint(r * np.eye(n)[0])) for r in radii]
    np.testing.assert_allclose(got, expect, rtol=1e-15, atol=0.0)


def test_truncation_monotonicity():
    params = ModelParams(n=2, a=0.0)
    vals = [
        radial_integral(lambda r: np.ones_like(r), params, "klein", R)
        for R in (0.5, 0.9, 0.99, 0.999)
    ]
    assert all(b > a for a, b in zip(vals, vals[1:]))


def test_mc_ball_volume():
    params = ModelParams(n=3, a=1.0)
    est, se = ball_integral_mc(lambda x: np.ones(x.shape[0]), params, "finsler_a", 40000, seed=7)
    assert abs(est - unit_ball_volume(3)) < 3.0 * se + 1e-12


def test_mc_agrees_with_radial():
    # same truncation on both sides; the density is not integrable up to 1
    params = ModelParams(n=2, a=0.5)
    f_rad = lambda r: 1.0 / (1.0 + r * r)
    ref = radial_integral(f_rad, params, "finsler_a", 0.9)
    est, se = ball_integral_mc(
        lambda x: f_rad(np.linalg.norm(x, axis=-1)),
        params,
        "finsler_a",
        60000,
        seed=3,
        r_max=0.9,
    )
    assert abs(est - ref) < 3.0 * se


def test_mc_odd_integrand_vanishes():
    params = ModelParams(n=3, a=0.0)
    est, se = ball_integral_mc(lambda x: x[:, 0] ** 3, params, "lebesgue", 30000, seed=11)
    assert abs(est) < 3.0 * se + 1e-12


def test_mc_deterministic_for_fixed_seed():
    params = ModelParams(n=2, a=0.3)
    a1 = ball_integral_mc(lambda x: np.cos(x[:, 0]), params, "klein", 5000, seed=42)
    a2 = ball_integral_mc(lambda x: np.cos(x[:, 0]), params, "klein", 5000, seed=42)
    assert a1 == a2


def test_mc_sample_floor():
    params = ModelParams(n=2, a=0.0)
    with pytest.raises(ValueError):
        ball_integral_mc(lambda x: np.ones(x.shape[0]), params, "lebesgue", 10, seed=0)


def test_config_bounds():
    params = ModelParams(n=2, a=0.0)
    for r_max in (1.0, 0.0, -0.5, math.nan):
        with pytest.raises(ValueError, match=r"r_max must lie in \(0, 1\), got"):
            radial_grid(r_max)
        with pytest.raises(ValueError, match=r"r_max must lie in \(0, 1\), got"):
            radial_integral(lambda r: np.ones_like(r), params, "lebesgue", r_max)
