import math

import numpy as np
import pytest

from funkball import (
    ModelParams,
    QuadratureConfig,
    ball_integral_mc,
    measure_density,
    radial_grid,
    radial_integral,
    sphere_area,
    unit_ball_volume,
)

TIGHT = QuadratureConfig(r_max=1.0 - 1e-8)


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
    grid = radial_grid(QuadratureConfig(m=32, r_max=0.9))
    assert np.all(np.diff(grid.nodes) > 0)
    assert np.all(grid.weights > 0)
    assert grid.nodes[0] > 0 and grid.nodes[-1] <= 0.9


def test_grid_is_built_once_and_read_only():
    cfg = QuadratureConfig(m=16, r_max=0.9)
    grid = radial_grid(cfg)
    assert radial_grid(cfg) is grid
    assert radial_grid(QuadratureConfig(m=16, r_max=0.9)) is grid
    assert not grid.nodes.flags.writeable and not grid.weights.flags.writeable
    nodes = grid.nodes.copy()
    params = ModelParams(n=3, a=0.5)
    before = radial_integral(lambda r: r, params, "klein", cfg)

    def doubling(r):
        r *= 2.0  # on the shared array this raises; each entry is then doubled
        return r

    np.testing.assert_allclose(
        radial_integral(doubling, params, "klein", cfg), 2.0 * before, rtol=1e-14
    )
    assert radial_integral(lambda r: r, params, "klein", cfg) == before
    np.testing.assert_array_equal(grid.nodes, nodes)
    assert grid.nodes[0] > 0 and grid.nodes[-1] <= 0.9


def test_convergence_with_node_count():
    # smooth integrand, fixed truncation: error should drop fast with m
    params = ModelParams(n=2, a=0.5)
    exact = radial_integral(
        lambda r: np.cos(3.0 * r), params, "klein", QuadratureConfig(m=96, r_max=0.9)
    )
    errs = []
    for m in (8, 16):
        got = radial_integral(
            lambda r: np.cos(3.0 * r), params, "klein", QuadratureConfig(m=m, r_max=0.9)
        )
        errs.append(abs(got - exact))
    assert errs[1] < errs[0] * 1e-3 or errs[1] < 1e-14


def test_measure_density_consistency(dim):
    params = ModelParams(n=dim, a=0.7)
    r = radial_grid(QuadratureConfig(m=16)).nodes
    fins = measure_density(params, r, "finsler_a")
    klein = measure_density(params, r, "klein")
    expect = (1.0 - (params.a * r) ** 2) ** (0.5 * (dim + 1))
    np.testing.assert_allclose(fins / klein, expect, rtol=1e-13)


def test_truncation_monotonicity():
    params = ModelParams(n=2, a=0.0)
    vals = [
        radial_integral(
            lambda r: np.ones_like(r), params, "klein", QuadratureConfig(r_max=R)
        )
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
    ref = radial_integral(f_rad, params, "finsler_a", QuadratureConfig(r_max=0.9))
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
    with pytest.raises(ValueError):
        QuadratureConfig(m=4)
    with pytest.raises(ValueError):
        QuadratureConfig(r_max=1.0)
