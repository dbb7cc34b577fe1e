import math

import numpy as np
import pytest

from funkball import (
    BallPoint,
    ModelParams,
    NormReport,
    RadialFunction,
    c1_c2_integrals,
    counterexample_profile,
    divergence_trend,
    federer_fleming_check,
    funk_distance,
    reversibility,
    sphere_area,
    unit_ball_volume,
    w12a_norm,
)
from conftest import random_profile


def test_zero_profile_norms():
    u = RadialFunction.from_callables(
        lambda r: np.zeros_like(np.asarray(r, dtype=float)),
        lambda r: np.zeros_like(np.asarray(r, dtype=float)),
    )
    rep = w12a_norm(u, ModelParams(n=3, a=0.5))
    assert rep.seminorm == rep.mass == rep.total == 0.0
    assert rep.klein_gradient == rep.riemannian == 0.0


def test_a_zero_reduces_to_riemannian(rng):
    params = ModelParams(n=3, a=0.0)
    for _ in range(10):
        u = random_profile(rng)
        rep = w12a_norm(u, params)
        np.testing.assert_allclose(rep.total, rep.riemannian, rtol=1e-10)


def test_norm_sandwich(rng):
    for a in (0.2, 0.5, 0.8):
        params = ModelParams(n=3, a=a)
        lo = (1.0 - a * a) ** ((params.n + 1) / 4.0) / (1.0 + a)
        hi = 1.0 / (1.0 - a)
        for _ in range(50):
            u = random_profile(rng)
            rep = w12a_norm(u, params)
            assert lo * rep.riemannian <= rep.total * (1.0 + 1e-10)
            assert rep.total <= hi * rep.riemannian * (1.0 + 1e-10)


def test_positive_homogeneity(rng):
    params = ModelParams(n=2, a=0.6)
    u = random_profile(rng)
    base = w12a_norm(u, params).total
    for t in (0.25, 3.0):
        np.testing.assert_allclose(w12a_norm(u.scale(t), params).total, t * base, rtol=1e-10)


def test_absolute_homogeneity_only_in_reversible_case(rng):
    u = random_profile(rng, r_support=0.6)
    rep0 = w12a_norm(u, ModelParams(n=2, a=0.0))
    neg0 = w12a_norm(-u, ModelParams(n=2, a=0.0))
    np.testing.assert_allclose(neg0.total, rep0.total, rtol=1e-10)
    repa = w12a_norm(u, ModelParams(n=2, a=0.7))
    nega = w12a_norm(-u, ModelParams(n=2, a=0.7))
    assert abs(nega.seminorm - repa.seminorm) > 1e-6 * repa.seminorm


def test_negation_bounded_by_reversibility(rng):
    for a in (0.2, 0.5, 0.9):
        params = ModelParams(n=3, a=a)
        rF = reversibility(params)
        for _ in range(10):
            u = random_profile(rng)
            tot = w12a_norm(u, params).total
            neg = w12a_norm(-u, params).total
            assert math.isfinite(tot) and math.isfinite(neg)
            assert neg <= rF * tot * (1.0 + 1e-10)


def test_norm_report_serialization():
    rep = NormReport(
        seminorm=1.0, mass=3.0, total=2.0, klein_gradient=0.5, riemannian=1.5, r_max=0.9
    )
    assert rep.to_json_dict() == {
        "seminorm": 1.0,
        "mass": 3.0,
        "total": 2.0,
        "klein_gradient": 0.5,
        "riemannian": 1.5,
        "r_max": 0.9,
    }
    assert rep.to_csv_row() == (1.0, 3.0, 2.0, 0.5, 1.5, 0.9)
    with pytest.raises(ValueError):
        NormReport(seminorm=1.0, mass=1.0, total=5.0, klein_gradient=0.0, riemannian=0.0, r_max=0.5)


# --- boundary root profile -------------------------------------------------

def test_counterexample_values():
    u = counterexample_profile()
    assert u.u(0.0) == pytest.approx(-1.0, abs=1e-15)
    np.testing.assert_allclose(u.du(0.75), 1.0, rtol=1e-14)


def test_counterexample_matches_distance_form():
    # u(r) = -exp(-d(0, x)/2) with the a=1 distance from the origin
    u = counterexample_profile()
    origin = BallPoint(np.zeros(2))
    for r in np.linspace(0.02, 0.95, 20):
        d = funk_distance(origin, BallPoint([r, 0.0]))
        np.testing.assert_allclose(u.u(r), -math.exp(-0.5 * d), atol=1e-12)


def test_c1_limit_and_total_norm():
    c1, c2 = c1_c2_integrals(1.0 - 1e-8, 2)
    assert abs(c1 - math.pi / 12.0) < 1e-6
    # mass of the boundary root profile at a=1 is omega_n/(n+1)
    u = counterexample_profile()
    params = ModelParams(n=2, a=1.0)
    rep = w12a_norm(u, params, 1.0 - 1e-8)
    np.testing.assert_allclose(c1 + rep.mass, 5.0 * math.pi / 12.0, atol=1e-5)
    np.testing.assert_allclose(rep.seminorm, c1, rtol=1e-6)


def test_c1_c2_rejects_bad_truncation():
    with pytest.raises(ValueError):
        c1_c2_integrals(1.0, 2)
    with pytest.raises(ValueError):
        c1_c2_integrals(0.0, 2)


def test_c2_decade_increments():
    radii = [1.0 - 10.0**-k for k in range(1, 10)]
    c2 = [c1_c2_integrals(R, 2)[1] for R in radii]
    assert all(b > a for a, b in zip(c2, c2[1:]))
    per_decade = 2.0 * math.pi * math.log(10.0)
    for k in range(4, 9):
        inc = c2[k] - c2[k - 1]
        assert abs(inc - per_decade) < 0.05 * per_decade


def test_c2_to_c1_ratio_diverges():
    # C1 settles near pi/12 while C2 gains ~14.5 per decade, so the ratio
    # climbs by ~55 per decade without bound; ~4e2 by R = 1-1e-8
    radii = [1.0 - 10.0**-k for k in (2, 4, 6, 8)]
    ratios = [c2 / c1 for c1, c2 in (c1_c2_integrals(R, 2) for R in radii)]
    assert all(b > a for a, b in zip(ratios, ratios[1:]))
    assert ratios[-1] > 4e2


def test_divergence_trend_summary():
    trend = divergence_trend(2)
    np.testing.assert_allclose(trend["slope"], sphere_area(2), rtol=0.05)
    np.testing.assert_allclose(trend["c1_limit"], math.pi / 12.0, rtol=1e-12)
    assert trend["c1_rel_error"] < 1e-6
    with pytest.raises(ValueError):
        divergence_trend(2, [0.9])


def test_divergence_trend_n3():
    trend = divergence_trend(3)
    np.testing.assert_allclose(trend["c1_limit"], unit_ball_volume(3) / 16.0, rtol=1e-12)
    np.testing.assert_allclose(trend["slope"], sphere_area(3), rtol=0.05)
    assert trend["c1_rel_error"] < 1e-5


@pytest.mark.parametrize("n", [2, 3, 10, 30, 100, 171])
def test_divergence_trend_slope_is_n_omega_n(n):
    # the slope between the two largest default radii, where r^(n-1) is
    # within 2e-6 of 1 even at n = 171
    np.testing.assert_allclose(divergence_trend(n)["slope"], sphere_area(n), rtol=1e-5)


def test_divergence_trend_reads_the_two_largest_radii():
    tight = divergence_trend(2, [0.99, 1.0 - 1e-8, 0.9, 1.0 - 1e-9])
    sorted_ = divergence_trend(2, [0.9, 0.99, 1.0 - 1e-8, 1.0 - 1e-9])
    assert tight["slope"] == sorted_["slope"]
    assert tight["c1_rel_error"] == sorted_["c1_rel_error"]
    with pytest.raises(ValueError, match="the two largest truncation radii must differ"):
        divergence_trend(2, [0.5, 0.99, 0.99])


# --- comparison inequalities ----------------------------------------------

def test_federer_fleming_ratio(rng):
    for n in (2, 3, 4):
        params = ModelParams(n=n, a=0.0)
        for _ in range(34):
            u = random_profile(rng)
            lhs, rhs, ratio = federer_fleming_check(u, params)
            assert lhs >= 0.0 and rhs >= 0.0
            assert ratio <= 1.0 + 1e-10


def test_federer_fleming_zero_profile():
    u = RadialFunction.from_callables(
        lambda r: np.zeros_like(np.asarray(r, dtype=float)),
        lambda r: np.zeros_like(np.asarray(r, dtype=float)),
    )
    with pytest.raises(ValueError, match="ratio undefined for a profile with zero gradient"):
        federer_fleming_check(u, ModelParams(n=3, a=0.0))


def test_klein_riemannian_equivalence(rng):
    # ||u||_K <= ||u||_{H^1_2} <= (1 + 4/(n-1)^2)^(1/2) ||u||_K
    for n in (2, 3, 4):
        params = ModelParams(n=n, a=0.0)
        upper = math.sqrt(1.0 + 4.0 / (n - 1) ** 2)
        for _ in range(20):
            u = random_profile(rng)
            rep = w12a_norm(u, params)
            assert rep.klein_gradient <= rep.riemannian * (1.0 + 1e-10)
            assert rep.riemannian <= upper * rep.klein_gradient * (1.0 + 1e-10)
