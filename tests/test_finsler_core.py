import math
from fractions import Fraction

import numpy as np
import pytest

from funkball import (
    BallPoint,
    GeometryError,
    ModelParams,
    beta_norm,
    funk_distance,
    klein_cometric,
    klein_cometric_matrix,
    klein_metric,
    klein_metric_matrix,
    legendre_gradient,
    legendre_gradient_fd,
    polar_F_star,
    polar_F_star_oracle,
    randers_F,
    reversibility,
    reversibility_oracle,
    uniformity_lF,
    volume_density,
)
from funkball.finsler_core import (
    _NORMALS,
    _one_minus_s,
    _randers_F_pair,
    _randers_F_rows,
    _sphere_sample,
)
from conftest import random_ball_point


def scalar_randers_F(params, p, y):
    """F_a(x, y) on a BallPoint and a float array, the scalar formula
    max((sqrt(|y|^2 (1-s) + (x.y)^2) + a x.y) / (1-s), 0) with s = |x|^2."""
    one_s = _one_minus_s(p)
    xy = float(p.x @ y)
    root = math.sqrt(max(float(y @ y) * one_s + xy * xy, 0.0))
    return max((root + params.a * xy) / one_s, 0.0)


def general_randers_polar(params, p, alpha):
    """Independent re-derivation: polar of sqrt(h_K) + beta via the generic
    Randers dual formula, with beta = a*x/(1-|x|^2) fed through h_K*."""
    a = params.a
    s = float(p.x @ p.x)
    beta = a * p.x / (1.0 - s)
    # h_K* as a bilinear form via the cometric matrix
    H = klein_cometric_matrix(p)
    h_ab = float(alpha @ H @ beta)
    h_aa = float(alpha @ H @ alpha)
    h_bb = float(beta @ H @ beta)
    disc = h_ab * h_ab + (1.0 - h_bb) * h_aa
    return (math.sqrt(max(disc, 0.0)) - h_ab) / (1.0 - h_bb)


# --- quadratic forms -------------------------------------------------------

def test_klein_metric_at_origin(rng):
    p = BallPoint(np.zeros(3))
    for _ in range(5):
        y = rng.standard_normal(3)
        np.testing.assert_allclose(klein_metric(p, y), y @ y, rtol=1e-14)


def test_klein_cometric_example():
    p = BallPoint([0.5, 0.0])
    np.testing.assert_allclose(klein_cometric(p, np.array([1.0, 0.0])), 0.5625, rtol=1e-14)


def test_metric_cometric_matrices_inverse(rng, dim):
    for _ in range(200):
        p = BallPoint(random_ball_point(rng, dim))
        G = klein_metric_matrix(p)
        H = klein_cometric_matrix(p)
        np.testing.assert_allclose(G @ H, np.eye(dim), atol=1e-12)


def test_cometric_recovers_metric_through_flat_map(rng):
    for _ in range(50):
        p = BallPoint(random_ball_point(rng, 3))
        y = rng.standard_normal(3)
        alpha = klein_metric_matrix(p) @ y
        np.testing.assert_allclose(klein_cometric(p, alpha), klein_metric(p, y), rtol=1e-11)


# --- the metric family -----------------------------------------------------

def test_randers_F_at_origin(rng):
    for a in (0.0, 0.3, 1.0):
        params = ModelParams(n=3, a=a)
        p = BallPoint(np.zeros(3))
        y = rng.standard_normal(3)
        np.testing.assert_allclose(randers_F(params, p, y), np.linalg.norm(y), rtol=1e-14)


def test_randers_F_outward_radial_funk():
    params = ModelParams(n=2, a=1.0)
    got = randers_F(params, BallPoint([0.5, 0.0]), np.array([1.0, 0.0]))
    np.testing.assert_allclose(got, 2.0, rtol=1e-14)


def test_positive_homogeneity(rng):
    params = ModelParams(n=3, a=0.8)
    for _ in range(30):
        p = BallPoint(random_ball_point(rng, 3))
        y = rng.standard_normal(3)
        F = randers_F(params, p, y)
        for t in (0.5, 2.0, 10.0):
            np.testing.assert_allclose(randers_F(params, p, t * y), t * F, rtol=1e-12)


def test_convexity_in_y(rng):
    params = ModelParams(n=3, a=0.9)
    for _ in range(50):
        p = BallPoint(random_ball_point(rng, 3))
        y1 = rng.standard_normal(3)
        y2 = rng.standard_normal(3)
        lhs = randers_F(params, p, y1 + y2)
        assert lhs <= randers_F(params, p, y1) + randers_F(params, p, y2) + 1e-12


def test_boundary_guard():
    with pytest.raises(GeometryError):
        BallPoint([1.0, 0.0])
    with pytest.raises(GeometryError):
        BallPoint([0.0, 1.0 - 1e-15])


def test_params_validation():
    with pytest.raises(GeometryError):
        ModelParams(n=1, a=0.5)
    with pytest.raises(GeometryError):
        ModelParams(n=2, a=1.1)
    with pytest.raises(GeometryError):
        ModelParams(n=2, a=-0.1)


# --- polar transform -------------------------------------------------------

def test_polar_euclidean_case(rng):
    params = ModelParams(n=3, a=0.0)
    p = BallPoint(np.zeros(3))
    alpha = rng.standard_normal(3)
    np.testing.assert_allclose(polar_F_star(params, p, alpha), np.linalg.norm(alpha), rtol=1e-14)


def _eikonal_covector(x):
    r = np.linalg.norm(x)
    return x / (r * (1.0 - r))


def test_polar_eikonal_identities():
    # +Dd has dual norm 1, -Dd has (1+r)/(1-r)
    params = ModelParams(n=2, a=1.0)
    for r in np.linspace(0.01, 0.99, 100):
        x = np.array([r, 0.0]) if r % 0.02 < 0.01 else np.array([0.0, r])
        p = BallPoint(x)
        alpha = _eikonal_covector(x)
        np.testing.assert_allclose(polar_F_star(params, p, alpha), 1.0, atol=1e-10)
        np.testing.assert_allclose(
            polar_F_star(params, p, -alpha), (1.0 + r) / (1.0 - r), rtol=1e-10
        )


def test_polar_matches_oracle(rng):
    for _ in range(40):
        n = int(rng.integers(2, 5))
        a = float(rng.uniform(0.0, 1.0))
        params = ModelParams(n=n, a=a)
        p = BallPoint(random_ball_point(rng, n, r_cap=0.9))
        alpha = rng.standard_normal(n)
        closed = polar_F_star(params, p, alpha)
        approx = polar_F_star_oracle(params, p, alpha, samples=10000)
        np.testing.assert_allclose(approx, closed, rtol=1e-4)
        assert approx <= closed * (1.0 + 1e-9)  # sup oracle from below


def test_polar_near_the_boundary_at_a_close_to_one():
    # t = <x, alpha> > 0, where sqrt(q) - a (1-s) t cancels by a factor of
    # about 1/(1 - a|x|) = 1e4: evaluated as written it gives
    # 1.5000749033953306e-06 (relative error -6.7e-8), below the sampling
    # oracle, and the Legendre map built on it misses alpha(J*) = F*^2 by
    # 1.7e-10.  The literal is the closed form in 50-digit arithmetic.
    e = np.eye(10)
    params = ModelParams(n=10, a=0.9999)
    p = BallPoint(0.999999 * e[3])
    alpha = 1.5 * e[3]
    closed = polar_F_star(params, p, alpha)
    assert closed == pytest.approx(1.50007500375582e-06, rel=1e-15, abs=0.0)
    assert polar_F_star_oracle(params, p, alpha) <= closed * (1.0 + 1e-14)
    grad = legendre_gradient(params, p, alpha)
    assert float(alpha @ grad) == pytest.approx(closed * closed, rel=1e-12, abs=0.0)
    assert randers_F(params, p, grad) == pytest.approx(closed, rel=1e-14, abs=0.0)


def test_polar_matches_general_randers_formula(rng):
    # re-derivation through the generic dual of sqrt(h) + beta
    for _ in range(100):
        n = int(rng.integers(2, 5))
        a = float(rng.uniform(0.0, 0.999))
        params = ModelParams(n=n, a=a)
        p = BallPoint(random_ball_point(rng, n, r_cap=0.9))
        alpha = rng.standard_normal(n)
        np.testing.assert_allclose(
            polar_F_star(params, p, alpha),
            general_randers_polar(params, p, alpha),
            rtol=1e-10,
        )


def test_polar_oracle_trivial_cases():
    params = ModelParams(n=3, a=0.0)
    p = BallPoint(np.zeros(3))
    assert polar_F_star_oracle(params, p, np.zeros(3), samples=200) == 0.0
    got = polar_F_star_oracle(params, p, np.array([1.0, 0.0, 0.0]), samples=5000)
    assert got <= 1.0 + 1e-12 and got > 1.0 - 1e-6


@pytest.mark.parametrize(
    "a, r, kind, polar_hex, rev_hex",
    [
        (0.0, 0.0, "parallel", "0x1.8000000000000p+0", "0x1.0000000000000p+0"),
        (0.0, 0.0, "perpendicular", "0x1.8000000000000p-1", "0x1.0000000000000p+0"),
        (0.0, 0.999999, "parallel", "0x1.92a729df8cdf2p-19", "0x1.0000000000000p+0"),
        (0.0, 0.999999, "perpendicular", "0x1.160bae71d26afp-10", "0x1.0000000000000p+0"),
        (0.9999, 0.0, "parallel", "0x1.8000000000000p+0", "0x1.0000000000000p+0"),
        (0.9999, 0.0, "perpendicular", "0x1.8000000000000p-1", "0x1.0000000000000p+0"),
        (0.9999, 0.999999, "parallel", "0x1.92ac5e8bf147fp-20", "0x1.3563ffcc9c7afp+14"),
        (0.9999, 0.999999, "perpendicular", "0x1.31aee7658fb1fp-4", "0x1.3563ffcc9c7afp+14"),
        (1.0, 0.0, "parallel", "0x1.8000000000000p+0", "0x1.0000000000000p+0"),
        (1.0, 0.0, "perpendicular", "0x1.8000000000000p-1", "0x1.0000000000000p+0"),
        (1.0, 0.999999, "parallel", "0x1.92a7371140000p-20", "0x1.e847efffc3b1ep+20"),
        (1.0, 0.999999, "perpendicular", "0x1.800000003d8e9p-1", "0x1.e847efffc3b1ep+20"),
    ],
)
def test_oracles_bit_identical(a, r, kind, polar_hex, rev_hex):
    # Pins the oracles' exact bits, so a change to the circle scan or the
    # refinement that moves a last bit is caught, not only one that breaks
    # the 1e-4 tolerances above.  Point and covector lie on coordinate axes,
    # so the directions the refinement scores have two nonzero coordinates
    # and the literals do not hinge on a BLAS's summation order over n terms.
    n = 10
    e = np.eye(n)
    params = ModelParams(n=n, a=a)
    p = BallPoint(r * e[3])
    alpha = 1.5 * e[3] if kind == "parallel" else -0.75 * e[7]
    assert polar_F_star_oracle(params, p, alpha) == float.fromhex(polar_hex)
    assert reversibility_oracle(params, p) == float.fromhex(rev_hex)


def _both_oracles(n, samples, seed):
    e = np.eye(n)
    params = ModelParams(n=n, a=0.9)
    p = BallPoint(0.6 * e[0] - 0.3 * e[1])
    return (
        polar_F_star_oracle(params, p, 1.5 * e[1] - 0.4 * e[0], samples=samples, seed=seed),
        reversibility_oracle(params, p, samples=samples, seed=seed),
    )


def test_sphere_sample_is_shared_and_read_only():
    # the two oracles at one point draw one sample, and a kept sample gives
    # the bits of a fresh one
    _sphere_sample.cache_clear()
    misses = _sphere_sample.cache_info().misses
    warm = _both_oracles(4, 2000, 3)
    assert _sphere_sample.cache_info().misses == misses + 1
    assert _both_oracles(4, 2000, 3) == warm
    _sphere_sample.cache_clear()
    assert _both_oracles(4, 2000, 3) == warm
    Y = _sphere_sample(4, 2000, 3)
    assert not Y.flags.writeable
    with pytest.raises(ValueError):
        Y[0, 0] = 1.0


def test_sphere_sample_interleaved_keys():
    # a new (n, samples, seed) evicts the kept sample and is never served it
    keys = [(3, 500, 0), (5, 500, 0), (3, 500, 0), (3, 800, 0), (3, 500, 1), (3, 500, 0)]
    fresh = {}
    for key in set(keys):
        _sphere_sample.cache_clear()
        fresh[key] = _both_oracles(*key)
    for key in keys:
        assert _both_oracles(*key) == fresh[key]


def test_sphere_sample_is_a_prefix_of_one_kept_stream():
    # default_rng(seed).standard_normal((samples, n)) must be the first
    # samples * n values of one stream, which the kept stream serves to every
    # n; a NumPy that breaks this fails here instead of moving oracle bits
    _sphere_sample.cache_clear()
    _NORMALS.clear()
    order = (6, 2, 10, 3, 9, 4, 8, 5, 7)  # larger n before smaller ones
    for samples in (100, 10000, 20000):
        for seed in (0, 1, 2):
            for n in order:
                kept = _NORMALS.get(seed)
                Y = _sphere_sample(n, samples, seed)
                fresh = np.random.default_rng(seed).standard_normal((samples, n))
                fresh /= np.linalg.norm(fresh, axis=1, keepdims=True)
                assert np.array_equal(Y, fresh)
                (stream,) = _NORMALS.values()
                if kept is not None and kept.size >= samples * n:
                    assert stream is kept  # not redrawn
                for array in (Y, stream):
                    assert not array.flags.writeable
                    with pytest.raises(ValueError):
                        array[0] = 1.0


@pytest.mark.parametrize("a", [0.0, 0.5, 0.9999, 1.0])
def test_unchecked_randers_kernels(rng, a):
    params = ModelParams(n=6, a=a)
    for _ in range(20):
        p = BallPoint(random_ball_point(rng, 6, r_cap=0.999))
        y = rng.standard_normal(6)
        assert scalar_randers_F(params, p, y) == randers_F(params, p, y)
    Y = rng.standard_normal((50, 6))
    fwd, bwd = _randers_F_rows(params, p, Y)
    neg_fwd, neg_bwd = _randers_F_rows(params, p, -Y)
    assert np.array_equal(neg_fwd, bwd) and np.array_equal(neg_bwd, fwd)
    np.testing.assert_allclose(fwd, [randers_F(params, p, y) for y in Y], rtol=1e-13, atol=0.0)
    np.testing.assert_allclose(bwd, [randers_F(params, p, -y) for y in Y], rtol=1e-13, atol=0.0)


@pytest.mark.parametrize("a", [0.0, 0.5, 0.9999, 1.0])
def test_randers_F_pair_is_two_unchecked_calls(rng, a):
    # the kernel of randers_F and of the oracles' refinement, one x.y for
    # F(y) and F(-y): bit for bit the scalar formula on y and on -y
    params = ModelParams(n=6, a=a)
    for r_cap in (0.999999, 0.999, 0.5):
        for _ in range(50):
            p = BallPoint(random_ball_point(rng, 6, r_cap=r_cap))
            y = rng.standard_normal(6)
            assert _randers_F_pair(params, p, y) == (
                scalar_randers_F(params, p, y), scalar_randers_F(params, p, -y)
            )
    p = BallPoint(0.999999 * np.eye(6)[2])
    y = rng.standard_normal(6)
    assert _randers_F_pair(params, p, y) == (
        scalar_randers_F(params, p, y), scalar_randers_F(params, p, -y)
    )


def test_randers_F_still_validates():
    params = ModelParams(n=3, a=0.5)
    p = BallPoint([0.1, 0.2, 0.3])
    with pytest.raises(GeometryError):
        randers_F(params, p, [1.0, math.nan, 0.0])
    with pytest.raises(GeometryError):
        randers_F(params, p, [1.0, 0.0])


def test_polar_oracle_sample_floor():
    params = ModelParams(n=2, a=0.0)
    with pytest.raises(ValueError):
        polar_F_star_oracle(params, BallPoint([0.1, 0.0]), np.array([1.0, 0.0]), samples=10)


def test_double_polar_recovers_F(rng):
    # polar applied twice (oracle over covectors of the dual sphere)
    params = ModelParams(n=2, a=0.6)
    for _ in range(5):
        p = BallPoint(random_ball_point(rng, 2, r_cap=0.7))
        y = rng.standard_normal(2)
        thetas = np.linspace(0.0, 2.0 * math.pi, 4096, endpoint=False)
        best = 0.0
        for th in thetas:
            alpha = np.array([math.cos(th), math.sin(th)])
            val = float(alpha @ y) / polar_F_star(params, p, alpha)
            best = max(best, val)
        np.testing.assert_allclose(best, randers_F(params, p, y), rtol=1e-3)


def test_pointwise_norm_sandwich(rng):
    # (1/(1+a))^2 h_K* <= F*^2 <= (1/(1-a))^2 h_K*
    for a in (0.2, 0.5, 0.8):
        params = ModelParams(n=3, a=a)
        for _ in range(30):
            p = BallPoint(random_ball_point(rng, 3))
            alpha = rng.standard_normal(3)
            hs = klein_cometric(p, alpha)
            Fs2 = polar_F_star(params, p, alpha) ** 2
            assert hs / (1.0 + a) ** 2 <= Fs2 * (1.0 + 1e-12)
            assert Fs2 <= hs / (1.0 - a) ** 2 * (1.0 + 1e-12)


# --- scalar invariants -----------------------------------------------------

def test_beta_norm_examples(rng):
    assert beta_norm(ModelParams(n=2, a=0.0), BallPoint([0.3, 0.1])) == 0.0
    got = beta_norm(ModelParams(n=3, a=0.7), BallPoint([0.5, 0.0, 0.0]))
    np.testing.assert_allclose(got, 0.35, rtol=1e-14)
    # Randers bound approached as |x| -> 1 at a=1
    near = beta_norm(ModelParams(n=2, a=1.0), BallPoint([1.0 - 1e-9, 0.0]))
    assert 1.0 - 1e-8 < near < 1.0


def test_reversibility_values():
    assert reversibility(ModelParams(n=2, a=0.0)) == 1.0
    np.testing.assert_allclose(reversibility(ModelParams(n=2, a=0.5)), 3.0, rtol=1e-15)
    assert math.isinf(reversibility(ModelParams(n=2, a=1.0)))


def test_reversibility_oracle_pointwise(rng):
    params = ModelParams(n=2, a=0.6)
    for r in (0.0, 0.3, 0.7):
        p = BallPoint([r, 0.0])
        expect = (1.0 + params.a * r) / (1.0 - params.a * r)
        got = reversibility_oracle(params, p, samples=4000)
        np.testing.assert_allclose(got, expect, rtol=1e-6)


def test_uniformity_values():
    assert uniformity_lF(ModelParams(n=2, a=0.0)) == 1.0
    np.testing.assert_allclose(uniformity_lF(ModelParams(n=2, a=0.5)), 1.0 / 9.0, rtol=1e-15)
    assert uniformity_lF(ModelParams(n=2, a=1.0)) == 0.0
    for a in np.linspace(0.1, 0.9, 9):
        params = ModelParams(n=2, a=float(a))
        np.testing.assert_allclose(
            uniformity_lF(params), reversibility(params) ** (-2), rtol=1e-13
        )


def test_volume_density_examples():
    p = BallPoint([0.4, -0.2, 0.1])
    assert volume_density(ModelParams(n=3, a=1.0), p) == pytest.approx(1.0, rel=1e-14)
    assert volume_density(ModelParams(n=3, a=0.3), BallPoint(np.zeros(3))) == 1.0
    got = volume_density(ModelParams(n=2, a=0.0), BallPoint([0.5, 0.0]))
    np.testing.assert_allclose(got, 0.75 ** (-1.5), rtol=1e-14)


@pytest.mark.parametrize("k, sign", [(0, 1.0), (3, 1.0), (3, -1.0), (9, 1.0)])
def test_klein_forms_and_density_near_the_boundary(rng, k, sign):
    # 1 - |x|^2 = 2e-6 and 1 - a^2|x|^2 = 2e-4: subtracting the rounded
    # squares from 1 misses these references by 4e-11 to 2.3e-10.  The point
    # lies on an axis, so |x| is exact and the references are exact in
    # the point's coordinates up to the final rounding.
    n, a = 10, 0.9999
    x = sign * 0.999999 * np.eye(n)[k]
    p = BallPoint(x)
    X = [Fraction(v) for v in x]
    one_s = 1 - sum(v * v for v in X)
    A = Fraction(a)

    def dot(u, v):
        return sum(Fraction(ui) * Fraction(vi) for ui, vi in zip(u, v))

    def close(got, want):
        np.testing.assert_allclose(got, np.vectorize(float)(want), rtol=1e-13, atol=0.0)

    ratio = (1 - A * A * (1 - one_s)) / one_s
    close(volume_density(ModelParams(n=n, a=a), p), float(ratio) ** (0.5 * (n + 1)))
    eye = np.eye(n, dtype=object)
    close(klein_metric_matrix(p), [[eye[i, j] / one_s + X[i] * X[j] / one_s**2
                                    for j in range(n)] for i in range(n)])
    close(klein_cometric_matrix(p), [[one_s * (eye[i, j] - X[i] * X[j])
                                      for j in range(n)] for i in range(n)])
    for alpha in (rng.standard_normal(n), 1.5 * x, x + 1e-3 * rng.standard_normal(n)):
        y = rng.standard_normal(n)
        close(klein_metric(p, y), (dot(y, y) * one_s + dot(x, y) ** 2) / one_s**2)
        close(klein_cometric(p, alpha), one_s * (dot(alpha, alpha) - dot(x, alpha) ** 2))


# --- Legendre transform ----------------------------------------------------

def test_legendre_euclidean_identity(rng):
    params = ModelParams(n=3, a=0.0)
    p = BallPoint(np.zeros(3))
    alpha = rng.standard_normal(3)
    np.testing.assert_allclose(legendre_gradient(params, p, alpha), alpha, atol=1e-14)


def test_legendre_zero_convention():
    params = ModelParams(n=2, a=0.7)
    out = legendre_gradient(params, BallPoint([0.2, 0.1]), np.zeros(2))
    assert np.all(out == 0.0)


def test_legendre_duality_identities(rng):
    for _ in range(200):
        n = int(rng.integers(2, 5))
        a = float(rng.uniform(0.0, 1.0))
        params = ModelParams(n=n, a=a)
        p = BallPoint(random_ball_point(rng, n, r_cap=0.9))
        alpha = rng.standard_normal(n)
        Fs = polar_F_star(params, p, alpha)
        grad = legendre_gradient(params, p, alpha)
        np.testing.assert_allclose(float(alpha @ grad), Fs * Fs, rtol=1e-8)
        np.testing.assert_allclose(randers_F(params, p, grad), Fs, rtol=1e-8)


def test_legendre_matches_finite_differences(rng):
    for _ in range(20):
        params = ModelParams(n=3, a=float(rng.uniform(0.0, 0.95)))
        p = BallPoint(random_ball_point(rng, 3, r_cap=0.8))
        alpha = rng.standard_normal(3)
        exact = legendre_gradient(params, p, alpha)
        approx = legendre_gradient_fd(params, p, alpha)
        np.testing.assert_allclose(approx, exact, rtol=2e-5, atol=1e-8)


def test_legendre_eikonal_unit_speed():
    params = ModelParams(n=2, a=1.0)
    x = np.array([0.35, 0.2])
    p = BallPoint(x)
    alpha = _eikonal_covector(x)
    grad = legendre_gradient(params, p, alpha)
    np.testing.assert_allclose(randers_F(params, p, grad), 1.0, rtol=1e-12)


def test_legendre_monotonicity(rng):
    # (alpha-beta)(J*(alpha)-J*(beta)) >= l_F(x) F*^2(x, alpha-beta)
    params = ModelParams(n=3, a=0.6)
    for _ in range(60):
        p = BallPoint(random_ball_point(rng, 3, r_cap=0.9))
        lf_pt = ((1.0 - params.a * p.r) / (1.0 + params.a * p.r)) ** 2
        al = rng.standard_normal(3)
        be = rng.standard_normal(3)
        lhs = float((al - be) @ (legendre_gradient(params, p, al) - legendre_gradient(params, p, be)))
        rhs = lf_pt * polar_F_star(params, p, al - be) ** 2
        assert lhs >= rhs - 1e-10 * (1.0 + abs(lhs))


# --- distances -------------------------------------------------------------

def test_funk_distance_from_origin(rng):
    for _ in range(20):
        x = random_ball_point(rng, 2, r_cap=0.95)
        d = funk_distance(BallPoint(np.zeros(2)), BallPoint(x))
        np.testing.assert_allclose(d, -math.log(1.0 - np.linalg.norm(x)), rtol=1e-12)


def test_funk_distance_to_origin(rng):
    for _ in range(20):
        x = random_ball_point(rng, 3, r_cap=0.95)
        d = funk_distance(BallPoint(x), BallPoint(np.zeros(3)))
        np.testing.assert_allclose(d, math.log(1.0 + np.linalg.norm(x)), rtol=1e-12)


def test_funk_distance_identity_and_asymmetry(rng):
    p = BallPoint([0.3, -0.4])
    assert funk_distance(p, p) == pytest.approx(0.0, abs=1e-14)
    # |q| != |p|: the distance is symmetric on equal-radius pairs
    q = BallPoint([0.65, 0.0])
    assert funk_distance(p, q) != pytest.approx(funk_distance(q, p), rel=1e-3)


def test_funk_directed_triangle_inequality(rng):
    for _ in range(100):
        pts = [BallPoint(random_ball_point(rng, 2, r_cap=0.9)) for _ in range(3)]
        d02 = funk_distance(pts[0], pts[2])
        d01 = funk_distance(pts[0], pts[1])
        d12 = funk_distance(pts[1], pts[2])
        assert d02 <= d01 + d12 + 1e-12


def test_funk_distance_nonnegative(rng):
    for _ in range(50):
        p = BallPoint(random_ball_point(rng, 3, r_cap=0.9))
        q = BallPoint(random_ball_point(rng, 3, r_cap=0.9))
        assert funk_distance(p, q) >= 0.0
