"""Closed-form metric calculus for the Funk-type metric family on the ball.

The family interpolates, through a parameter ``a`` in [0, 1], between the
Klein model of hyperbolic space (a = 0) and the non-reversible Funk metric
(a = 1).  On the open unit ball, with s = |x|^2,

    F_a(x, y) = ( sqrt(|y|^2 (1-s) + <x,y>^2) + a <x,y> ) / (1 - s),

a Randers-type norm on each tangent space: the Klein norm perturbed by the
one-form beta = a*x/(1-s).  Every quantity here (dual norm, Legendre map,
volume density, reversibility, distance) has an exact closed form, and each
closed form is paired with a brute-force sampling oracle so transcription
errors in either path are caught by the tests.

All functions are pure; inputs are never mutated.
"""

import functools
import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "BallPoint",
    "GeometryError",
    "ModelParams",
    "beta_norm",
    "funk_distance",
    "klein_cometric",
    "klein_cometric_matrix",
    "klein_metric",
    "klein_metric_matrix",
    "legendre_gradient",
    "legendre_gradient_fd",
    "polar_F_star",
    "polar_F_star_oracle",
    "randers_F",
    "reversibility",
    "reversibility_oracle",
    "uniformity_lF",
    "volume_density",
]

# Constructors reject points this close to the boundary: every closed form
# divides by (1 - |x|^2), which is catastrophically ill-conditioned there.
BOUNDARY_GUARD = 1e-14
#: The oracles' circle scan: equally spaced angles, then a golden-section
#: refinement of the best one to this bracket width.
CIRCLE_ANGLES = 512
CIRCLE_TOL = 1e-10
#: Step of the central differences in :func:`legendre_gradient_fd`.
FD_STEP = 1e-6


class GeometryError(ValueError):
    """Invalid geometric input (point outside the ball, a = 1 where
    a < 1 is required, inconsistent dimensions, ...)."""


@dataclass(frozen=True)
class ModelParams:
    """Dimension and interpolation parameter of the metric family.

    ``a = 0`` is the Klein model, ``a = 1`` the Funk model; operations that
    are only defined for a < 1 must call :meth:`require_a_below_one`.
    """

    n: int
    a: float

    def __post_init__(self):
        if int(self.n) != self.n or self.n < 2:
            raise GeometryError(f"dimension must be an integer >= 2, got {self.n}")
        object.__setattr__(self, "n", int(self.n))
        if not 0.0 <= self.a <= 1.0:
            raise GeometryError(f"interpolation parameter must lie in [0, 1], got {self.a}")
        object.__setattr__(self, "a", float(self.a))

    def require_a_below_one(self, what):
        if self.a >= 1.0:
            why = "at a = 1 the function class is not closed under negation"
            raise GeometryError(f"{what} requires a < 1 (got a = {self.a}): {why}")


class BallPoint:
    """A point strictly inside the unit ball.

    Rejects |x| >= 1 - 1e-14; the guard keeps (1 - |x|^2) well away from
    rounding noise.  The stored coordinate array is read-only.
    """

    __slots__ = ("x", "r")

    def __init__(self, x):
        if isinstance(x, BallPoint):
            object.__setattr__(self, "x", x.x)
            object.__setattr__(self, "r", x.r)
            return
        arr = np.array(x, dtype=float).reshape(-1)
        if arr.size < 2:
            raise GeometryError("points need at least 2 coordinates")
        if not np.all(np.isfinite(arr)):
            raise GeometryError("point coordinates must be finite")
        r = float(np.linalg.norm(arr))
        if r >= 1.0 - BOUNDARY_GUARD:
            raise GeometryError(f"|x| = {r} is not strictly inside the unit ball")
        arr.flags.writeable = False
        object.__setattr__(self, "x", arr)
        object.__setattr__(self, "r", r)

    def __setattr__(self, name, value):
        raise AttributeError("BallPoint is immutable")

    def __repr__(self):
        return f"BallPoint({self.x.tolist()})"

    @property
    def n(self):
        return self.x.size


def _point(p):
    return p if isinstance(p, BallPoint) else BallPoint(p)


def _vec(v, n, name):
    arr = np.asarray(v, dtype=float).reshape(-1)
    if arr.size != n:
        raise GeometryError(f"{name} has length {arr.size}, expected {n}")
    if not np.all(np.isfinite(arr)):
        raise GeometryError(f"{name} must be finite")
    return arr


def _one_minus_s(p):
    """1 - s with s = |x|^2, formed as (1 - |x|)(1 + |x|), exact in 1 - |x|
    for |x| >= 1/2: subtracting the rounded square from 1 would lose
    eps / (1 - s) of relative accuracy near the boundary."""
    return (1.0 - p.r) * (1.0 + p.r)


def _split(p, alpha):
    """(c, perp) with alpha = perp + c x/|x| and perp orthogonal to x."""
    if p.r == 0.0:
        return 0.0, alpha
    c = float(p.x @ alpha) / p.r
    return c, alpha - (c / p.r) * p.x


# ---------------------------------------------------------------------------
# Klein metric and co-metric
# ---------------------------------------------------------------------------

def klein_metric_matrix(p):
    """Matrix of the Klein metric: delta_ij/(1-s) + x_i x_j/(1-s)^2."""
    p = _point(p)
    one_s = _one_minus_s(p)
    return np.eye(p.n) / one_s + np.outer(p.x, p.x) / one_s**2


def klein_cometric_matrix(p):
    """Inverse Klein matrix: (1-s) (delta_ij - x_i x_j), with each diagonal
    1 - x_i^2 formed as (1 - x_i)(1 + x_i)."""
    p = _point(p)
    m = -np.outer(p.x, p.x)
    np.fill_diagonal(m, (1.0 - p.x) * (1.0 + p.x))
    return _one_minus_s(p) * m


def klein_metric(p, y):
    """Klein quadratic form h_K(y, y) = (|y|^2 (1-s) + <x,y>^2) / (1-s)^2."""
    p = _point(p)
    y = _vec(y, p.n, "tangent vector")
    one_s = _one_minus_s(p)
    return (float(y @ y) * one_s + float(p.x @ y) ** 2) / one_s**2


def klein_cometric(p, alpha):
    """Dual Klein form h_K*(alpha, alpha) = (1-s)(|alpha|^2 - <x,alpha>^2).

    Formed as (1-s)(|perp|^2 + (1-s) c^2) from the split of :func:`_split`,
    whose terms are non-negative: the difference cancels for alpha near
    the direction of x.
    """
    p = _point(p)
    alpha = _vec(alpha, p.n, "covector")
    one_s = _one_minus_s(p)
    c, perp = _split(p, alpha)
    return one_s * (float(perp @ perp) + one_s * c * c)


# ---------------------------------------------------------------------------
# The interpolating metric, its dual, and derived constants
# ---------------------------------------------------------------------------

def randers_F(params, p, y):
    """Norm F_a(x, y) of a tangent vector."""
    p = _point(p)
    return _randers_F_pair(params, p, _vec(y, p.n, "tangent vector"))[0]


def _randers_F_rows(params, p, Y):
    """F_a over the rows of Y and over the rows of -Y, as two arrays; used
    by the oracles' random-sample sweep and by their coarse circle scan.

    Both come from one Y @ x and one |y|^2: negation is exact, so
    root - a xy is bit for bit the root + a ((-Y) @ x) of a separate call
    on -Y, which therefore need not be formed.
    """
    one_s = _one_minus_s(p)
    xy = Y @ p.x
    yy = np.einsum("ij,ij->i", Y, Y)
    root = np.sqrt(np.maximum(yy * one_s + xy * xy, 0.0))
    axy = params.a * xy
    return (np.maximum((root + axy) / one_s, 0.0),
            np.maximum((root - axy) / one_s, 0.0))


def _randers_F_pair(params, p, y):
    """F_a(x, y) and F_a(x, -y) from one x.y and one |y|^2 on a
    :class:`BallPoint` and a finite float array of its dimension, unchecked:
    the scalar twin of :func:`_randers_F_rows`.  :func:`randers_F` and the
    oracles' refinement, which builds its own directions, read its first
    entry."""
    one_s = _one_minus_s(p)
    xy = float(p.x @ y)
    root = math.sqrt(max(float(y @ y) * one_s + xy * xy, 0.0))
    axy = params.a * xy
    return max((root + axy) / one_s, 0.0), max((root - axy) / one_s, 0.0)


def _one_minus_ar(a, r):
    """(1 - a r, 1 + a r) for a, r in [0, 1].  1 - a r is formed as
    (1 - r) + (1 - a) r, exact in 1 - r for r >= 1/2: subtracting the rounded
    a*r from 1 would lose eps / (1 - a r) of relative accuracy."""
    return (1.0 - r) + (1.0 - a) * r, 1.0 + a * r


def _dual_parts(params, p, alpha):
    """Pieces of the dual norm at x, formed without cancellation: 1 - s and
    1 - a^2 s with s = |x|^2 (through 1 - |x| and 1 - a|x|), the split
    alpha = perp + c x/|x| and the radicand

        q = (1-s)(1-a^2 s)|alpha|^2 - (1-a^2)(1-s) <x, alpha>^2
          = (1-s)((1-a^2 s)|perp|^2 + (1-s) c^2),

    from its second expression, whose terms are all non-negative.
    """
    down, up = _one_minus_ar(params.a, p.r)
    one_s = _one_minus_s(p)
    c, perp = _split(p, alpha)
    return one_s, down * up, c, perp, one_s * (down * up * float(perp @ perp) + one_s * c * c)


def polar_F_star(params, p, alpha):
    """Dual norm of a covector.

    Closed form, with s = |x|^2, t = <x, alpha> and the radicand q of
    :func:`_dual_parts`:

        ( sqrt(q) - a (1-s) t ) / (1 - a^2 s).

    For t > 0 the numerator cancels by a factor of about 1/(1 - a|x|); there
    the same value is formed as (1-s)(|alpha|^2 - t^2) / (sqrt(q) + a (1-s) t),
    with |alpha|^2 - t^2 = |perp|^2 + (1-s) c^2.
    """
    p = _point(p)
    alpha = _vec(alpha, p.n, "covector")
    one_s, one_a2s, c, perp, q = _dual_parts(params, p, alpha)
    at = params.a * one_s * p.r * c  # a (1-s) t
    if c > 0.0:
        return one_s * (float(perp @ perp) + one_s * c * c) / (math.sqrt(q) + at)
    return (math.sqrt(q) - at) / one_a2s


def beta_norm(params, p):
    """Norm of the drift one-form, which equals a*|x|.

    The closed form is cross-checked on the spot against the quadratic-form
    route through :func:`klein_cometric`; a mismatch raises.  The check
    tolerance is 1e-12 plus the rounding bound of the cancellation inside
    the quadratic form, which grows near the boundary.
    """
    p = _point(p)
    one_s = _one_minus_s(p)
    value = params.a * p.r
    beta = params.a * p.x / one_s
    direct = math.sqrt(max(klein_cometric(p, beta), 0.0))
    # |beta|^2 - <x,beta>^2 cancels to O(eps/(1-s)) relative accuracy.
    cond = 32.0 * np.finfo(float).eps * params.a * p.r / max(one_s, 1e-300)
    if abs(direct - value) > 1e-12 + cond:
        raise GeometryError(
            f"drift-norm cross-check failed: closed form {value}, quadratic form {direct}"
        )
    return value


def reversibility(params):
    """Largest ratio F(x,y)/F(x,-y) over the ball: (1+a)/(1-a), or inf at a = 1."""
    if params.a >= 1.0:
        return math.inf
    return (1.0 + params.a) / (1.0 - params.a)


def uniformity_lF(params):
    """Uniformity constant ((1-a)/(1+a))^2; degenerates to 0 at a = 1.

    This is the modulus in the monotonicity inequality of the Legendre map,
    and the reciprocal square of :func:`reversibility`.
    """
    if params.a >= 1.0:
        return 0.0
    return ((1.0 - params.a) / (1.0 + params.a)) ** 2


def volume_density(params, p):
    """Density of the canonical volume against Lebesgue measure.

    ((1 - a^2 |x|^2) / (1 - |x|^2))^((n+1)/2); identically 1 at a = 1.
    Both differences are formed without cancellation, through
    :func:`_one_minus_ar` and :func:`_one_minus_s`.
    """
    p = _point(p)
    down, up = _one_minus_ar(params.a, p.r)
    return float((down * up / _one_minus_s(p)) ** (0.5 * (params.n + 1)))


# ---------------------------------------------------------------------------
# Legendre transform
# ---------------------------------------------------------------------------

def legendre_gradient(params, p, alpha):
    """Legendre map J*(x, alpha): the gradient of (1/2) F_a*^2 in alpha.

    Maps the derivative covector of a function to its metric gradient
    vector.  Satisfies alpha(J*(alpha)) = F*^2(x, alpha) and
    F(x, J*(alpha)) = F*(x, alpha).  The zero covector maps to the zero
    vector by convention (the one-sided limit along every ray).
    """
    p = _point(p)
    alpha = _vec(alpha, p.n, "covector")
    if not np.any(alpha):
        return np.zeros(p.n)
    a, r = params.a, p.r
    one_s, one_a2s, c, perp, q = _dual_parts(params, p, alpha)
    root = math.sqrt(q)
    # J* = F* (1-s)/sqrt(q) (perp + k x/|x|), k = ((1-s) c - a r sqrt(q)) / (1 - a^2 s);
    # for c > 0 the numerator of k cancels, and k is formed from its conjugate
    if c > 0.0:
        k = one_s * (one_s * c * c - (a * r) ** 2 * float(perp @ perp)) / (one_s * c + a * r * root)
    else:
        k = (one_s * c - a * r * root) / one_a2s
    along = p.x * (k / r) if r > 0.0 else 0.0
    return (polar_F_star(params, p, alpha) * one_s / root) * (perp + along)


def legendre_gradient_fd(params, p, alpha):
    """Central finite differences of (1/2) F_a*^2 with step :data:`FD_STEP`;
    cross-check for the exact map."""
    p = _point(p)
    alpha = _vec(alpha, p.n, "covector")
    grad = np.zeros(p.n)
    for i in range(p.n):
        e = np.zeros(p.n)
        e[i] = FD_STEP
        fp = polar_F_star(params, p, alpha + e) ** 2
        fm = polar_F_star(params, p, alpha - e) ** 2
        grad[i] = (fp - fm) / (4.0 * FD_STEP)
    return grad


# ---------------------------------------------------------------------------
# Distance for the Funk case
# ---------------------------------------------------------------------------

def funk_distance(p1, p2):
    """Non-symmetric distance of the a = 1 metric between two interior points.

    d(x1, x2) = ln( (A - <x1, x2-x1>) / (A - <x2, x2-x1>) ) with
    A = sqrt(|x1-x2|^2 - (|x1|^2 |x2|^2 - <x1,x2>^2)); in particular
    d(0, x) = -ln(1 - |x|), infinite toward the boundary, and d(x, 0) =
    ln(1 + |x|) < ln 2 coming back; directed: only d(x,z) <= d(x,y) + d(y,z) holds.
    """
    p1, p2 = _point(p1), _point(p2)
    if p1.n != p2.n:
        raise GeometryError("points must share a dimension")
    d = p2.x - p1.x
    dd = float(d @ d)
    if dd == 0.0:
        return 0.0
    gram = (p1.r * p2.r) ** 2 - float(p1.x @ p2.x) ** 2
    root = math.sqrt(max(dd - gram, 0.0))
    num = root - float(p1.x @ d)
    den = root - float(p2.x @ d)
    return math.log(num / den)


# ---------------------------------------------------------------------------
# Brute-force oracles
# ---------------------------------------------------------------------------

def _orthonormal_pair(u, v):
    """Orthonormal basis of span{u, v}, padding with a coordinate axis when
    the span degenerates."""
    n = u.size
    nu = np.linalg.norm(u)
    if nu < 1e-13:
        u, v = v, u
        nu = np.linalg.norm(u)
    e1 = u / nu
    w = v - (v @ e1) * e1
    nw = np.linalg.norm(w)
    if nw < 1e-12 * max(1.0, np.linalg.norm(v)):
        k = int(np.argmin(np.abs(e1)))
        w = np.zeros(n)
        w[k] = 1.0
        w -= (w @ e1) * e1
        nw = np.linalg.norm(w)
    return e1, w / nw


def _golden_max(fn, lo, hi, tol=1e-10, max_iter=200, relative=False):
    """Golden-section maximization on [lo, hi].

    Stops once the bracket [a, b] is narrower than ``tol`` (``tol * (1 + b)``
    when ``relative``) or after ``max_iter`` steps.  Returns the final
    bracket midpoint, ``fn`` there, and the largest of that value and the
    two interior probes.
    """
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = fn(c), fn(d)
    for _ in range(max_iter):
        if b - a < (tol * (1.0 + b) if relative else tol):
            break
        if fc > fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = fn(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = fn(d)
    mid = 0.5 * (a + b)
    f_mid = fn(mid)
    return mid, f_mid, max(f_mid, fc, fd)


def _circle_refined_max(ratio, ratio_rows, e1, e2):
    """Maximum of ``ratio`` over the unit circle cos(theta) e1 + sin(theta) e2.

    The :data:`CIRCLE_ANGLES` equally spaced angles are scored in one
    row-wise call, ``ratio_rows`` on the array of their directions; the
    golden-section refinement around the best of them stays on the scalar
    ``ratio``.  A row-wise refinement was slower and moved the last bits of
    1,139 of the 6,000 oracle values in a 3,000-case seeded check (by up to
    1.7e-15 relative), so only the scan is vectorized; the scan itself
    picks the same coarse angle as a scalar scan on those cases.
    """
    thetas = np.linspace(0.0, 2.0 * math.pi, CIRCLE_ANGLES, endpoint=False)
    Y = np.outer(np.cos(thetas), e1) + np.outer(np.sin(thetas), e2)
    k = int(np.argmax(ratio_rows(Y)))
    h = 2.0 * math.pi / CIRCLE_ANGLES

    def fn_theta(theta):
        return ratio(math.cos(theta) * e1 + math.sin(theta) * e2)

    return _golden_max(fn_theta, thetas[k] - h, thetas[k] + h, tol=CIRCLE_TOL)[2]


# seed -> the read-only standard-normal stream that _normal_stream keeps
# (at most one entry)
_NORMALS = {}


def _normal_stream(count, seed):
    """The first ``count`` values of ``np.random.default_rng(seed)``'s
    standard-normal stream, read-only.

    ``default_rng(seed).standard_normal((samples, n))`` is the first
    ``samples * n`` values of that stream in row-major order, so one kept
    stream serves every dimension.  It is redrawn, to exactly ``count``
    values, only for another seed or a longer prefix, and replaces the kept
    one, so it holds the longest prefix asked for since the seed changed.
    """
    stream = _NORMALS.get(seed)
    if stream is None or stream.size < count:
        stream = np.random.default_rng(seed).standard_normal(count)
        stream.flags.writeable = False
        _NORMALS.clear()
        _NORMALS[seed] = stream
    return stream[:count]


@functools.lru_cache(maxsize=1)
def _sphere_sample(n, samples, seed):
    """``samples`` directions drawn uniformly from the unit sphere of R^n:
    the standard normal rows of ``np.random.default_rng(seed)``, normalized.

    The rows are the prefix of :func:`_normal_stream`, reshaped, so a new
    ``n`` or ``samples`` with the same seed draws nothing unless it needs a
    longer stream.  Both sampling oracles read the sample, so the two
    oracles at one point normalize one sample.  The last
    ``(n, samples, seed)`` sample is kept, read-only, beside the stream:
    ``samples * n * 8`` bytes, and the stream ``samples * n_max * 8`` for
    the largest n seen, so 1.6 MB in all at 10,000 x 10 and 3.2 MB at the
    CLI's 20,000 x 10.  ``seed`` is an integer.
    """
    Y = _normal_stream(samples * n, seed).reshape(samples, n)
    Y = Y / np.linalg.norm(Y, axis=1, keepdims=True)
    Y.flags.writeable = False
    return Y


def polar_F_star_oracle(params, p, alpha, samples=10000, seed=0):
    """Dual norm by brute force: sup over directions of alpha(y)/F(x, y).

    Coarse uniform sampling of the unit sphere followed by golden-section
    refinement of the angle in the plane spanned by x and alpha (the norm
    depends on y only through |y| and <x, y>, so the maximizer lies in that
    plane).  Always a lower bound on the true dual norm, converging to it
    as the sampling is refined.  The sample is :func:`_sphere_sample`'s,
    a prefix of one kept standard-normal stream that serves every n, and
    the last normalized sample is kept beside it (1.6 MB in all at
    10,000 x 10).
    """
    if samples < 100:
        raise GeometryError(f"need at least 100 samples, got {samples}")
    p = _point(p)
    alpha = _vec(alpha, p.n, "covector")
    if not np.any(alpha):
        return 0.0
    Y = _sphere_sample(p.n, samples, seed)
    best = float(np.max((Y @ alpha) / _randers_F_rows(params, p, Y)[0]))

    e1, e2 = _orthonormal_pair(p.x, alpha)

    def ratio(y):
        f = _randers_F_pair(params, p, y)[0]
        return float(alpha @ y) / f if f > 0.0 else -math.inf

    def ratio_rows(Y):
        f = _randers_F_rows(params, p, Y)[0]
        with np.errstate(divide="ignore", invalid="ignore"):
            return np.where(f > 0.0, (Y @ alpha) / f, -np.inf)

    return max(best, _circle_refined_max(ratio, ratio_rows, e1, e2))


def reversibility_oracle(params, p, samples=10000, seed=0):
    """Pointwise reversibility by brute force: sup of F(x,y)/F(x,-y).

    Approaches (1 + a|x|)/(1 - a|x|) at the given point; the global
    constant of :func:`reversibility` is the supremum of this over the
    ball.  The sample is :func:`_sphere_sample`'s, shared with
    :func:`polar_F_star_oracle` (1.6 MB in all at 10,000 x 10).  The
    golden-section refinement scores F(x, y) and F(x, -y) from one x.y and
    one |y|^2 through :func:`_randers_F_pair`.
    """
    if samples < 100:
        raise GeometryError(f"need at least 100 samples, got {samples}")
    p = _point(p)
    if p.r == 0.0:
        return 1.0
    fwd, bwd = _randers_F_rows(params, p, _sphere_sample(p.n, samples, seed))
    best = float(np.max(fwd / bwd))

    e1, e2 = _orthonormal_pair(p.x, np.roll(p.x, 1))

    def ratio(y):
        fwd, bwd = _randers_F_pair(params, p, y)
        return fwd / bwd

    def ratio_rows(Y):
        return np.divide(*_randers_F_rows(params, p, Y))

    return max(best, _circle_refined_max(ratio, ratio_rows, e1, e2))
