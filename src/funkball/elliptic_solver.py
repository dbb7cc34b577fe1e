"""Radial variational solver for a sublinear problem on the truncated ball.

The target problem: nonzero, non-negative radial profiles u with

    int Dv(grad_F u) dV_Fa = lambda * int kappa g(u) v dV_Fa   for all test v,
    u -> 0 as |x| -> 1,

i.e. critical points of J_lambda = (1/2) E - lambda G over radial profiles,
where E(u) = int F_a*^2(x, Du) dV_Fa and G(u) = int kappa G(u) dV_Fa.  The
nonlinearity is sublinear at 0 and infinity, so the landscape has a sharp
threshold: below lambda* only the zero profile solves; for large lambda a
negative-energy global minimizer and a positive-energy mountain-pass saddle
coexist.

Discretization: piecewise-linear elements on a radial grid clustered toward
both ends, boundary value pinned to 0 at r_max, even reflection at r = 0
(the first interval [0, r_1] carries a constant value and zero slope).
Energies and exact gradients/Hessians are assembled with element-aligned
Gauss-Legendre quadrature, so finite differences of the energy reproduce the
analytic gradient to roundoff.  Residuals are measured in the dual norm
induced by the discrete H^1_2 Gram matrix.

The map du -> F_a*^2 has a continuous first derivative in du even at du = 0
(only the second derivative jumps there), so line searches and reports use
the same discrete J, and one line-search Newton descent followed by one
Newton polish is enough.  Descent steps go along -(H + mu K)^{-1} g, the
exact tridiagonal Hessian H shifted by a small multiple mu = HESSIAN_SHIFT
of the Gram matrix K: K carries a Klein mass term that the energy lacks,
so the Riesz direction -K^{-1} g alone contracts only 0.3 to 0.8 per step.
Where H + mu K is not positive definite the step falls back to that Riesz
direction.
"""

import functools
import math
from dataclasses import dataclass
from typing import Callable, ClassVar, Optional

import numpy as np
from scipy.linalg.lapack import dgtsv, dpttrf, dpttrs

from .finsler_core import GeometryError, _golden_max, _one_minus_ar
from .quadrature import QuadratureConfig, _sample_radial, radial_integral, sphere_area

__all__ = [
    "Nonlinearity",
    "RadialFunction",
    "SolveReport",
    "LambdaScanReport",
    "SolverConfig",
    "SolverError",
    "WeightKappa",
    "compute_cg",
    "discrete_gradient",
    "energy_E",
    "g_functional",
    "j_lambda",
    "lambda_scan",
    "minimize",
    "mountain_pass",
    "nonexistence_threshold",
    "radial_fstar",
    "solve",
    "solver_nodes",
    "subquadraticity_diagnostic",
    "tilde_lambda_estimate",
]


class SolverError(RuntimeError):
    """Solver-level failure (non-convergence, incompatible problem data)."""

    def __init__(self, message, diagnostics=None):
        super().__init__(message)
        self.diagnostics = diagnostics or {}


# ---------------------------------------------------------------------------
# Radial dual norm
# ---------------------------------------------------------------------------

def radial_fstar(params, r, du):
    """Dual norm of the radial covector du * x/|x| at radius r.

    Closed form (1-r^2)(|du| - a r du)/(1 - a^2 r^2), evaluated as
    (1-r^2)|du|/(1 + a r) for du >= 0 and (1-r^2)|du|/(1 - a r) for du < 0,
    where the factor 1 - a r cancels.  For a = 0 this is the Klein radial
    dual (1-r^2)|du|; for a = 1 and du = 1/(1-r) it is identically 1 (the
    forward eikonal profile).  Scalar in, scalar out; arrays broadcast.
    """
    r_arr = np.asarray(r, dtype=float)
    du_arr = np.asarray(du, dtype=float)
    if np.any(r_arr < 0.0) or np.any(r_arr >= 1.0):
        raise GeometryError("radius must lie in [0, 1)")
    down, up = _one_minus_ar(params.a, r_arr)
    out = (1.0 - r_arr) * (1.0 + r_arr) * np.abs(du_arr) / np.where(du_arr < 0.0, down, up)
    if np.isscalar(r) and np.isscalar(du):
        return float(out)
    return out


# ---------------------------------------------------------------------------
# Radial profiles
# ---------------------------------------------------------------------------

class RadialFunction:
    """A radial profile on [0, r_max], grid-backed or closed-form.

    Grid-backed profiles are piecewise linear through (r_i, u_i) with the
    boundary value pinned to 0 at r_M = r_max and even reflection at r = 0:
    on [0, r_1] the profile is the constant u_1 with zero slope, so the
    derivative is exact for the interpolant everywhere.  Closed-form
    profiles register both u and u'.
    """

    __slots__ = ("nodes", "values", "r_max", "_fu", "_fdu", "_slopes")

    def __init__(self):
        raise TypeError("use RadialFunction.from_values or from_callables")

    @classmethod
    def _blank(cls):
        return object.__new__(cls)

    @classmethod
    def from_values(cls, nodes, values):
        """Grid-backed profile; ``values[-1]`` must be exactly 0."""
        self = cls._blank()
        nodes = np.array(nodes, dtype=float).reshape(-1)
        values = np.array(values, dtype=float).reshape(-1)
        if nodes.size < 2 or nodes.size != values.size:
            raise ValueError("need matching node/value arrays with at least 2 entries")
        if nodes[0] <= 0.0 or np.any(np.diff(nodes) <= 0.0):
            raise ValueError("nodes must be strictly increasing and positive")
        if nodes[-1] >= 1.0:
            raise ValueError("the last node must lie strictly inside the unit interval")
        if not np.all(np.isfinite(values)):
            raise ValueError("profile values must be finite")
        if values[-1] != 0.0:
            raise ValueError("boundary value must be pinned to 0")
        nodes.flags.writeable = False
        values.flags.writeable = False
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "r_max", float(nodes[-1]))
        object.__setattr__(self, "_fu", None)
        object.__setattr__(self, "_fdu", None)
        slopes = np.diff(values) / np.diff(nodes)
        # flat on [0, r_1] (even reflection) and zero beyond r_max
        full = np.concatenate(([0.0], slopes, [0.0]))
        object.__setattr__(self, "_slopes", full)
        return self

    @classmethod
    def from_callables(cls, u, du, r_max=1.0):
        """Closed-form profile on [0, r_max] with value ``u`` and radial
        derivative ``du``."""
        self = cls._blank()
        if not 0.0 < r_max <= 1.0:
            raise ValueError("r_max must lie in (0, 1]")
        object.__setattr__(self, "nodes", None)
        object.__setattr__(self, "values", None)
        object.__setattr__(self, "r_max", float(r_max))
        object.__setattr__(self, "_fu", u)
        object.__setattr__(self, "_fdu", du)
        object.__setattr__(self, "_slopes", None)
        return self

    def __setattr__(self, name, value):
        raise AttributeError("RadialFunction is immutable")

    @property
    def is_grid(self):
        return self.nodes is not None

    def u(self, r):
        """Profile value(s) at radius r."""
        r_arr = np.asarray(r, dtype=float)
        if self.is_grid:
            out = np.interp(r_arr, self.nodes, self.values)
        else:
            out = _sample_radial(self._fu, r_arr)
        return float(out) if np.isscalar(r) else out

    __call__ = u

    def du(self, r):
        """Radial derivative at r (piecewise constant for grid profiles)."""
        r_arr = np.atleast_1d(np.asarray(r, dtype=float))
        if self.is_grid:
            idx = np.searchsorted(self.nodes, r_arr, side="right")
            idx[r_arr >= self.nodes[-1]] = self.nodes.size
            out = self._slopes[np.minimum(idx, self._slopes.size - 1)]
        else:
            out = _sample_radial(self._fdu, r_arr)
        return float(out[0]) if np.isscalar(r) else out.reshape(np.shape(r))

    def scale(self, t):
        """The profile t * u."""
        t = float(t)
        if self.is_grid:
            return RadialFunction.from_values(self.nodes, t * self.values)
        fu, fdu = self._fu, self._fdu
        return RadialFunction.from_callables(
            lambda r: t * np.asarray(fu(r), dtype=float),
            lambda r: t * np.asarray(fdu(r), dtype=float),
            r_max=self.r_max,
        )

    def __neg__(self):
        return self.scale(-1.0)


# ---------------------------------------------------------------------------
# Problem data: nonlinearity and weight
# ---------------------------------------------------------------------------

def _as_scalar_fn(f):
    def wrapped(s):
        return _sample_radial(f, np.asarray(s, dtype=float))

    return wrapped


def _cached_primitive(g):
    """Primitive of g from cumulative panel quadrature, interpolated by cubic
    Hermite pieces with the known slopes G' = g at the breaks.

    The breaks are log-spaced about 2.9 % apart from 1e-8 to 1e12.  For the
    default g it is good to 2e-7 relative on [1e-6, 1e12]; below 1e-6 the
    error grows to 6e-6 at 1e-7 and 2e-4 near 1e-8.  Above s = 1e12 the
    tail is extrapolated linearly with slope g(1e12).  Register a closed
    form when the energy values themselves are under test.
    """
    # two runs of breaks, so that G at s <= 1e7 does not depend on how far
    # the table reaches
    breaks = np.concatenate(
        ([0.0], np.geomspace(1e-8, 1e7, 1200), np.geomspace(1e7, 1e12, 401)[1:])
    )
    gx, gw = np.polynomial.legendre.leggauss(16)
    lo, hi = breaks[:-1], breaks[1:]
    half = 0.5 * (hi - lo)
    pts = lo[:, None] + half[:, None] * (gx[None, :] + 1.0)
    vals = g(pts.ravel()).reshape(pts.shape)
    panel = half * (vals * gw[None, :]).sum(axis=1)
    cum = np.concatenate(([0.0], np.cumsum(panel)))
    slope = g(breaks)

    def G(s):
        s_arr = np.asarray(s, dtype=float)
        x = np.clip(s_arr, 0.0, breaks[-1])
        i = np.clip(np.searchsorted(breaks, x, side="right") - 1, 0, breaks.size - 2)
        h = breaks[i + 1] - breaks[i]
        t = (x - breaks[i]) / h
        out = (
            cum[i]
            + t * t * (3.0 - 2.0 * t) * (cum[i + 1] - cum[i])
            + h * t * (1.0 - t) * ((1.0 - t) * slope[i] - t * slope[i + 1])
        )
        out = out + np.maximum(s_arr - breaks[-1], 0.0) * slope[-1]
        return np.where(s_arr <= 0.0, 0.0, out)

    return G


def _fd_derivative(g):
    def dg(s):
        s_arr = np.asarray(s, dtype=float)
        h = 1e-6 * np.maximum(1.0, np.abs(s_arr))
        return (g(s_arr + h) - g(np.maximum(s_arr - h, 0.0))) / (h + np.minimum(s_arr, h))

    return dg


def compute_cg(nl):
    """Maximum of g(s)/s over 1e-8 <= s <= 1e8 by dense log scan plus
    golden refinement."""
    g = nl.g
    s = np.geomspace(1e-8, 1e8, 4096)
    with np.errstate(over="ignore", invalid="ignore"):
        ratio = g(s) / s
    ratio = np.where(np.isfinite(ratio), ratio, -np.inf)
    k = int(np.argmax(ratio))
    _, _, refined = _golden_max(
        lambda x: float(g(x) / x),
        s[max(k - 1, 0)],
        s[min(k + 1, s.size - 1)],
        tol=1e-13,
        max_iter=120,
        relative=True,
    )
    return max(float(ratio[k]), refined)


@dataclass(frozen=True)
class Nonlinearity:
    """Sublinear nonlinearity g with primitive G and cached c_g = max g(s)/s.

    Extended by 0 for s <= 0.  The constructor always runs heuristic checks
    of the sublinearity conditions: g(s)/s must be small near 0 and near
    infinity (each sampled ratio below 0.2), and g must vanish on s <= 0.
    """

    g: Callable
    G: Optional[Callable] = None
    dg: Optional[Callable] = None
    c_g: Optional[float] = None

    def __post_init__(self):
        object.__setattr__(self, "g", _as_scalar_fn(self.g))
        if self.G is None:
            object.__setattr__(self, "G", _cached_primitive(self.g))
        else:
            object.__setattr__(self, "G", _as_scalar_fn(self.G))
        if self.dg is None:
            object.__setattr__(self, "dg", _fd_derivative(self.g))
        else:
            object.__setattr__(self, "dg", _as_scalar_fn(self.dg))
        self._check()
        if self.c_g is None:
            object.__setattr__(self, "c_g", compute_cg(self))
        if not self.c_g > 0.0:
            raise ValueError("c_g must be positive")

    def _check(self):
        if np.any(np.abs(self.g(np.array([-5.0, -0.5, 0.0]))) > 0.0):
            raise ValueError("g must vanish on s <= 0")
        with np.errstate(over="ignore", invalid="ignore"):
            near0 = float(np.max(np.abs(self.g(np.array([1e-9, 1e-8])) / np.array([1e-9, 1e-8]))))
            far = float(np.max(np.abs(self.g(np.array([1e7, 1e8])) / np.array([1e7, 1e8]))))
        if not near0 < 0.2:
            raise ValueError(f"g(s)/s must vanish as s -> 0+ (sampled ratio {near0:.3g})")
        if not far < 0.2:
            raise ValueError(f"g(s)/s must vanish as s -> infinity (sampled ratio {far:.3g})")

    @classmethod
    def default(cls):
        """g(s) = s^2/(1 + s^(3/2)) with closed-form primitive and c_g = 2^(2/3)/3."""

        # fmax maps s < 0 and NaN to +0.0, where every kernel is exactly +0.0;
        # sp * sqrt(sp) is sp^(3/2): a multiply and a sqrt are cheaper than pow
        def g(s):
            sp = np.fmax(np.asarray(s, dtype=float), 0.0)
            den = np.sqrt(sp)
            den *= sp
            den += 1.0
            sp *= sp
            sp /= den
            return sp

        def G(s):
            sp = np.fmax(np.asarray(s, dtype=float), 0.0)
            sp *= np.sqrt(sp)
            sp -= np.log1p(sp)
            sp *= 2.0 / 3.0
            return sp

        def dg(s):
            sp = np.fmax(np.asarray(s, dtype=float), 0.0)
            sp += 0.0  # fmax may keep -0.0, and dg's product of three sp would too
            root = np.sqrt(sp)
            num = 0.5 * sp
            num *= sp
            num *= root
            num += 2.0 * sp
            root *= sp
            root += 1.0
            root *= root
            num /= root
            return num

        return cls(g=g, G=G, dg=dg, c_g=2.0 ** (2.0 / 3.0) / 3.0)


@dataclass(frozen=True)
class WeightKappa:
    """Non-negative radial weight with cached sup norm.

    The variational functionals integrate kappa * G(u) against the
    canonical (finsler_a) volume.
    """

    kappa: Callable
    sup_norm: Optional[float] = None

    def __post_init__(self):
        object.__setattr__(self, "kappa", _as_scalar_fn(self.kappa))
        probe = self.kappa(np.linspace(0.0, 1.0 - 1e-9, 4001))
        if not np.all(np.isfinite(probe)):
            raise ValueError("weight must be finite on [0, 1)")
        if np.any(probe < 0.0):
            raise ValueError("weight must be non-negative")
        if not np.any(probe > 0.0):
            raise ValueError("weight must not vanish identically")
        if self.sup_norm is None:
            object.__setattr__(self, "sup_norm", float(np.max(probe)))
        if not 0.0 < self.sup_norm < math.inf:
            raise ValueError("sup norm must be finite and positive")

    @classmethod
    def default(cls, radius=0.5):
        """Smooth bump exp(-1/(R^2 - r^2)) supported in r < R, sup at r = 0,
        for a radius 0 < R < 1."""
        if not 0.0 < radius < 1.0:
            raise ValueError("the weight radius must lie in (0, 1)")
        R2 = float(radius) ** 2

        def kappa(r):
            r = np.asarray(r, dtype=float)
            inside = r * r < R2
            with np.errstate(divide="ignore", over="ignore"):
                vals = np.where(inside, np.exp(-1.0 / np.maximum(R2 - r * r, 1e-300)), 0.0)
            return vals

        return cls(kappa=kappa, sup_norm=math.exp(-1.0 / R2))


# ---------------------------------------------------------------------------
# Discretization
# ---------------------------------------------------------------------------

#: Gauss-Legendre points per element of the solver's assembly.
QUAD_ORDER = 8
#: Last node r_M of the solver mesh, where the profile is pinned to 0.
R_MAX = 1.0 - 1e-6
#: Damped Newton steps per refinement.
NEWTON_ITERS = 80
#: Path-relaxation sweeps per mountain-pass search.
MAX_SWEEPS = 4000
#: Interior nodes of the mountain-pass path.
PATH_NODES = 32
#: Multiple mu of the H^1_2 Gram matrix K added to the Hessian H in the
#: descent direction -(H + mu K)^{-1} g.
HESSIAN_SHIFT = 1e-6


@dataclass(frozen=True)
class SolverConfig:
    """Mesh and iteration knobs for the variational solver.

    The quadrature order, the mesh's last node, the Newton step cap, the
    mountain pass's sweep budget and path size, and the descent direction's
    Hessian shift are the module constants :data:`QUAD_ORDER`,
    :data:`R_MAX`, :data:`NEWTON_ITERS`, :data:`MAX_SWEEPS`,
    :data:`PATH_NODES` and :data:`HESSIAN_SHIFT`; ``quad_order`` reads the
    first as a class attribute.

    ``max_iter`` caps each start's descent steps.  A start cut off by it
    keeps its residual, which is at or above ``tol``, so it counts as a
    failed start.
    """

    M: int = 400
    tol: float = 1e-8
    max_iter: int = 400
    seed: int = 0
    quad_order: ClassVar[int] = QUAD_ORDER

    def __post_init__(self):
        if self.M < 16:
            raise ValueError("need at least 16 radial elements")
        if self.tol <= 0.0:
            raise ValueError("tolerances must be positive")
        if self.max_iter < 1:
            raise ValueError("max_iter must be at least 1")
        if self.seed < 0:
            raise ValueError("seed must be non-negative")


def solver_nodes(cfg=None):
    """Radial mesh r_1 < ... < r_M = R_MAX, cosine-clustered at both ends."""
    if cfg is None:
        cfg = SolverConfig()
    t = np.linspace(0.0, 1.0, cfg.M + 1)[1:]
    return R_MAX * 0.5 * (1.0 - np.cos(math.pi * t))


def _row_dot(x, y):
    """Dot product of each row of ``x`` with the same row of ``y``."""
    return np.einsum("ij,ij->i", x, y)


def _read_only(x):
    x.flags.writeable = False
    return x


def _finite(x):
    if not np.isfinite(x).all():
        raise ValueError("array must not contain infs or NaNs")
    return x


def _band_factor(band):
    """LDL^T factor ``(d, e)`` of the symmetric tridiagonal matrix with the
    pair ``band = (diagonal, off-diagonal)``, from LAPACK's dpttrf:
    ValueError on a non-finite band, LinAlgError when a pivot is not positive
    (the matrix is not positive definite)."""
    diag, off = band
    d, e, info = dpttrf(_finite(diag), _finite(off))
    if info > 0:
        raise np.linalg.LinAlgError(f"{info}-th leading minor not positive definite")
    return d, e


def _band_solve(factor, b):
    """Solution of A x = b from the LDL^T factor ``(d, e)`` of A, from LAPACK's
    dpttrs; ValueError on a non-finite right-hand side."""
    return dpttrs(*factor, _finite(b))[0]


class _Assembly:
    """Element-aligned quadrature and exact derivatives of the discrete
    functionals on a fixed radial mesh.

    Nodal vectors have length M with the last entry pinned to 0; free
    degrees of freedom are the first M-1 entries.  The element [0, r_1]
    carries the constant value u_1 (even reflection), all others are
    linear.  Quadrature data are ``(M, q)`` arrays, one row of q points per
    element; the inverse element length ``inv_h`` and the slopes are ``(M,)``
    (0 on the flat centre element).

    The slope du is constant on each element, so the slope terms are
    assembled from per-element moment tables built once: with
    c = (1 - r^2)/(1 - a^2 r^2) and the Finsler weights w,

        A+- = sum_p w c^2 (1 -+ a r)^2,   A0 = sum_p w c^2.

    The energy is sum_e A_sigma(e) du_e^2 with sigma the sign of du_e, the
    gradient's flux A_sigma du_e / h_e and the Hessian's stiffness
    A_sigma / h_e^2, with A0 where du = 0 (sign(0) = 0; the one-sided
    values A+ and A- differ there).  The moments are split by sign rather
    than expanded into powers of a r: m0 - 2 m1 + m2 with
    m_k = sum_p w c^2 (a r)^k cancels as a r -> 1, with a relative error of
    about machine epsilon / (1 - a r)^2, while every table is a sum of
    positive terms.  The Gram matrix's stiffness is
    likewise a per-element moment of the Klein weights.

    Only the source terms (``g_int``, the ``g`` part of ``grad``, the ``dg``
    part of ``hessian_banded``) are evaluated per point, and only on the
    rows ``[:nk]``, where ``nk``, the row count of the kept source weights
    (``_source_weights``), is one past the last row with a nonzero weight:
    beyond it every source term is an exact zero.  Each element's
    source terms are reduced by row sums onto its two nodes.  ``g_int`` is
    ``_potential(_live_points(u))``; since the point values are linear in u,
    a family t v (tent heights, the ray barrier, the subquadraticity table)
    takes ``P = _live_points(v)`` once and scores each t as ``_potential(t P)``.

    The assembly keeps the state of the last vector it evaluated: its
    slopes du, their moments A_sigma and its point values P on the rows
    ``[:nk]``.  ``energy``, ``g_int``, ``grad`` and ``hessian_banded`` read
    it, so a descent iterate is evaluated once for the line search's J, its
    gradient and its Hessian.  The state is keyed on the bits of the vector
    (a stored ``tobytes()`` copy, so -0.0 and 0.0 differ and a vector
    changed in place misses) and P also on the identity of the weight.  Its
    arrays are read-only, so a g that writes into its argument is sampled
    per entry and cannot corrupt them.  At M = 6400 it holds about 0.36 MB.

    ``keep_starts`` keeps a problem's descent starts by their bits.  The
    potential and the two source row sums that ``grad`` scales by lambda do
    not depend on lambda, so for a kept start they are kept too, filled by
    the first ``g_int`` and ``grad`` that reach it and keyed on the
    identities of the weight and the nonlinearity: then J is ``E/2 - lambda
    kept`` and the gradient ``flux - lambda kept``, the same operations in
    the same order.  A vector is matched to a start by comparing bytes when
    the state slot changes.  The Hessian's source mass is scaled by -lambda
    before its row sums, so it is not kept; the start's slopes and point
    values are the state slot's, as for any vector.  Eight starts hold about
    0.82 MB at M = 6400.  The Klein weights, the Klein dual factor and the
    slope moment tables are built on first use.

    A tridiagonal matrix on the free DOFs (``hessian_banded``,
    ``gram_banded``) is the pair ``(diagonal, off-diagonal)`` of lengths
    M-1 and M-2, the arrays LAPACK's tridiagonal routines read.
    ``_residual(g)`` returns the dual norm of a gradient with the Riesz
    vector K^{-1} g behind it, so an iterate's residual takes one
    tridiagonal solve with the cached LDL^T factor of K (dpttrf/dpttrs).
    The Gram pair is kept beside that factor, so ``shifted_solve`` forms and
    factors H + HESSIAN_SHIFT K by LDL^T for a descent direction without
    reassembling K; where that matrix is not positive definite the descent
    falls back to the Riesz vector.
    """

    def __init__(self, params, nodes, quad_order=QUAD_ORDER):
        params.require_a_below_one("discrete energy assembly")
        self.nodes = np.asarray(nodes, dtype=float)
        M = self.nodes.size
        if M < 3 or np.any(np.diff(self.nodes) <= 0) or self.nodes[0] <= 0:
            raise ValueError("mesh must be strictly increasing with positive first node")
        if self.nodes[-1] >= 1.0:
            raise ValueError("mesh must end strictly inside the unit interval")
        self.M = M
        self._n, self._a = params.n, params.a
        lows, highs, R, W = self._element_rule(quad_order)

        # hat-function data: element 0 is the flat center piece
        h = highs - lows
        h[0] = 1.0
        self.NL = (highs - R) / h
        self.NR = (R - lows) / h
        self.NL[0], self.NR[0] = 0.0, 1.0
        self.inv_h = 1.0 / h[:, 0]
        self.inv_h[0] = 0.0
        self.R = R
        one_m, down, up = self._factors()
        self.w_fins = self._base(W) * (down * up / one_m) ** (0.5 * (self._n + 1))

        self._kappa = self._kappa_w = None
        self._gram = None
        self._starts = ()
        self._kept = [None, None, None, None, None]  # bits of u, (du, A_sigma), weight, P, start

    def _element_rule(self, quad_order):
        """Element ends (as columns), Gauss points R and weights W, one row
        per element."""
        gx, gw = np.polynomial.legendre.leggauss(quad_order)
        lows = np.concatenate(([0.0], self.nodes[:-1]))[:, None]
        highs = self.nodes[:, None]
        half = 0.5 * (highs - lows)
        return lows, highs, lows + half * (gx + 1.0), half * gw

    def _base(self, W):
        """Euclidean volume weights of the points for the Gauss weights W."""
        return W * sphere_area(self._n) * self.R ** (self._n - 1)

    def _factors(self):
        """1 - r^2, 1 - a r and 1 + a r at the points."""
        R = self.R
        return ((1.0 - R) * (1.0 + R), *_one_minus_ar(self._a, R))

    # The Klein weights, the Klein dual factor and the slope moment tables are
    # built on first use: the tent search's 2-point rule reads only the
    # Finsler weights and the hat functions.

    @functools.cached_property
    def w_klein(self):
        W = self._element_rule(self.R.shape[1])[3]
        return self._base(W) * self._factors()[0] ** (-0.5 * (self._n + 1))

    @functools.cached_property
    def klein_dual(self):
        return self._factors()[0] ** 2

    @functools.cached_property
    def _slope_tables(self):
        """A+, A- and A0 of each element; F* prefactor c(r) = (1-r^2)/(1-a^2 r^2)."""
        one_m, down, up = self._factors()
        wc2 = self.w_fins * (one_m / (down * up)) ** 2
        return _row_dot(wc2 * down, down), _row_dot(wc2 * up, up), wc2.sum(axis=1)

    # -- nodal evaluation ---------------------------------------------------

    def _left(self, u):
        """Value of each element's left node: u_{e-1}, and u_0 for e = 0."""
        return np.concatenate((u[:1], u[:-1]))

    def at_points(self, u, rows=None):
        """Values at the points of the first ``rows`` elements (all of them
        by default)."""
        k = self.M if rows is None else rows
        return self._left(u)[:k, None] * self.NL[:k] + u[:k, None] * self.NR[:k]

    def slopes(self, u):
        return (u - self._left(u)) * self.inv_h

    def _slope_moment(self, du):
        """A_sigma of each element: A+ where du > 0, A- where du < 0, A0 where
        du = 0."""
        A_pos, A_neg, A0 = self._slope_tables
        return np.where(du > 0.0, A_pos, np.where(du < 0.0, A_neg, A0))

    def _state(self, u):
        """The kept state slot of ``u``, emptied first when it holds the state
        of a vector with other bits; its last entry is the kept start with
        the bits of ``u``, if there is one."""
        key = np.asarray(u, dtype=float).tobytes()
        if self._kept[0] != key:
            start = next((s for s in self._starts if s[0] == key), None)
            self._kept = [key, None, None, None, start]
        return self._kept

    def keep_starts(self, starts):
        """Keep the vectors ``starts`` (by their bits) with room for the
        lambda-free source terms of each, which the first kernel call that
        reaches it fills."""
        self._starts = tuple([v.tobytes(), None] for v in starts)

    def starts(self):
        """The kept starts, as read-only vectors."""
        return [np.frombuffer(s[0]) for s in self._starts]

    def _per_start(self, u, kappa, nl, name, build):
        """``build()``, kept under ``name`` with the start ``u`` when ``u`` is
        a kept start; the kept terms are dropped when the weight or the
        nonlinearity is another object."""
        start = self._state(u)[4]
        if start is None:
            return build()
        terms = start[1]
        if terms is None or terms["kappa"] is not kappa or terms["nl"] is not nl:
            terms = start[1] = {"kappa": kappa, "nl": nl}
        if name not in terms:
            terms[name] = build()
        return terms[name]

    def _slope_state(self, u):
        """The slopes du of ``u`` and their moments A_sigma, read-only."""
        kept = self._state(u)
        if kept[1] is None:
            du = self.slopes(u)
            kept[1] = _read_only(du), _read_only(self._slope_moment(du))
        return kept[1]

    def _source_weights(self, kappa):
        """Finsler weights times the weight at the points of the rows
        ``[:nk]``, one past the last row with a nonzero weight."""
        # keyed by identity, not id(): a freed weight's id can be reused
        if self._kappa is not kappa:
            vals = kappa.kappa(self.R)
            live = np.flatnonzero(np.any(vals != 0.0, axis=1))
            nk = int(live[-1]) + 1 if live.size else 0
            self._kappa, self._kappa_w = kappa, self.w_fins[:nk] * vals[:nk]
        return self._kappa_w

    @staticmethod
    def _to_nodes(right, left):
        """Node sums of per-element terms: element e adds ``right[e]`` to node
        e and ``left[e]`` to node e-1 (element 0 has no left node)."""
        out = right.copy()
        out[:-1] += left[1:]
        return out

    # -- energies -----------------------------------------------------------

    def energy(self, u):
        du, A = self._slope_state(u)
        return float(A @ (du * du))

    def _live_points(self, u, kappa):
        """Values of u at the points of the rows ``[:nk]`` of ``kappa``,
        read-only."""
        nk = self._source_weights(kappa).shape[0]
        kept = self._state(u)
        if kept[2] is not kappa:
            kept[2], kept[3] = kappa, _read_only(self.at_points(u, nk))
        return kept[3]

    def _potential(self, points, kappa, nl):
        """Weighted potential of values at the points of the rows ``[:nk]``."""
        return float(np.vdot(self._source_weights(kappa), nl.G(points)))

    def g_int(self, u, kappa, nl):
        return self._per_start(
            u, kappa, nl, "potential",
            lambda: self._potential(self._live_points(u, kappa), kappa, nl),
        )

    def j_lambda(self, u, lam, kappa, nl):
        return 0.5 * self.energy(u) - lam * self.g_int(u, kappa, nl)

    # -- first and second derivatives --------------------------------------

    def grad(self, u, lam, kappa, nl):
        """Exact gradient of the discrete J_lambda; last entry pinned to 0.

        At du = 0 the map du -> (c(|du| - a r du))^2 is differentiable with
        derivative 0, which is also the subgradient selection used here.
        """
        du, A = self._slope_state(u)
        flux = A * du * self.inv_h
        right, left = flux, -flux
        src_r, src_l = self._per_start(
            u, kappa, nl, "source", lambda: self._source_sums(u, kappa, nl)
        )
        k = src_r.size
        right[:k] -= lam * src_r
        left[:k] -= lam * src_l
        out = self._to_nodes(right, left)
        out[-1] = 0.0
        return out

    def _source_sums(self, u, kappa, nl):
        """Row sums of the source w kappa g(u) against the right and the left
        hat function on the rows ``[:nk]``, read-only."""
        src = self._source_weights(kappa) * nl.g(self._live_points(u, kappa))
        k = src.shape[0]
        return _read_only(_row_dot(src, self.NR[:k])), _read_only(_row_dot(src, self.NL[:k]))

    def _tridiag(self, stiff, mass):
        """Free-DOF matrix of sum_e stiff_e s_i s_j plus sum(mass * N_i N_j)
        over the points of the first ``len(mass)`` elements, where the hat
        slopes s are +-1 per element length (so ``stiff`` carries inv_h^2),
        as its ``(diagonal, off-diagonal)`` pair."""
        k = mass.shape[0]
        NL, NR = self.NL[:k], self.NR[:k]
        mL = mass * NL
        right, left, coupling = stiff.copy(), stiff.copy(), -stiff
        right[:k] += _row_dot(mass * NR, NR)
        left[:k] += _row_dot(mL, NL)
        coupling[:k] += _row_dot(mL, NR)
        nf = self.M - 1
        # coupling[e] joins the nodes e-1 and e
        return self._to_nodes(right, left)[:nf], coupling[1:nf]

    def hessian_banded(self, u, lam, kappa, nl):
        """Tridiagonal Hessian on the free DOFs, as its ``(diagonal,
        off-diagonal)`` pair."""
        stiff = self._slope_state(u)[1] * self.inv_h**2
        mass = self._source_weights(kappa) * nl.dg(self._live_points(u, kappa))
        mass *= -lam
        return self._tridiag(stiff, mass)

    # -- H^1_2 Gram matrix and dual residual norm ---------------------------

    def gram_banded(self):
        """Tridiagonal H^1_2 Gram matrix (Klein gradient + Klein mass), as
        its ``(diagonal, off-diagonal)`` pair."""
        stiff = _row_dot(self.w_klein, self.klein_dual) * self.inv_h**2
        return self._tridiag(stiff, self.w_klein)

    def _gram_factor(self):
        """The Gram pair and its LDL^T factor ``(d, e)``, built on first use."""
        if self._gram is None:
            gram = self.gram_banded()
            self._gram = gram, _band_factor(gram)
        return self._gram

    def h12_norm(self, u):
        return math.sqrt(max(self.inner_K(u, u), 0.0))

    def riesz(self, g):
        """K^{-1} g on the free DOFs, zero-padded back to full length."""
        sol = _band_solve(self._gram_factor()[1], g[:-1])
        return np.concatenate((sol, [0.0]))

    def shifted_solve(self, band, g):
        """(H + HESSIAN_SHIFT K)^{-1} g on the free DOFs for the Hessian pair
        ``band = (diagonal, off-diagonal)``, zero-padded back to full length;
        raises LinAlgError when H + HESSIAN_SHIFT K is not positive
        definite."""
        shifted = [h + HESSIAN_SHIFT * k for h, k in zip(band, self._gram_factor()[0])]
        sol = _band_solve(_band_factor(shifted), g[:-1])
        return np.concatenate((sol, [0.0]))

    def _residual(self, g):
        """Residual norm sqrt(g^T K^{-1} g) of a gradient vector, and K^{-1} g."""
        Kg = self.riesz(g)
        return math.sqrt(max(float(g[:-1] @ Kg[:-1]), 0.0)), Kg

    def inner_K(self, v, w):
        """H^1_2 inner product of two nodal vectors; ``inner_K(v, v)``
        evaluates the slopes and point values of ``v`` once."""
        dv, vp = self.slopes(v), self.at_points(v)
        dw, wp = (dv, vp) if w is v else (self.slopes(w), self.at_points(w))
        return float(np.vdot(self.w_klein, self.klein_dual * (dv * dw)[:, None] + vp * wp))


def _assembly_for(u, params):
    if not isinstance(u, RadialFunction) or not u.is_grid:
        raise TypeError("a grid-backed radial profile is required here")
    return _Assembly(params, u.nodes)


def _mesh_vector(u, asm, what):
    """Nodal vector on the mesh of ``asm`` with the boundary entry pinned to
    0: a profile (grid-backed or closed-form) sampled at the nodes, or a raw
    vector of nodal values."""
    if isinstance(u, RadialFunction):
        v = np.array(u.u(asm.nodes), dtype=float)
    else:
        v = np.array(u, dtype=float)
    if v.shape != asm.nodes.shape:
        raise ValueError(f"{what} must match the solver mesh")
    v[-1] = 0.0
    return v


def _check_lambda(lam):
    if not 0.0 <= lam < math.inf:
        raise ValueError("lambda must be finite and non-negative")


def _quad_cfg(r_max):
    return QuadratureConfig(r_max=min(r_max, 1.0 - 1e-9))


# ---------------------------------------------------------------------------
# Public functionals
# ---------------------------------------------------------------------------

def energy_E(u, params):
    """Energy int F_a*^2(x, Du) dV_Fa of a radial profile, for a < 1.

    Grid-backed profiles are assembled element-exactly; closed-form
    profiles go through the generic panel quadrature.
    """
    params.require_a_below_one("the energy functional")
    if isinstance(u, RadialFunction) and u.is_grid:
        return _assembly_for(u, params).energy(u.values)
    return radial_integral(
        lambda r: np.asarray(radial_fstar(params, r, u.du(r))) ** 2,
        params,
        "finsler_a",
        _quad_cfg(u.r_max),
    )


def g_functional(u, params, kappa, nl):
    """Weighted potential int kappa G(u) dV_Fa."""
    params.require_a_below_one("the potential functional")
    if isinstance(u, RadialFunction) and u.is_grid:
        return _assembly_for(u, params).g_int(u.values, kappa, nl)
    return radial_integral(
        lambda r: kappa.kappa(r) * nl.G(u.u(r)),
        params,
        "finsler_a",
        _quad_cfg(u.r_max),
    )


def j_lambda(u, lam, params, kappa, nl):
    """J_lambda(u) = (1/2) E(u) - lambda G(u)."""
    _check_lambda(lam)
    return 0.5 * energy_E(u, params) - lam * g_functional(u, params, kappa, nl)


def discrete_gradient(u, lam, params, kappa, nl):
    """Exact gradient of the discrete J_lambda in the nodal values.

    Shaped like the profile's value vector, last entry pinned to 0.
    Matches central finite differences of :func:`j_lambda` to roundoff
    away from slope sign changes and to first order across them.
    """
    _check_lambda(lam)
    return _assembly_for(u, params).grad(u.values, lam, kappa, nl)


def nonexistence_threshold(params, nl, kappa):
    """Threshold lambda* below which only the zero profile solves.

    c_g^{-1} ||kappa||_inf^{-1} (n-1)^2 (1-a^2)^((n+1)/2) / (4 (1+a)^2).
    """
    n, a = params.n, params.a
    return ((n - 1) ** 2 * (1.0 - a * a) ** (0.5 * (n + 1))) / (
        4.0 * (1.0 + a) ** 2 * nl.c_g * kappa.sup_norm
    )


# ---------------------------------------------------------------------------
# Trial family and onset estimate
# ---------------------------------------------------------------------------

def _tent_vector(nodes, height, width):
    v = height * np.maximum(1.0 - nodes / width, 0.0)
    v[-1] = 0.0
    return v


def _ratio(E, G):
    """Onset ratio E/(2G); inf when the potential G is not positive."""
    return E / (2.0 * G) if G > 0.0 else math.inf


def _best_trial(ratios):
    """Smallest of the onset ratios and the index of the first one attaining
    it; raises when none is finite (no trial has positive potential)."""
    best, arg = math.inf, None
    for i, rat in enumerate(ratios):
        if rat < best:
            best, arg = rat, i
    if arg is None:
        raise SolverError(
            "no trial profile produces positive potential; weight and nonlinearity "
            "are incompatible"
        )
    return best, arg


@functools.lru_cache(maxsize=1)
def _tilde_search(params, kappa, nl, cfg):
    """Best tent-profile bound on the onset ratio E/(2G), and the assembly
    that keeps the descent starts of the minimizing tent.

    A tent of height h scores h^2 E_b / (2 G(h P)) from its width's unit
    tent's energy E_b and point values P.  Two rules score the potential.
    A 2-point Gauss rule per element scores each width's 25 heights and
    picks the first height j of least rough ratio.  The full-order rule
    (:data:`QUAD_ORDER` points) then rescores heights j-1, j, j+1, which
    guards against a rough ratio that ranks two neighbouring heights the
    wrong way round; a width without a finite rough ratio is rescored at
    every height.  The first full-order minimum in (width, height) order
    wins, and the golden refinement of its height runs at full order.  E_b
    always comes from the full-order assembly: through its moment tables
    it costs O(M).

    Nothing here depends on lambda, so the last problem's result is kept,
    with the assembly's weight values and Gram factor: ``solve``,
    ``lambda_scan`` and ``tilde_lambda_estimate`` share one search per
    ``(params, kappa, nl, cfg)``.  The four are frozen, and a weight or
    nonlinearity compares its functions by identity, so a new one misses;
    problem data are treated as immutable.  The kept assembly also keeps
    the descent starts of every solve of the problem (``_descent_starts``)
    and, once a solve has reached them, their lambda-free source terms.  It
    holds about 4.3 MB at M = 6400: 3.1 MB of quadrature data and weights,
    0.36 MB of state of the last vector it evaluated and 0.82 MB of starts.
    """
    asm = _Assembly(params, solver_nodes(cfg))
    rough = _Assembly(params, asm.nodes, quad_order=2)
    widths, heights = np.linspace(0.15, 0.8, 10), np.geomspace(1e-2, 1e2, 25)

    def ratio(h, E_b, P, on=asm):
        return _ratio(h * h * E_b, on._potential(h * P, kappa, nl))

    cells = []  # (width, height) index of each full-order score, in scoring order

    def rescored():
        # one width at a time, so that only one width's point values are held
        for b, w in enumerate(widths):
            base = _tent_vector(asm.nodes, 1.0, w)
            E_b = asm.energy(base)
            P = rough._live_points(base, kappa)
            coarse = [ratio(h, E_b, P, rough) for h in heights]
            j = int(np.argmin(coarse))  # the first minimum
            if math.isfinite(coarse[j]):
                rows = range(max(j - 1, 0), min(j + 2, heights.size))
            else:
                rows = range(heights.size)
            P = asm._live_points(base, kappa)
            for i in rows:
                cells.append((b, i))
                yield ratio(heights[i], E_b, P)

    best, k = _best_trial(rescored())
    b, i = cells[k]
    w0, h0 = widths[b], heights[i]
    base = _tent_vector(asm.nodes, 1.0, w0)
    tent = asm.energy(base), asm._live_points(base, kappa)

    # refine log(height) by golden section; maximizing -ratio minimizes the ratio
    def neg_ratio(log_h):
        return -ratio(math.exp(log_h), *tent)

    log_h, neg_rat, _ = _golden_max(
        neg_ratio, math.log(h0 / 3.0), math.log(h0 * 3.0), tol=1e-10, max_iter=60
    )
    trial = _tent_vector(asm.nodes, math.exp(log_h), w0)
    asm.keep_starts(_descent_starts(trial, cfg.seed))
    return min(-neg_rat, best), asm


def _descent_starts(trial, seed):
    """The starts of every descent of a problem: t * trial for t in (0.25,
    0.5, 1, 2, 4), then three seeded random perturbations of trial."""
    starts = [t * trial for t in (0.25, 0.5, 1.0, 2.0, 4.0)]
    for k in range(3):
        rng = np.random.default_rng(np.random.SeedSequence([seed, k]))
        bump = 1.0 + 0.3 * rng.standard_normal(trial.size)
        pert = trial * bump
        pert[-1] = 0.0
        starts.append(pert)
    return starts


def tilde_lambda_estimate(params, kappa, nl, cfg=None):
    """Upper bound on the onset value inf E/(2G) over profiles with G > 0.

    Scans tent profiles over 10 widths and 25 heights and refines the best
    height by golden section; each width is assembled once, and its heights
    are scored through E(h v) = h^2 E(v) and the point values h P of the
    unit tent.  A 2-point rule scores the grid and picks each width's best
    height; the full-order rule rescores that height and its two
    neighbours, picks the winning cell from those scores and refines it
    (see ``_tilde_search``).  Being a trial-family minimum, the result is
    an upper bound on the true onset; the empirical onset of the
    two-solution regime is reported by scans, not claimed equal to this
    number.
    """
    return _tilde_search(params, kappa, nl, cfg or SolverConfig())[0]


# ---------------------------------------------------------------------------
# Minimization
# ---------------------------------------------------------------------------

def _newton_refine(asm, u, lam, kappa, nl, cfg, g, res):
    """Damped Newton iteration on the gradient system from ``u`` with its
    gradient ``g`` and residual ``res``; returns the refined vector (``u``
    itself when no step is accepted), its residual and the iteration
    count."""
    mu = 0.0
    iters = 0
    for _ in range(NEWTON_ITERS):
        if res < cfg.tol:
            break
        diag, off = map(_finite, asm.hessian_banded(u, lam, kappa, nl))
        rhs = _finite(-g[:-1])
        accepted = False
        for _ in range(10):
            # LAPACK's LU with partial pivoting: the Hessian may be indefinite
            *_, step, info = dgtsv(off, diag + mu, off, rhs)
            if info > 0:  # a zero pivot: the damped Hessian is singular
                mu = max(10.0 * mu, 1e-8)
                continue
            trial = u.copy()
            trial[:-1] += step
            g_trial = asm.grad(trial, lam, kappa, nl)
            new_res = asm._residual(g_trial)[0]
            if new_res < res or new_res < cfg.tol:
                u, res, g = trial, new_res, g_trial
                mu /= 3.0
                accepted = True
                break
            mu = max(10.0 * mu, 1e-8)
        iters += 1
        if not accepted:
            break
    return u, res, iters


def _minimize_vec(asm, lam, kappa, nl, cfg, init_vec):
    """Shifted-Newton descent, then one Newton polish, from ``init_vec``;
    returns (u, J, residual, iterations).

    Each descent step goes along -(H + HESSIAN_SHIFT K)^{-1} g, or along the
    Riesz direction -K^{-1} g where H + HESSIAN_SHIFT K is not positive
    definite, and each iterate takes one gradient and one Riesz solve for
    its residual.  The Armijo search halves the step only while its target
    J + 1e-4 t slope is still a decrease that J can resolve in floating
    point; when it finds no step, the descent ends.  If the residual is
    then still at or above tol, the damped Newton polish runs once, and J
    is evaluated again only if the polish moved ``u``.  A descent cut off
    after ``cfg.max_iter`` steps is not polished: it keeps its residual, so
    the caller sees a failed start rather than a polish that may walk a
    far-off iterate into the zero critical point.
    """
    u = np.asarray(init_vec, dtype=float).copy()
    u[-1] = 0.0
    J = asm.j_lambda(u, lam, kappa, nl)
    g = asm.grad(u, lam, kappa, nl)
    res, Kg = asm._residual(g)
    iters = 0
    stalled = False
    for _ in range(cfg.max_iter):
        if res < cfg.tol:
            break
        try:
            d = -asm.shifted_solve(asm.hessian_banded(u, lam, kappa, nl), g)
        except np.linalg.LinAlgError:
            d = -Kg
        slope = float(g[:-1] @ d[:-1])
        t = 1.0
        # halve t only while the Armijo target is a decrease J can resolve
        while J + 1e-4 * t * slope < J:
            trial = u + t * d
            Jt = asm.j_lambda(trial, lam, kappa, nl)
            if Jt <= J + 1e-4 * t * slope:
                break
            t *= 0.5
        else:
            stalled = True
            break
        u, J = trial, Jt
        iters += 1
        g = asm.grad(u, lam, kappa, nl)
        res, Kg = asm._residual(g)
    if stalled:
        polished, res, extra = _newton_refine(asm, u, lam, kappa, nl, cfg, g, res)
        iters += extra
        if polished is not u:
            u, J = polished, asm.j_lambda(polished, lam, kappa, nl)
    return u, J, res, iters + 1


def minimize(lam, params, kappa, nl, cfg=None, init=None):
    """Descend J_lambda from ``init`` until the dual residual is below tol.

    Newton descent with the Hessian H shifted by a small multiple of the
    H^1_2 Gram matrix K, direction -(H + mu K)^{-1} g (the Riesz direction
    -K^{-1} g where H + mu K is not positive definite), with Armijo
    backtracking until it can resolve no decrease of J, then one damped
    Newton polish if the residual is still at or above tol; a descent cut
    off by ``cfg.max_iter`` is not polished.  Returns the
    profile, its energy J_lambda, and the terminal residual; non-convergence
    returns the best iterate with its (too large) residual rather than
    raising.
    """
    _check_lambda(lam)
    params.require_a_below_one("the variational solver")
    cfg = cfg or SolverConfig()
    asm = _Assembly(params, solver_nodes(cfg))
    init_vec = np.zeros(asm.M) if init is None else _mesh_vector(init, asm, "init")
    u, J, res, _ = _minimize_vec(asm, lam, kappa, nl, cfg, init_vec)
    return RadialFunction.from_values(asm.nodes, u), J, res


# ---------------------------------------------------------------------------
# Mountain pass
# ---------------------------------------------------------------------------

def _ray_barrier(asm, target, lam, kappa, nl):
    """Locate the energy maximum along t -> J(t * target), t in (0, 1].

    The barrier can sit many orders of magnitude below t = 1 when lambda
    is deep in the two-solution regime, so the scan is logarithmic.
    Returns (t_peak, J_peak); J_peak <= 0 means no barrier on the ray.
    The energy is 2-homogeneous, E(t v) = t^2 E(v), and the point values are
    linear, at_points(t v) = t at_points(v), so the target is assembled once
    and each t costs one ``_potential``.
    """
    ts = np.geomspace(1e-10, 1.0, 240)
    half_E = 0.5 * asm.energy(target)
    P = asm._live_points(target, kappa)
    Js = np.array([half_E * t * t - lam * asm._potential(t * P, kappa, nl) for t in ts])
    k = int(np.argmax(Js))
    return float(ts[k]), float(Js[k])


def mountain_pass(lam, params, kappa, nl, u_target, cfg=None, *, asm=None):
    """Saddle between 0 and a negative-energy profile by path deformation.

    A polyline from 0 to ``u_target`` (fixed endpoints) with P interior
    nodes is relaxed by repeatedly moving its maximum-energy node downhill
    along the Riesz gradient orthogonalized against the path tangent in
    the H^1_2 inner product; once the max node is nearly stationary it is
    polished by damped Newton.  The initial nodes are log-concentrated
    around the ray barrier (located by a geometric pre-scan), because for
    large lambda the barrier sits at a tiny multiple of the target.  The
    path energies are evaluated once and then updated with each accepted
    move, since a sweep moves at most one node.  Returns (profile,
    J_lambda, residual).

    ``asm`` is an ``_Assembly`` on the mesh of ``cfg`` to work on, such as
    the one the tent search keeps; without it one is built, with its own
    weight values and Gram factor.

    Raises :class:`SolverError` when the ray has no positive barrier or the
    running maximum sits at an endpoint (the barrier vanished), with sweep
    diagnostics attached.
    """
    _check_lambda(lam)
    params.require_a_below_one("the mountain-pass search")
    cfg = cfg or SolverConfig()
    if asm is None:
        asm = _Assembly(params, solver_nodes(cfg))
    target = _mesh_vector(u_target, asm, "u_target")
    J_target = asm.j_lambda(target, lam, kappa, nl)
    if not J_target < 0.0:
        raise SolverError(
            f"mountain pass needs a negative-energy target, got J = {J_target}"
        )

    t_peak, J_peak = _ray_barrier(asm, target, lam, kappa, nl)
    if not J_peak > 0.0:
        raise SolverError(
            "no positive barrier along the ray to the target",
            diagnostics={"lambda": lam, "t_peak": t_peak, "J_peak": J_peak},
        )
    below = np.geomspace(t_peak * 1e-2, t_peak, PATH_NODES // 2 + 1)[:-1]
    above = np.geomspace(t_peak, 1.0, PATH_NODES - PATH_NODES // 2 + 1)
    ts = np.concatenate(([0.0], below, above))
    path = ts[:, None] * target[None, :]
    # descent directions are K-normalized, so scale steps to the barrier size
    target_K = asm.h12_norm(target)
    step_hint = max(0.05 * t_peak * target_K, 1e-12)

    def polished(node, g, res):
        """Newton-polished saddle from ``node`` with its gradient ``g`` and
        residual ``res``, or None if not certified."""
        refined, res_r, _ = _newton_refine(asm, node, lam, kappa, nl, cfg, g, res)
        J_r = asm.j_lambda(refined, lam, kappa, nl)
        if res_r < cfg.tol and J_r > 0.0:
            profile = RadialFunction.from_values(asm.nodes, refined)
            return profile, J_r, res_r
        return None

    energies = np.array([asm.j_lambda(v, lam, kappa, nl) for v in path])
    for sweep in range(MAX_SWEEPS):
        if not float(np.max(energies[1:-1])) > max(energies[0], energies[-1]):
            raise SolverError(
                "mountain-pass path collapsed: the maximum sits at an endpoint",
                diagnostics={
                    "sweep": sweep,
                    "energies": energies.tolist(),
                    "lambda": lam,
                },
            )
        k = int(np.argmax(energies[1:-1])) + 1
        node = path[k]
        g = asm.grad(node, lam, kappa, nl)
        res, d = asm._residual(g)
        if res < 1e-3 * (1.0 + abs(energies[k])) and (found := polished(node, g, res)):
            return found
        tau = path[k + 1] - path[k - 1]
        tt = asm.inner_K(tau, tau)
        if tt > 0.0:
            d = d - (asm.inner_K(d, tau) / tt) * tau
        dn = asm.h12_norm(d)
        if dn > 0.0:
            d = d / dn
        t = step_hint
        moved = False
        for _ in range(60):
            trial = node - t * d
            J_trial = asm.j_lambda(trial, lam, kappa, nl)
            if J_trial < energies[k]:
                path[k], energies[k] = trial, J_trial
                step_hint = 2.0 * t
                moved = True
                break
            t *= 0.5
        if not moved:
            if found := polished(node, g, res):
                return found
            step_hint = 1.0
    raise SolverError(
        "mountain-pass search did not stabilize within the sweep budget",
        diagnostics={"lambda": lam, "sweeps": MAX_SWEEPS},
    )


# ---------------------------------------------------------------------------
# Reports and orchestration
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SolveReport:
    """Outcome of a single-lambda run: certified solutions and classification."""

    lam: float
    classification: str
    lambda_star: float
    lambda_tilde_est: float
    solutions: tuple = ()
    failures: tuple = ()
    mesh_size: int = 0
    r_max: float = 0.0

    def to_json_dict(self):
        return {
            "lambda": self.lam,
            "classification": self.classification,
            "lambda_star": self.lambda_star,
            "lambda_tilde_est": self.lambda_tilde_est,
            "mesh_size": self.mesh_size,
            "r_max": self.r_max,
            "kappa_measure": "finsler_a",  # the volume every functional uses
            "failures": list(self.failures),
            "solutions": [
                {k: v for k, v in sol.items() if k != "profile"} for sol in self.solutions
            ],
        }

    def csv_rows(self):
        rows = []
        if not self.solutions:
            rows.append((self.lam, self.classification, 0.0, 0.0, 0.0, 0))
        for sol in self.solutions:
            rows.append(
                (
                    self.lam,
                    self.classification,
                    sol["energy"],
                    sol["residual"],
                    sol["h12_norm"],
                    sol["iterations"],
                )
            )
        return rows


@dataclass(frozen=True)
class LambdaScanReport:
    """Per-lambda classifications over a schedule."""

    lambdas: tuple
    reports: tuple
    lambda_star: float
    lambda_tilde_est: float

    def to_json_dict(self):
        return {
            "lambda_star": self.lambda_star,
            "lambda_tilde_est": self.lambda_tilde_est,
            "runs": [r.to_json_dict() for r in self.reports],
        }

    def csv_rows(self):
        rows = []
        for r in self.reports:
            rows.extend(r.csv_rows())
        return rows

    def classifications(self):
        return tuple(r.classification for r in self.reports)


CSV_SCAN_HEADER = ("lambda", "classification", "energy", "residual", "h12_norm", "iterations")


def _certify(asm, u, res, cfg):
    """Certificate of a candidate solution ``u`` with dual residual ``res``,
    and whether ``u`` is told apart from zero (H^1_2 norm at least 1e-6)."""
    cert = {
        "residual": res,
        "min_value": float(np.min(u)),
        "h12_norm": asm.h12_norm(u),
        "ok": bool(res < cfg.tol and np.min(u) >= -1e-10),
    }
    return cert, cert["h12_norm"] >= 1e-6


def solve(lam, params, kappa=None, nl=None, cfg=None):
    """Full pipeline at one lambda: minimize from several inits, then a
    mountain pass when a negative-energy minimizer exists.

    Classification: ``only-zero`` when every start collapses to the zero
    profile, ``one`` when a single nonzero certified solution is found,
    ``two`` when a negative-energy minimizer and a distinct, nonzero
    positive-energy saddle are both certified.  Initial guesses are scaled
    copies of the best tent trial plus seeded random perturbations, so runs
    are deterministic for a fixed config.

    The lambda-independent tent search, its assembly and Gram factor, the
    starts and their source terms are kept for the last problem (see
    ``_tilde_search``), so repeated solves of one problem set them up once:
    a solve runs one descent from each start the kept assembly holds, whose
    potential and source row sums the first solve of the problem fills.
    Problem data are treated as immutable.
    """
    _check_lambda(lam)
    params.require_a_below_one("the variational solver")
    kappa = kappa or WeightKappa.default()
    nl = nl or Nonlinearity.default()
    cfg = cfg or SolverConfig()
    lam_star = nonexistence_threshold(params, nl, kappa)
    lam_tilde, asm = _tilde_search(params, kappa, nl, cfg)
    failures = []
    best = None
    iters_of_best = 0
    for init_vec in asm.starts():
        u, J, res, iters = _minimize_vec(asm, lam, kappa, nl, cfg, init_vec)
        if res >= cfg.tol:
            failures.append(f"minimize residual {res:.3e} above tol from one start")
            continue
        if best is None or J < best[1]:
            best = (u, J, res)
            iters_of_best = iters

    solutions = []
    classification = "only-zero"
    if best is not None:
        u, J, res = best
        cert, nonzero = _certify(asm, u, res, cfg)
        if nonzero and cert["ok"]:
            profile = RadialFunction.from_values(asm.nodes, u)
            solutions.append(
                {
                    "which": "minimizer",
                    "energy": J,
                    "iterations": iters_of_best,
                    "profile": profile,
                    **cert,
                }
            )
            classification = "one"
            if J < 0.0:
                try:
                    u2, J2, res2 = mountain_pass(lam, params, kappa, nl, profile, cfg, asm=asm)
                    cert2, nonzero2 = _certify(asm, u2.values, res2, cfg)
                    sep = asm.h12_norm(u2.values - u)
                    distinct = sep > 1e-4 * (cert["h12_norm"] + cert2["h12_norm"] + 1.0)
                    if not nonzero2:
                        failures.append(
                            "mountain-pass candidate is numerically zero "
                            f"(h12_norm {cert2['h12_norm']:.3e})"
                        )
                    elif cert2["ok"] and J2 > 0.0 and distinct:
                        solutions.append(
                            {
                                "which": "mountain-pass",
                                "energy": J2,
                                "iterations": 0,
                                "profile": u2,
                                **cert2,
                            }
                        )
                        classification = "two"
                    else:
                        failures.append(
                            "mountain-pass candidate failed certification "
                            f"(residual {cert2['residual']:.3e}, energy {J2:.3e}, "
                            f"separation {sep:.3e})"
                        )
                except SolverError as exc:
                    failures.append(f"mountain pass failed: {exc}")
        elif nonzero:
            failures.append(
                f"nonzero minimizer failed certification (residual {cert['residual']:.3e}, "
                f"min {cert['min_value']:.3e})"
            )

    return SolveReport(
        lam=lam,
        classification=classification,
        lambda_star=lam_star,
        lambda_tilde_est=lam_tilde,
        solutions=tuple(solutions),
        failures=tuple(failures),
        mesh_size=cfg.M,
        r_max=R_MAX,
    )


def lambda_scan(lambdas, params, kappa=None, nl=None, cfg=None):
    """Run :func:`solve` over a schedule; per-lambda failures are recorded
    in the report instead of aborting the scan.

    The tent search behind lambda~ does not depend on lambda: the scan runs
    it for lambda~ and its memo serves it to every solve.  A failed search
    is not memoized, so each lambda runs it again and reports its error.
    With ``lambdas=None`` the schedule is (lambda*/2, 10 lambda~), one point
    on each side of the two-solution onset; then a failed search or a
    lambda~ that is not finite raises :class:`SolverError`.
    """
    params.require_a_below_one("the lambda scan")
    kappa = kappa or WeightKappa.default()
    nl = nl or Nonlinearity.default()
    cfg = cfg or SolverConfig()
    lam_star = nonexistence_threshold(params, nl, kappa)
    try:
        lam_tilde = _tilde_search(params, kappa, nl, cfg)[0]
    except SolverError:
        lam_tilde = math.inf
    if lambdas is None:
        if not math.isfinite(lam_tilde):
            raise SolverError("no finite onset estimate for the default schedule")
        lambdas = (0.5 * lam_star, 10.0 * lam_tilde)
    lambdas = tuple(float(l) for l in lambdas)
    reports = []
    for lam in lambdas:
        try:
            rep = solve(lam, params, kappa, nl, cfg)
        except Exception as exc:  # per-lambda isolation is the contract
            rep = SolveReport(
                lam=lam,
                classification="error",
                lambda_star=lam_star,
                lambda_tilde_est=lam_tilde,
                failures=(str(exc),),
                mesh_size=cfg.M,
                r_max=R_MAX,
            )
        reports.append(rep)
    return LambdaScanReport(
        lambdas=lambdas,
        reports=tuple(reports),
        lambda_star=lam_star,
        lambda_tilde_est=lam_tilde,
    )


def subquadraticity_diagnostic(u_dir, params, kappa=None, nl=None, t_schedule=None, cfg=None):
    """Table of G(t u) / ||t u||_{H^1_2}^2 over a logarithmic t schedule.

    The ratio tends to 0 at both ends for a sublinear nonlinearity; the
    returned array has columns (t, ratio).  Every t must be positive and
    finite.
    """
    params.require_a_below_one("the subquadraticity diagnostic")
    kappa = kappa or WeightKappa.default()
    nl = nl or Nonlinearity.default()
    cfg = cfg or SolverConfig()
    if t_schedule is None:
        t_schedule = np.geomspace(1e-3, 1e3, 25)
    t_schedule = np.asarray(t_schedule, dtype=float)
    if not np.all((t_schedule > 0.0) & (t_schedule < math.inf)):
        raise ValueError("t_schedule must hold positive finite values")
    asm = _Assembly(params, solver_nodes(cfg))
    v = _mesh_vector(u_dir, asm, "the direction profile")
    base = asm.inner_K(v, v)
    if base <= 0.0:
        raise ValueError("the direction profile must be nonzero")
    P = asm._live_points(v, kappa)
    out = np.empty((t_schedule.size, 2))
    for i, t in enumerate(t_schedule):
        out[i, 0] = t
        out[i, 1] = asm._potential(t * P, kappa, nl) / (t * t * base)
    return out
