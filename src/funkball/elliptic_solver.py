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
direction.  The mountain-pass saddle is found by damped Newton from the
barrier of the ray t -> J(t u) toward a minimizer u, and every solution is
certified by its Morse index, the negative pivots of its tridiagonal
Hessian's LDL^T recurrence: 0 for a minimizer, 1 for the saddle.

Below a threshold of the mesh no search runs: where LDL^T factors the
tridiagonal S+ - 2 lambda c_g B, the least slope stiffness less twice the
linearized source mass, no nonzero discrete critical point exists
(``_Assembly.only_zero``), and ``solve`` answers only-zero without a
descent.  Over the check matrix's problems that threshold lies between 2
and 1.2e4 lambda*.
"""

import functools
import importlib.machinery
import importlib.util
import math
import os
from dataclasses import dataclass
from typing import Callable, ClassVar, Optional

import numpy as np

from .finsler_core import GeometryError, _golden_max, _one_minus_ar
from .quadrature import _sample_radial, gauss_panels, measure_density, radial_integral, sphere_area

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
    """Sublinear nonlinearity g with its primitive G, its derivative dg and
    c_g = max g(s)/s.

    ``g``, ``G`` and ``dg`` are required closed forms, each 0 for s <= 0:
    G enters the energies and dg the Newton steps and the Morse index.
    ``c_g`` is computed from g (``compute_cg``) when omitted.  The
    constructor runs heuristic checks of the sublinearity conditions:
    g(s)/s must be small near 0 and near infinity (each sampled ratio below
    0.2), and g must vanish on s <= 0.  It does not check that G and dg
    belong to g.  ``c_g`` enters lambda* and the zero certificate of
    ``solve``, and each is exact as far as ``c_g`` is the supremum of
    g(s)/s.
    """

    g: Callable
    G: Callable
    dg: Callable
    c_g: Optional[float] = None

    def __post_init__(self):
        for name in ("g", "G", "dg"):
            object.__setattr__(self, name, _as_scalar_fn(getattr(self, name)))
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

        # log1p writes into root; root[...] is a writable 0-d array for a scalar
        def G(s):
            sp = np.fmax(np.asarray(s, dtype=float), 0.0)
            root = np.sqrt(sp)
            sp *= root
            sp -= np.log1p(sp, out=root[...])
            sp *= 2.0 / 3.0
            return sp

        def dg(s):
            sp = np.fmax(np.asarray(s, dtype=float), 0.0)
            sp += 0.0  # fmax may keep -0.0, and dg's product of three sp would too
            root = np.sqrt(sp)
            num = 0.5 * sp
            num *= sp
            num *= root
            root *= sp
            root += 1.0
            root *= root
            sp *= 2.0
            num += sp
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


#: An omitted weight or nonlinearity: one default of each per process, so the
#: tent-search memo, which compares them by identity, serves repeated calls.
_default_kappa = functools.cache(WeightKappa.default)
_default_nl = functools.cache(Nonlinearity.default)

# ---------------------------------------------------------------------------
# Discretization
# ---------------------------------------------------------------------------

#: Gauss-Legendre points per element of the solver's assembly.
QUAD_ORDER = 8
#: Last node r_M of the solver mesh, where the profile is pinned to 0.
R_MAX = 1.0 - 1e-6
#: Damped Newton steps per refinement.
NEWTON_ITERS = 80
#: Multiple mu of the H^1_2 Gram matrix K added to the Hessian H in the
#: descent direction -(H + mu K)^{-1} g.
HESSIAN_SHIFT = 1e-6
#: Multiples t of the refined tent that ``solve`` descends from.
_STARTS = (0.25, 0.5, 1.0, 2.0, 4.0)


@dataclass(frozen=True)
class SolverConfig:
    """Mesh and iteration knobs for the variational solver.

    The quadrature order, the mesh's last node, the Newton step cap (of the
    descent's polish and of the mountain pass) and the descent direction's
    Hessian shift are the module constants :data:`QUAD_ORDER`,
    :data:`R_MAX`, :data:`NEWTON_ITERS` and :data:`HESSIAN_SHIFT`;
    ``quad_order`` reads the first as a class attribute.  ``tol``, the dual
    residual a solution must fall below, is a class attribute too.

    ``max_iter`` caps each start's descent steps.  A start cut off by it
    keeps its residual, which is at or above ``tol``, so it counts as a
    failed start.  A lambda that the zero certificate decides runs no
    start, so ``max_iter`` does not reach it.  The solver draws no random
    numbers and has no seed; the CLI's ``diag`` draws its gradient-check
    states from a constant one.
    """

    M: int = 400
    max_iter: int = 400
    quad_order: ClassVar[int] = QUAD_ORDER
    tol: ClassVar[float] = 1e-8

    def __post_init__(self):
        if self.M < 16:
            raise ValueError("need at least 16 radial elements")
        if self.max_iter < 1:
            raise ValueError("max_iter must be at least 1")


def solver_nodes(cfg=None):
    """Radial mesh r_1 < ... < r_M = R_MAX, cosine-clustered at both ends."""
    if cfg is None:
        cfg = SolverConfig()
    t = np.linspace(0.0, 1.0, cfg.M + 1)[1:]
    return R_MAX * 0.5 * (1.0 - np.cos(math.pi * t))


def _point_dot(x, y):
    """Dot product of each column of the ``(q, M)`` arrays ``x`` and ``y``:
    one sum over the points of each element."""
    return np.einsum("ij,ij->j", x, y)


def _point_major(edges, q):
    """``gauss_panels``' points and weights as C-contiguous ``(q, M)``
    arrays, one row per Gauss node."""
    return [np.ascontiguousarray(x.T) for x in gauss_panels(edges, q)]


def _hat_sums(table, x):
    """Sums over each element's points of ``x``, a ``(q, k)`` array, against
    each row of ``table``: its first q columns hold hat values at the
    reference points, read on every linear element, and its last column the
    constant values on the flat centre element 0."""
    out = table[:, :-1] @ x
    out[:, :1] = table[:, -1:] * x[:, :1].sum(axis=0)
    return out


def _read_only(x):
    x.flags.writeable = False
    return x


def _finite(x):
    if not np.isfinite(x).all():
        raise ValueError("array must not contain infs or NaNs")
    return x


@functools.cache
def _lapack():
    """SciPy's compiled LAPACK extension ``scipy/linalg/_flapack``, the
    module whose dpttrf, dpttrs and dgtsv ``scipy.linalg.lapack``
    re-exports, loaded on the first factorization.

    The public route is avoided: importing ``scipy.linalg`` runs SciPy's
    array-API layer, which copies the ``numpy`` namespace and so loads
    ``numpy.testing``, ``numpy.f2py`` and ``numpy.ma``: 0.18 to 0.29 s and
    25 MB of resident memory on a 2-core Xeon, where the top-level
    ``import scipy`` (which runs SciPy's own platform set-up) and this one
    extension take 11 to 16 ms and 3 MB.  Processes that never factor (the
    closed forms, the norm reports) load neither.  ImportError when the
    extension is missing."""
    import scipy
    spec = importlib.machinery.PathFinder.find_spec(
        "_flapack", [os.path.join(d, "linalg") for d in scipy.__path__])
    if spec is None:
        raise ImportError(f"scipy/linalg/_flapack not found in SciPy {scipy.__version__}")
    lapack = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(lapack)
    return lapack


def _band_factor(band):
    """LDL^T factor ``(d, e)`` of the symmetric tridiagonal matrix with the
    pair ``band = (diagonal, off-diagonal)``, from LAPACK's dpttrf (loaded on
    first use): ValueError on a non-finite band, LinAlgError when a pivot is
    not positive (the matrix is not positive definite)."""
    diag, off = band
    d, e, info = _lapack().dpttrf(_finite(diag), _finite(off))
    if info > 0:
        raise np.linalg.LinAlgError(f"{info}-th leading minor not positive definite")
    return d, e


def _band_solve(factor, b):
    """Solution of A x = b from the LDL^T factor ``(d, e)`` of A, from LAPACK's
    dpttrs; ValueError on a non-finite right-hand side."""
    return _lapack().dpttrs(*factor, _finite(b))[0]


class _Assembly:
    """Element-aligned quadrature and exact derivatives of the discrete
    functionals on a fixed radial mesh.

    Nodal vectors have length M with the last entry pinned to 0; free
    degrees of freedom are the first M-1 entries.  The element [0, r_1]
    carries the constant value u_1 (even reflection), all others are
    linear.  Quadrature data are point-major ``(q, M)`` arrays, one row per
    Gauss node and one column of q points per element; the inverse element
    length ``inv_h`` and the slopes are ``(M,)`` (0 on the flat centre
    element).  Every linear element has the same hat values at its points,
    NR = xi and NL = 1 - xi for the reference row xi = (gx + 1)/2 of the
    Gauss nodes gx, so the point values are left + xi (u - left), which is
    u_0 on the flat element 0, and the sums against the hats are small
    matrix products with xi (``_hat_sums``); element 0, where NR = 1 and
    NL = 0, gets its sums set apart.  The hats (R - low)/h of the rounded
    points R differ from xi by at most about eps r/h: below 2e-13 on the
    default weight's support and up to 8e-10 next to r = 1 at M = 6400.

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
    positive terms.  The Gram matrix and the H^1_2 inner product likewise
    read per-element moments of the Klein weights: a stiffness moment and
    three hat-mass moments (``_klein_moments``).

    Only the source terms (``g_int``, the ``g`` part of ``grad``, the ``dg``
    part of ``hessian_banded``) are evaluated per point, and only on the
    elements ``[:nk]``, where ``nk``, the column count of the kept source
    weights (``_source_weights``), is one past the last element with a
    nonzero weight: beyond it every source term is an exact zero.  Each
    element's source terms are reduced by point sums onto its two nodes.
    ``g_int`` is ``_potential(_live_points(u))``; since the point values are
    linear in u, a family t v (tent heights, the ray barrier, the
    subquadraticity table) takes ``P = _live_points(v)`` once and scores
    each t as ``_potential(t P)``.

    The assembly keeps the state of the last vector it evaluated: its
    slopes du, their moments A_sigma and its point values P on the elements
    ``[:nk]``.  ``energy``, ``g_int``, ``grad`` and ``hessian_banded`` read
    it, so a descent iterate is evaluated once for the line search's J, its
    gradient and its Hessian.  The state is keyed on the bits of the vector
    (a stored ``tobytes()`` copy, so -0.0 and 0.0 differ and a vector
    changed in place misses) and P also on the identity of the weight.  Its
    arrays are read-only, so a g that writes into its argument is sampled
    per entry and cannot corrupt them.  At M = 6400 it holds about 0.36 MB.
    The Klein moments and the slope moment tables are built on first use;
    the Klein weights are not kept.

    A tridiagonal matrix on the free DOFs (``hessian_banded``,
    ``gram_banded``) is the pair ``(diagonal, off-diagonal)`` of lengths
    M-1 and M-2, the arrays LAPACK's tridiagonal routines read.
    ``_residual(g)`` returns the dual norm of a gradient with the Riesz
    vector K^{-1} g behind it, so an iterate's residual takes one
    tridiagonal solve with the cached LDL^T factor of K (dpttrf/dpttrs from
    SciPy's compiled LAPACK extension alone, loaded on the first
    factorization by ``_lapack``).
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
        self._params = params
        self._edges = np.concatenate(([0.0], self.nodes))
        R, W = _point_major(self._edges, quad_order)
        self.inv_h = 1.0 / np.diff(self._edges)
        self.inv_h[0] = 0.0  # element 0 is the flat centre piece

        # hat values at the points: NR = xi and NL = 1 - xi on every linear
        # element, for the Gauss points xi of [0, 1]; the appended xi = 1
        # gives the flat centre's NR = 1, NL = 0
        xi = np.append(gauss_panels([0.0, 1.0], quad_order)[0], 1.0)
        self.xi = xi[:-1, None]
        self._hats = np.stack((xi, 1.0 - xi))  # NR, NL
        self._hat_products = np.stack(((1.0 - xi) ** 2, (1.0 - xi) * xi, xi * xi))
        self.R = R
        self.w_fins = self._base(W) * measure_density(params, R, "finsler_a")

        self._kappa = self._kappa_w = None
        self._gram = None
        self._kept = [None, None, None, None]  # bits of u, (du, A_sigma), weight, P

    def _base(self, W):
        """Euclidean volume weights of the points for the Gauss weights W."""
        return W * sphere_area(self._params.n) * self.R ** (self._params.n - 1)

    def _factors(self):
        """1 - r^2, 1 - a r and 1 + a r at the points."""
        R = self.R
        return ((1.0 - R) * (1.0 + R), *_one_minus_ar(self._params.a, R))

    # The Klein moments and the slope moment tables are built on first use:
    # the tent search's 2-point rule reads only the Finsler weights and the
    # hat functions.

    @functools.cached_property
    def _slope_tables(self):
        """A+, A- and A0 of each element; F* prefactor c(r) = (1-r^2)/(1-a^2 r^2)."""
        one_m, down, up = self._factors()
        wc2 = self.w_fins * (one_m / (down * up)) ** 2
        return _point_dot(wc2 * down, down), _point_dot(wc2 * up, up), wc2.sum(axis=0)

    # -- nodal evaluation ---------------------------------------------------

    def _left(self, u):
        """Value of each element's left node: u_{e-1}, and u_0 for e = 0."""
        return np.concatenate((u[:1], u[:-1]))

    def at_points(self, u, rows):
        """Values at the points of the first ``rows`` elements, a ``(q,
        rows)`` array: left + xi (u - left), which is u_0 on element 0."""
        left = self._left(u)[:rows]
        out = self.xi * (u[:rows] - left)
        out += left
        return out

    def slopes(self, u):
        return (u - self._left(u)) * self.inv_h

    def _slope_moment(self, du):
        """A_sigma of each element: A+ where du > 0, A- where du < 0, A0 where
        du = 0."""
        A_pos, A_neg, A0 = self._slope_tables
        return np.where(du > 0.0, A_pos, np.where(du < 0.0, A_neg, A0))

    def _state(self, u):
        """The kept state slot of ``u``, emptied first when it holds the state
        of a vector with other bits."""
        key = np.asarray(u, dtype=float).tobytes()
        if self._kept[0] != key:
            self._kept = [key, None, None, None]
        return self._kept

    def _slope_state(self, u):
        """The slopes du of ``u`` and their moments A_sigma, read-only."""
        kept = self._state(u)
        if kept[1] is None:
            du = self.slopes(u)
            kept[1] = _read_only(du), _read_only(self._slope_moment(du))
        return kept[1]

    def _source_weights(self, kappa):
        """Finsler weights times the weight at the points of the elements
        ``[:nk]``, one past the last element with a nonzero weight."""
        # keyed by identity, not id(): a freed weight's id can be reused
        if self._kappa is not kappa:
            vals = kappa.kappa(self.R)
            live = np.flatnonzero(np.any(vals != 0.0, axis=0))
            nk = int(live[-1]) + 1 if live.size else 0
            self._kappa, self._kappa_w = kappa, self.w_fins[:, :nk] * vals[:, :nk]
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
        """Values of u at the points of the elements ``[:nk]`` of ``kappa``,
        read-only."""
        nk = self._source_weights(kappa).shape[1]
        kept = self._state(u)
        if kept[2] is not kappa:
            kept[2], kept[3] = kappa, _read_only(self.at_points(u, nk))
        return kept[3]

    def _potential(self, points, kappa, nl):
        """Weighted potential of values at the points of the elements
        ``[:nk]``."""
        return float(np.vdot(self._source_weights(kappa), nl.G(points)))

    def g_int(self, u, kappa, nl):
        return self._potential(self._live_points(u, kappa), kappa, nl)

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
        src_r, src_l = self._source_sums(u, kappa, nl)
        k = src_r.size
        right[:k] -= lam * src_r
        left[:k] -= lam * src_l
        out = self._to_nodes(right, left)
        out[-1] = 0.0
        return out

    def _source_sums(self, u, kappa, nl):
        """Point sums of the source w kappa g(u) against the right and the
        left hat function on the elements ``[:nk]``."""
        src = self._source_weights(kappa) * nl.g(self._live_points(u, kappa))
        return _hat_sums(self._hats, src)

    def _hat_moments(self, mass):
        """Sums of ``mass``, a ``(q, k)`` array, against the hat products NL
        NL, NL NR and NR NR on the first k elements."""
        return _hat_sums(self._hat_products, mass)

    def _mass_pair(self, moments):
        """Hat-mass ``moments`` (NL NL, NL NR, NR NR) of the first k elements
        as a tridiagonal pair: NR NR plus NL NL summed onto the nodes
        ``[:k]``, and the NL NR coupling of each element."""
        LL, LR, RR = moments
        return self._to_nodes(RR, LL), LR

    def _tridiag(self, stiff, mass):
        """Free-DOF matrix of sum_e stiff_e s_i s_j plus the hat-mass pair
        ``mass`` (``_mass_pair``), where the hat slopes s are +-1 per element
        length (so ``stiff`` carries inv_h^2), as its ``(diagonal,
        off-diagonal)`` pair."""
        nodes, couplings = mass
        k = nodes.shape[0]
        diag, coupling = self._to_nodes(stiff, stiff), -stiff
        diag[:k] += nodes
        coupling[:k] += couplings
        nf = self.M - 1
        # coupling[e] joins the nodes e-1 and e
        return diag[:nf], coupling[1:nf]

    def hessian_banded(self, u, lam, kappa, nl):
        """Tridiagonal Hessian on the free DOFs, as its ``(diagonal,
        off-diagonal)`` pair."""
        stiff = self._slope_state(u)[1] * self.inv_h**2
        return self._tridiag(stiff, [-lam * m for m in self._source_mass(u, kappa, nl)])

    def _source_mass(self, u, kappa, nl):
        """Hat-mass pair (``_mass_pair``) of w kappa dg(u) on the elements
        ``[:nk]``."""
        mass = self._source_weights(kappa) * nl.dg(self._live_points(u, kappa))
        return self._mass_pair(self._hat_moments(mass))

    # -- zero certificate ---------------------------------------------------

    def only_zero(self, lam, kappa, nl):
        """Whether the discrete J_lambda provably has no critical point but 0:
        whether LDL^T (dpttrf) factors the tridiagonal S+ - 2 lambda c_g B.

        S+ is the stiffness of the A+ table, the least of A+, A- and A0 on
        every element, so E(u) >= u^T S+ u; B is the hat mass of the source
        weights w kappa, the Hessian's source mass with dg = 1.  At a
        critical point u, <grad J(u), u> = 0 and E is positively
        2-homogeneous, so E(u) = lambda sum_p w kappa g(u_p) u_p, which is
        at most lambda c_g u^T B u since g(s) s <= c_g s^2.  When the band
        factors, S+ - lambda c_g B exceeds S+/2, so u = 0; that half of the
        stiffness is the margin for rounding.  A band that is indefinite or
        not finite certifies nothing.  Like lambda*, the proof is exact as
        far as c_g is the supremum of g(s)/s."""
        stiff = self._slope_tables[0] * self.inv_h**2
        mass = self._mass_pair(self._hat_moments(self._source_weights(kappa)))
        with np.errstate(over="ignore", invalid="ignore"):
            band = self._tridiag(stiff, [(-2.0 * lam * nl.c_g) * m for m in mass])
        try:
            _band_factor(band)
        except (ValueError, np.linalg.LinAlgError):
            return False
        return True

    # -- H^1_2 Gram matrix and dual residual norm ---------------------------

    @functools.cached_property
    def _klein_moments(self):
        """Per-element Klein moments: the stiffness moment sum_p w_K (1 -
        r^2)^2 of the Klein weights w_K and their hat-mass moments (NL NL,
        NL NR, NR NR), read by ``gram_banded`` and ``inner_K``."""
        W = _point_major(self._edges, self.R.shape[0])[1]
        w_klein = self._base(W) * measure_density(self._params, self.R, "klein")
        return (_point_dot(w_klein, self._factors()[0] ** 2), *self._hat_moments(w_klein))

    def gram_banded(self):
        """Tridiagonal H^1_2 Gram matrix (Klein gradient + Klein mass), as
        its ``(diagonal, off-diagonal)`` pair."""
        stiff, *mass = self._klein_moments
        return self._tridiag(stiff * self.inv_h**2, self._mass_pair(mass))

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
        """H^1_2 inner product of two nodal vectors from the per-element Klein
        moments, O(M)."""
        S, LL, LR, RR = self._klein_moments
        vl, wl = self._left(v), self._left(w)
        slopes = S @ (self.slopes(v) * self.slopes(w))
        return float(slopes + LL @ (vl * wl) + LR @ (vl * w + v * wl) + RR @ (v * w))


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
        min(u.r_max, 1.0 - 1e-9),
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
        min(u.r_max, 1.0 - 1e-9),
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


@functools.lru_cache(maxsize=1)
def _tilde_search(params, kappa, nl, cfg):
    """Best tent-profile bound on the onset ratio E/(2G), the assembly it
    was scored on and the refined minimizing tent, a read-only vector.

    A tent of height h scores h^2 E_b / (2 G(h P)) from its width's unit
    tent's energy E_b and point values P.  Two rules score the potential.
    A 2-point Gauss rule per element scores each width's 25 heights and
    picks the first height j of least rough ratio.  The full-order rule
    (:data:`QUAD_ORDER` points) then rescores heights j-1, j, j+1, which
    guards against a rough ratio that ranks two neighbouring heights the
    wrong way round; a width without a finite rough ratio is rescored at
    every height.  The search goes one width at a time, holding that
    width's point values only, and keeps the least full-order ratio by a
    strict <, so the first minimum in (width, height) order wins; the
    golden refinement of its height runs at full order.  E_b always comes
    from the full-order assembly: through its moment tables it costs O(M).
    Raises :class:`SolverError` when no tent has positive potential.

    Nothing here depends on lambda, so the last problem's result is kept,
    with the assembly's weight values and Gram factor: ``solve``,
    ``lambda_scan`` and ``tilde_lambda_estimate`` share one search per
    ``(params, kappa, nl, cfg)``.  The four are frozen, and a weight or
    nonlinearity compares its functions by identity, so a new one misses;
    problem data are treated as immutable.  The tent is read-only because
    every caller of the memo shares it; ``solve`` descends from multiples
    of it.  The kept assembly holds about 2.1 MB at M = 6400: 1.7 MB of
    quadrature data, weights, moment tables and the Gram factor, and 0.36
    MB of state of the last vector it evaluated.
    """
    asm = _Assembly(params, solver_nodes(cfg))
    rough = _Assembly(params, asm.nodes, quad_order=2)
    widths, heights = np.linspace(0.15, 0.8, 10), np.geomspace(1e-2, 1e2, 25)

    def ratio(h, E_b, P, on=asm):
        return _ratio(h * h * E_b, on._potential(h * P, kappa, nl))

    best, cell = math.inf, None  # least full-order ratio and its (width, height)
    # one width at a time, so that only one width's point values are held
    for w in widths:
        base = _tent_vector(asm.nodes, 1.0, w)
        E_b = asm.energy(base)
        P = rough._live_points(base, kappa)
        coarse = [ratio(h, E_b, P, rough) for h in heights]
        j = int(np.argmin(coarse))  # the first minimum
        rows = heights[max(j - 1, 0) : j + 2] if math.isfinite(coarse[j]) else heights
        P = asm._live_points(base, kappa)
        for h in rows:
            rat = ratio(h, E_b, P)
            if rat < best:
                best, cell = rat, (w, h)
    if cell is None:
        raise SolverError(
            "no trial profile produces positive potential; weight and nonlinearity "
            "are incompatible"
        )
    w0, h0 = cell
    base = _tent_vector(asm.nodes, 1.0, w0)
    tent = asm.energy(base), asm._live_points(base, kappa)

    # refine log(height) by golden section; maximizing -ratio minimizes the ratio
    def neg_ratio(log_h):
        return -ratio(math.exp(log_h), *tent)

    log_h, neg_rat, _ = _golden_max(
        neg_ratio, math.log(h0 / 3.0), math.log(h0 * 3.0), tol=1e-10, max_iter=60
    )
    trial = _read_only(_tent_vector(asm.nodes, math.exp(log_h), w0))
    return min(-neg_rat, best), asm, trial


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
            *_, step, info = _lapack().dgtsv(off, diag + mu, off, rhs)
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

def morse_index(band):
    """Number of negative eigenvalues of the symmetric tridiagonal matrix with
    the pair ``band = (diagonal, off-diagonal)``.

    By Sylvester's law of inertia it is the number of negative pivots d_i =
    a_i - b_{i-1}^2 / d_{i-1} of the matrix's LDL^T recurrence, an O(M) count
    (Golub & Van Loan, Matrix Computations, section 8.4).  An exact zero
    pivot is taken as the smallest positive double, as in a Sturm count.
    """
    diag, off = band
    count, d = 0, 1.0
    for a, b2 in zip(diag.tolist(), [0.0] + (off * off).tolist()):
        d = a - b2 / d
        if d < 0.0:
            count += 1
        elif d == 0.0:
            d = 5e-324
    return count


def _ray_barrier(asm, target, lam, kappa, nl):
    """The first local maximum of t -> J(t * target) with t < 1, the ray's
    barrier, as (t_peak, J_peak).

    The scan runs over 600 points of log t in [log 1e-12, log 1e12], since
    the barrier can sit many orders of magnitude below t = 1 deep in the
    two-solution regime, and stops at the first point below its left
    neighbour; golden section then refines log t between the neighbours of
    the peak.  The energy is 2-homogeneous, E(t v) = t^2 E(v), and the point
    values are linear, at_points(t v) = t at_points(v), so the target is
    assembled once and each t costs one ``_potential``.  Raises
    :class:`SolverError` when J(t * target) does not fall before t = 1.
    """
    half_E = 0.5 * asm.energy(target)
    P = asm._live_points(target, kappa)

    def J(log_t):
        t = math.exp(log_t)
        return half_E * t * t - lam * asm._potential(t * P, kappa, nl)

    logs = np.linspace(math.log(1e-12), math.log(1e12), 600)
    Js = [J(logs[0])]
    for k in range(1, logs.size):
        if logs[k - 1] >= 0.0:
            break
        Js.append(J(logs[k]))
        if Js[k] < Js[k - 1]:
            log_t, J_peak, _ = _golden_max(J, logs[max(k - 2, 0)], logs[k], tol=1e-10)
            return math.exp(log_t), J_peak
    raise SolverError("no barrier on the ray below the target", diagnostics={"lambda": lam})


def _certify(asm, u, res, lam, kappa, nl, cfg, index):
    """Certificate of a candidate solution ``u`` with dual residual ``res``
    (residual, least value, H^1_2 norm, Morse index and whether residual and
    least value pass), and the tests it fails as a solution of Morse index
    ``index``, each as a phrase."""
    min_value = float(np.min(u))
    failed = [] if res < cfg.tol else [f"residual {res:.3e}"]
    if not min_value >= -1e-10:
        failed.append(f"min {min_value:.3e}")
    cert = {
        "residual": res,
        "min_value": min_value,
        "h12_norm": asm.h12_norm(u),
        "morse_index": morse_index(asm.hessian_banded(u, lam, kappa, nl)),
        "ok": not failed,
    }
    if cert["morse_index"] != index:
        failed.append(f"Morse index {cert['morse_index']}, not {index}")
    return cert, failed


def mountain_pass(lam, params, kappa, nl, u_target, cfg=None, *, asm=None):
    """Mountain-pass saddle between 0 and a nonzero profile ``u_target``.

    On the ray t -> J(t u_target), the fibering map (Drabek & Pohozaev,
    Proc. Roy. Soc. Edinburgh 127A, 1997), J rises from 0 to a barrier and
    falls toward the target when the target is a minimizer.  Damped Newton
    (``_newton_refine``, indefinite tridiagonal steps by LAPACK's dgtsv)
    runs from the barrier (``_ray_barrier``), and its result is certified:
    residual below tol, least value at least -1e-10, J above max(0,
    J(u_target)) and Morse index exactly 1.  A Newton that lands on zero or
    on the minimizer has index 0, so the index test rejects it.  Returns
    (profile, J_lambda, residual).

    ``asm`` is an ``_Assembly`` on the mesh of ``cfg`` to work on, such as
    the one the tent search keeps; without it one is built, with its own
    weight values and Gram factor.

    Raises :class:`SolverError` when the target is zero, the ray has no
    barrier below the target or the candidate fails a certificate test,
    named in the message.
    """
    _check_lambda(lam)
    params.require_a_below_one("the mountain-pass search")
    cfg = cfg or SolverConfig()
    if asm is None:
        asm = _Assembly(params, solver_nodes(cfg))
    target = _mesh_vector(u_target, asm, "u_target")
    if not np.any(target):
        raise SolverError("mountain pass needs a nonzero target")
    floor = max(0.0, asm.j_lambda(target, lam, kappa, nl))
    t_peak, _ = _ray_barrier(asm, target, lam, kappa, nl)
    u = t_peak * target
    g = asm.grad(u, lam, kappa, nl)
    u, res, _ = _newton_refine(asm, u, lam, kappa, nl, cfg, g, asm._residual(g)[0])
    J = asm.j_lambda(u, lam, kappa, nl)
    cert, failed = _certify(asm, u, res, lam, kappa, nl, cfg, 1)
    if not J > floor:
        failed.append(f"energy {J:.3e} not above {floor:.3e}")
    if failed:
        raise SolverError(
            f"mountain-pass candidate failed certification ({', '.join(failed)})",
            diagnostics={"lambda": lam, "energy": J, **cert},
        )
    return RadialFunction.from_values(asm.nodes, u), J, res


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


def solve(lam, params, kappa=None, nl=None, cfg=None):
    """Full pipeline at one lambda: the zero certificate, or else minimize
    from five starts, then one mountain pass on the ray toward the nonzero
    minimizer.

    The zero certificate (``_Assembly.only_zero``) runs first, on the tent
    search's kept assembly: where one LDL^T factorization proves that the
    discrete J has no critical point but 0, the report is ``only-zero``
    with no solution and no failure, and nothing descends.  Elsewhere the
    starts are t * tent for t in (0.25, 0.5, 1, 2, 4), with the
    refined tent of the tent search, so runs are deterministic.  A start
    that converges to a nonzero profile (H^1_2 norm at least 1e-6) with a
    positive value is a candidate minimizer.  Since g vanishes for s <= 0,
    J = E/2 on a profile with no positive value, strictly convex with 0 its
    only critical point, so such a start is the zero solution approached
    from below.  The candidate of least J, the first start among equals,
    must pass the certificate with Morse index 0; when it fails, the
    failure is noted and no ray is scanned.  Otherwise :func:`mountain_pass`
    runs once on its ray, whatever the sign of its J, and a failure of the
    pass is noted.  No ray is scanned when no start has a candidate.

    Classification: ``only-zero`` when the zero certificate holds or no
    minimizer certifies, ``one`` when the minimizer certifies but the
    mountain pass finds no saddle, ``two`` when both certify; each solution
    reports its certificate, ``morse_index`` included.

    The lambda-independent tent search, its tent, its assembly and Gram
    factor are kept for the last problem (see ``_tilde_search``), so
    repeated solves of one problem, omitted weight and nonlinearity
    included, set them up once.  Problem data are treated as immutable.
    """
    _check_lambda(lam)
    params.require_a_below_one("the variational solver")
    kappa = kappa or _default_kappa()
    nl = nl or _default_nl()
    cfg = cfg or SolverConfig()
    lam_star = nonexistence_threshold(params, nl, kappa)
    lam_tilde, asm, tent = _tilde_search(params, kappa, nl, cfg)
    failures, solutions = [], []
    best = None  # (J, u, residual, iterations) of the lowest positive start
    # where the zero certificate holds, no start can end anywhere but at 0
    starts = () if asm.only_zero(lam, kappa, nl) else _STARTS
    for t in starts:
        u, J, res, iters = _minimize_vec(asm, lam, kappa, nl, cfg, t * tent)
        if res >= cfg.tol:
            failures.append(f"minimize residual {res:.3e} above tol from one start")
        elif asm.h12_norm(u) >= 1e-6 and u.max() > 0.0 and (best is None or J < best[0]):
            best = (J, u, res, iters)
    if best is not None:
        J, u, res, iters = best
        cert, failed = _certify(asm, u, res, lam, kappa, nl, cfg, 0)
        if failed:
            failures.append(f"nonzero minimizer failed certification ({', '.join(failed)})")
        else:
            profile = RadialFunction.from_values(asm.nodes, u)
            solutions.append(
                {"which": "minimizer", "energy": J, "iterations": iters, "profile": profile, **cert}
            )
            try:
                u2, J2, res2 = mountain_pass(lam, params, kappa, nl, u, cfg, asm=asm)
            except SolverError as exc:
                failures.append(f"mountain pass failed: {exc}")
            else:
                cert2 = _certify(asm, u2.values, res2, lam, kappa, nl, cfg, 1)[0]
                solutions.append(
                    dict(which="mountain-pass", energy=J2, iterations=0, profile=u2, **cert2)
                )
    classification = ("only-zero", "one", "two")[len(solutions)]

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
    it for lambda~ and its memo serves it, with the assembly that every
    solve certifies on and the tent that it descends from, to every solve.
    On every problem of the check matrix the zero certificate holds at
    the default schedule's lambda*/2, so no descent runs there.  A failed
    search is not memoized, so each lambda runs it again and reports its
    error.
    With ``lambdas=None`` the schedule is (lambda*/2, 10 lambda~), one point
    on each side of the two-solution onset; then a failed search or a
    lambda~ that is not finite raises :class:`SolverError`.
    """
    params.require_a_below_one("the lambda scan")
    kappa = kappa or _default_kappa()
    nl = nl or _default_nl()
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
    kappa = kappa or _default_kappa()
    nl = nl or _default_nl()
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
