"""Sobolev-norm machinery on the ball and the vector-space dichotomy witness.

The anisotropic norm is

    ||u||^2 = int F_a*^2(x, Du) dV_Fa + int u^2 dV_Fa,

computed here for radial profiles through the radial closed form of the
dual norm.  For a < 1 it is equivalent to the Riemannian H^1_2 norm of the
Klein model, so negation maps the space to itself.  At a = 1 that symmetry
breaks: the profile u(r) = -sqrt(1-r) has finite norm while -u does not,
which this module exhibits quantitatively through truncated integrals
C1(R) (convergent) and C2(R) (logarithmically divergent as R -> 1).
"""

import math
from dataclasses import dataclass

import numpy as np

from .elliptic_solver import RadialFunction, radial_fstar
from .finsler_core import ModelParams
from .quadrature import R_MAX, radial_integral, sphere_area, unit_ball_volume

__all__ = [
    "NormReport",
    "c1_c2_integrals",
    "counterexample_profile",
    "divergence_trend",
    "federer_fleming_check",
    "w12a_norm",
]


@dataclass(frozen=True)
class NormReport:
    """All five norms of one radial profile at one truncation radius.

    ``seminorm`` and ``mass`` are the two integrals above, ``total`` their
    root sum; ``klein_gradient`` is the gradient norm over the Klein
    model, ``riemannian`` the full H^1_2 norm.
    """

    seminorm: float
    mass: float
    total: float
    klein_gradient: float
    riemannian: float
    r_max: float

    CSV_HEADER = ("seminorm", "mass", "total", "klein_gradient", "riemannian", "r_max")

    def __post_init__(self):
        for name in self.CSV_HEADER:
            if getattr(self, name) < 0.0:
                raise ValueError(f"{name} must be non-negative")
        if abs(self.total**2 - (self.seminorm + self.mass)) > 1e-9 * (1.0 + self.total**2):
            raise ValueError("total norm must satisfy total^2 = seminorm + mass")

    def to_json_dict(self):
        return {name: getattr(self, name) for name in self.CSV_HEADER}

    def to_csv_row(self):
        return tuple(getattr(self, name) for name in self.CSV_HEADER)


def _klein_parts(u, params, r_max):
    """Klein-volume mass int u^2 dV_K and gradient int h_K*(Du) dV_K."""
    mass = radial_integral(lambda r: np.asarray(u.u(r)) ** 2, params, "klein", r_max)
    grad = radial_integral(
        lambda r: ((1.0 - r) * (1.0 + r) * np.asarray(u.du(r))) ** 2,
        params,
        "klein",
        r_max,
    )
    return mass, grad


def w12a_norm(u, params, r_max=R_MAX):
    """Assemble the :class:`NormReport` of a radial profile.

    For a = 0 the total equals the Riemannian H^1_2 norm identically (the
    same integrand and measure); for 0 < a < 1 the two are sandwiched
    within explicit constants; a = 1 is allowed and is where the seminorm
    of a profile and of its negation can differ in kind.  The integrals
    are truncated at ``min(r_max, u.r_max)``.
    """
    r_max = min(r_max, u.r_max)

    def dual_sq(r):
        return np.asarray(radial_fstar(params, r, u.du(r))) ** 2

    seminorm = radial_integral(dual_sq, params, "finsler_a", r_max)
    mass = radial_integral(lambda r: np.asarray(u.u(r)) ** 2, params, "finsler_a", r_max)
    klein_mass, klein_sq = _klein_parts(u, params, r_max)
    return NormReport(
        seminorm=seminorm,
        mass=mass,
        total=math.sqrt(max(seminorm + mass, 0.0)),
        klein_gradient=math.sqrt(max(klein_sq, 0.0)),
        riemannian=math.sqrt(max(klein_sq + klein_mass, 0.0)),
        r_max=r_max,
    )


def counterexample_profile():
    """The profile u(r) = -sqrt(1-r) with exact derivative 1/(2 sqrt(1-r)).

    Equals -exp(-d(0,x)/2) for the forward distance of the a = 1 metric;
    its own norm is finite while the norm of its negation diverges, so the
    a = 1 function class is not closed under negation.
    """

    def u(r):
        return -np.sqrt(np.maximum(1.0 - np.asarray(r, dtype=float), 0.0))

    def du(r):
        return 0.5 / np.sqrt(np.maximum(1.0 - np.asarray(r, dtype=float), 1e-300))

    return RadialFunction.from_callables(u, du, r_max=1.0)


def c1_c2_integrals(r_max, n):
    """Truncated halves of the dichotomy computation at a = 1.

    C1(R) = (1/4) int_{|x|<R} (1-|x|) dx is the seminorm of the
    counterexample profile and converges to omega_n/(4(n+1)); C2(R) =
    (1/4) int_{|x|<R} (1+|x|)^2/(1-|x|) dx is the seminorm of its negation
    and grows like n*omega_n*ln(1/(1-R)).  Both use Lebesgue measure (the
    canonical volume at a = 1 is Lebesgue).
    """
    params = ModelParams(n=n, a=1.0)
    c1 = 0.25 * radial_integral(lambda r: 1.0 - np.asarray(r), params, "lebesgue", r_max)
    c2 = 0.25 * radial_integral(
        lambda r: (1.0 + np.asarray(r)) ** 2 / (1.0 - np.asarray(r)),
        params,
        "lebesgue",
        r_max,
    )
    return c1, c2


def federer_fleming_check(u, params, r_max=R_MAX):
    """Check int u^2 dV_K <= (4/(n-1)^2) int h_K*(Du) dV_K.

    Returns (lhs, rhs, ratio); the inequality holds when ratio <= 1.  A
    profile with zero gradient (the zero profile) has no ratio and raises.
    The integrals are truncated at ``min(r_max, u.r_max)``.
    """
    lhs, grad = _klein_parts(u, params, min(r_max, u.r_max))
    rhs = 4.0 / (params.n - 1) ** 2 * grad
    if rhs <= 0.0:
        raise ValueError("ratio undefined for a profile with zero gradient")
    return lhs, rhs, lhs / rhs


def divergence_trend(n, r_schedule=None):
    """Tabulate C1 and C2 along a truncation schedule and take the C2 slope.

    C2 grows linearly in ln(1/(1-R)) with slope n*omega_n, so successive
    decade truncations gain n*omega_n*ln(10) each while C1 settles at
    omega_n/(4(n+1)).  The slope is taken between the two largest radii:
    C2's integrand carries r^(n-1), which is far from 1 at the smaller
    radii of the schedule for large n.  Returns a dict with the schedule,
    both columns, that slope against ln(1/(1-R)), the expected slope, the
    C1 limit, and the relative C1 error at the tightest truncation.
    """
    if r_schedule is None:
        r_schedule = [1.0 - 10.0 ** (-k) for k in range(1, 10)]
    r_schedule = [float(R) for R in r_schedule]
    if len(r_schedule) < 2:
        raise ValueError("need at least two truncation radii to fit a slope")
    if any(not 0.0 < R < 1.0 for R in r_schedule):
        raise ValueError("truncation radii must lie in (0, 1)")
    x = np.log(1.0 / (1.0 - np.asarray(r_schedule)))
    lo, hi = np.argsort(x)[-2:]
    if x[lo] == x[hi]:
        raise ValueError("the two largest truncation radii must differ")
    c1s, c2s = [], []
    for R in r_schedule:
        c1, c2 = c1_c2_integrals(R, n)
        c1s.append(c1)
        c2s.append(c2)
    limit = unit_ball_volume(n) / (4.0 * (n + 1))
    return {
        "R": np.asarray(r_schedule),
        "C1": np.asarray(c1s),
        "C2": np.asarray(c2s),
        "slope": float((c2s[hi] - c2s[lo]) / (x[hi] - x[lo])),
        "slope_expected": sphere_area(n),
        "c1_limit": limit,
        "c1_rel_error": abs(c1s[hi] - limit) / limit,
    }
