"""Numerics for the Funk-type metric family on the unit ball.

Closed-form metric calculus with brute-force oracles, radial quadrature
against the singular volume densities, anisotropic Sobolev norms with the
negation-asymmetry witness at a = 1, and a radial variational solver that
locates the only-zero / two-solution regimes of a sublinear weighted
problem.
"""

from .finsler_core import (
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
from .quadrature import (
    MEASURES,
    RadialGrid,
    ball_integral_mc,
    gauss_panels,
    measure_density,
    radial_grid,
    radial_integral,
    sphere_area,
    unit_ball_volume,
)
from .elliptic_solver import (
    LambdaScanReport,
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
    radial_fstar,
    solve,
    solver_nodes,
    subquadraticity_diagnostic,
    tilde_lambda_estimate,
)
from .sobolev import (
    NormReport,
    c1_c2_integrals,
    counterexample_profile,
    divergence_trend,
    federer_fleming_check,
    w12a_norm,
)

__version__ = "0.1.0"
