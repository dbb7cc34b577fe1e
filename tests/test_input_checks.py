"""Input checks of the library classes that no behaviour test reaches.

Each row builds one invalid input and names the exception and the message
it must raise; the messages, not line numbers, tie a row to its check.
"""

import math

import numpy as np
import pytest

from funkball import (
    BallPoint,
    ModelParams,
    Nonlinearity,
    NormReport,
    RadialFunction,
    RadialGrid,
    SolverConfig,
    WeightKappa,
    funk_distance,
    measure_density,
    polar_F_star_oracle,
    reversibility_oracle,
    solver_nodes,
    unit_ball_volume,
)
from funkball.elliptic_solver import _Assembly, _certify
from funkball.finsler_core import GeometryError

PARAMS = ModelParams(n=3, a=0.5)
POINT = BallPoint([0.1, 0.0])
DEFAULT_NL = Nonlinearity.default()


def _with_cg(c_g):
    return Nonlinearity(g=DEFAULT_NL.g, G=DEFAULT_NL.G, dg=DEFAULT_NL.dg, c_g=c_g)


def _linear_at_infinity(s):
    # s^2/(1 + s): sublinear at 0, but g(s)/s -> 1 at infinity
    sp = np.fmax(np.asarray(s, dtype=float), 0.0)
    return sp * sp / (1.0 + sp)


def _norm_report(**fields):
    values = dict(seminorm=1.0, mass=3.0, total=2.0, klein_gradient=1.0, riemannian=2.0, r_max=0.5)
    values.update(fields)
    return NormReport(**values)


CHECKS = {
    # RadialFunction
    "profile-short": (
        lambda: RadialFunction.from_values([0.5], [0.0]),
        ValueError,
        "need matching node/value arrays with at least 2 entries",
    ),
    "profile-mismatched": (
        lambda: RadialFunction.from_values([0.2, 0.5], [1.0, 0.5, 0.0]),
        ValueError,
        "need matching node/value arrays with at least 2 entries",
    ),
    "profile-last-node-at-1": (
        lambda: RadialFunction.from_values([0.5, 1.0], [1.0, 0.0]),
        ValueError,
        "the last node must lie strictly inside the unit interval",
    ),
    "profile-non-finite": (
        lambda: RadialFunction.from_values([0.2, 0.5, 0.9], [math.nan, 1.0, 0.0]),
        ValueError,
        "profile values must be finite",
    ),
    **{
        f"callables-r_max-{r_max}": (
            lambda r_max=r_max: RadialFunction.from_callables(np.zeros_like, np.zeros_like, r_max),
            ValueError,
            r"r_max must lie in \(0, 1\]",
        )
        for r_max in (0.0, 1.5, math.nan)
    },
    # _Assembly
    "mesh-too-short": (
        lambda: _Assembly(PARAMS, [0.2, 0.5]),
        ValueError,
        "mesh must be strictly increasing with positive first node",
    ),
    "mesh-decreasing": (
        lambda: _Assembly(PARAMS, [0.5, 0.2, 0.9]),
        ValueError,
        "mesh must be strictly increasing with positive first node",
    ),
    "mesh-at-1": (
        lambda: _Assembly(PARAMS, [0.2, 0.5, 1.0]),
        ValueError,
        "mesh must end strictly inside the unit interval",
    ),
    # WeightKappa
    "weight-non-finite": (
        lambda: WeightKappa(kappa=lambda r: np.where(np.asarray(r) > 0.5, math.inf, 1.0)),
        ValueError,
        r"weight must be finite on \[0, 1\)",
    ),
    **{
        f"weight-sup_norm-{sup}": (
            lambda sup=sup: WeightKappa(kappa=np.ones_like, sup_norm=sup),
            ValueError,
            "sup norm must be finite and positive",
        )
        for sup in (0.0, -1.0, math.inf, math.nan)
    },
    # Nonlinearity
    **{
        f"c_g-{c_g}": (lambda c_g=c_g: _with_cg(c_g), ValueError, "c_g must be positive")
        for c_g in (0.0, -1.0, math.nan)
    },
    "g-linear-at-infinity": (
        lambda: Nonlinearity(g=_linear_at_infinity, G=np.zeros_like, dg=np.zeros_like),
        ValueError,
        r"g\(s\)/s must vanish as s -> infinity",
    ),
    # finsler_core
    "point-one-coordinate": (
        lambda: BallPoint([0.5]),
        GeometryError,
        "points need at least 2 coordinates",
    ),
    "point-non-finite": (
        lambda: BallPoint([math.nan, 0.0]),
        GeometryError,
        "point coordinates must be finite",
    ),
    "distance-across-dimensions": (
        lambda: funk_distance(POINT, BallPoint([0.1, 0.0, 0.0])),
        GeometryError,
        "points must share a dimension",
    ),
    "reversibility-oracle-99-samples": (
        lambda: reversibility_oracle(PARAMS, POINT, samples=99),
        GeometryError,
        "need at least 100 samples, got 99",
    ),
    "dual-oracle-99-samples": (
        lambda: polar_F_star_oracle(PARAMS, POINT, np.array([1.0, 0.0]), samples=99),
        GeometryError,
        "need at least 100 samples, got 99",
    ),
    # quadrature
    "grid-mismatched": (
        lambda: RadialGrid(nodes=[0.1, 0.2], weights=[1.0], r_max=0.5),
        ValueError,
        "nodes and weights must be matching 1-d arrays",
    ),
    "grid-decreasing": (
        lambda: RadialGrid(nodes=[0.2, 0.1], weights=[1.0, 1.0], r_max=0.5),
        ValueError,
        "nodes must be strictly increasing",
    ),
    "grid-zero-weight": (
        lambda: RadialGrid(nodes=[0.1, 0.2], weights=[1.0, 0.0], r_max=0.5),
        ValueError,
        "weights must be positive",
    ),
    "unknown-measure": (
        lambda: measure_density(PARAMS, 0.5, "riemannian"),
        ValueError,
        "unknown measure 'riemannian'",
    ),
    **{
        f"ball-volume-n-{n}": (
            lambda n=n: unit_ball_volume(n),
            ValueError,
            "dimension must be a nonnegative integer",
        )
        for n in (-1, 2.5)
    },
    # sobolev
    "norm-report-negative": (
        lambda: _norm_report(mass=-1.0),
        ValueError,
        "mass must be non-negative",
    ),
    "norm-report-total": (
        lambda: _norm_report(total=3.0),
        ValueError,
        r"total norm must satisfy total\^2 = seminorm \+ mass",
    ),
}


@pytest.mark.parametrize("make, error, message", CHECKS.values(), ids=CHECKS.keys())
def test_invalid_input_raises_its_message(make, error, message):
    with pytest.raises(error, match=message):
        make()


def test_certificate_names_a_negative_least_value():
    # a candidate solution must be non-negative; the check matrix's runs
    # are the only solves that reach this phrase
    cfg = SolverConfig(M=120)
    asm = _Assembly(PARAMS, solver_nodes(cfg))
    u = np.full(asm.M, -0.5)
    u[-1] = 0.0
    cert, failed = _certify(asm, u, 0.0, 0.0, WeightKappa.default(), DEFAULT_NL, cfg, 0)
    assert cert["min_value"] == -0.5 and not cert["ok"]
    assert failed == ["min -5.000e-01"]
