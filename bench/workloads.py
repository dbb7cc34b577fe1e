"""The benchmark's workloads: seeded inputs, one op each, and its check.

Every workload calls the library only through attributes of the imported
``funkball`` modules, looked up at call time, so the traced run can replace
them.  An op returns ``(passed, record)``: ``passed`` is the op's check and
``record`` holds its deterministic outputs for the result digest.  A failed
check or an exception inside the library fails the op; it never aborts the
run.
"""

import math

import numpy as np

import funkball as fb
from funkball import elliptic_solver as es

# Weyl step of the low-discrepancy sequence that spreads lambda draws: every
# prefix of the op stream covers the range evenly, so the medians of a short
# run do not depend on which end of the range the seed favoured.
_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


class _SolverWorkload:
    """``solve(lambda)`` on the default problem: n = 3, a = 0.5, the default
    bump weight and nonlinearity.  Subclasses fix the mesh, the lambda range
    and the expected classification."""

    M = None
    expect = None

    def __init__(self, seed):
        self.params = fb.ModelParams(n=3, a=0.5)
        self.kappa = fb.WeightKappa.default()
        self.nl = fb.Nonlinearity.default()
        self.cfg = fb.SolverConfig(M=self.M)
        self.lambda_star = es.nonexistence_threshold(self.params, self.nl, self.kappa)
        self.lambda_tilde = es.tilde_lambda_estimate(self.params, self.kappa, self.nl, cfg=self.cfg)
        self.quad_points = self.cfg.M * self.cfg.quad_order
        self.shift = np.random.default_rng(seed).random()

    def draw(self, i):
        """Log-uniform lambda in [lo, hi): point i of a seed-shifted Weyl sequence."""
        return self.lo * (self.hi / self.lo) ** ((self.shift + i * _GOLDEN) % 1.0)

    def op(self, lam):
        try:
            rep = es.solve(lam, self.params, self.kappa, self.nl, self.cfg)
        except Exception as exc:  # a library error fails this op, not the run
            return False, ["error", type(exc).__name__]
        sols = [(s["which"], s["energy"], s["residual"]) for s in rep.solutions]
        record = [lam, rep.classification, len(rep.failures), sols]
        return self.check(rep), record

    def check(self, rep):
        return rep.classification == self.expect and not rep.failures


class ZeroM6400(_SolverWorkload):
    why = (
        "fine mesh below lambda*: 51,200 quadrature points per kernel call, so the "
        "_Assembly array work dominates and the mountain pass is bypassed"
    )
    M = 6400
    expect = "only-zero"

    def __init__(self, seed):
        super().__init__(seed)
        self.lo, self.hi = 1e-3 * self.lambda_star, self.lambda_star
        self.warmup = 0.5 * self.lambda_star

    def check(self, rep):
        return super().check(rep) and not rep.solutions


class TwoM400(_SolverWorkload):
    why = (
        "default mesh at 10-1000 lambda~, where the paper gives two solutions; the "
        "solver fails most of these ops (wrong only-zero or failed starts above about "
        "20 lambda~), a solver defect, not a harness bug"
    )
    M = 400
    expect = "two"

    def __init__(self, seed):
        super().__init__(seed)
        self.lo, self.hi = 10.0 * self.lambda_tilde, 1000.0 * self.lambda_tilde
        self.warmup = 10.0 * self.lambda_tilde

    def check(self, rep):
        certified = len(rep.solutions) == 2 and all(
            s["ok"] and s["residual"] < self.cfg.tol and s["min_value"] >= -1e-10
            for s in rep.solutions
        )
        return super().check(rep) and certified


def _bump_profile(rng):
    """Random C^1 profile (1 - (r/R)^2)_+^p (c0 + c1 r + c2 r^2), R < 1, with
    its exact derivative, as in the test suite's fixtures."""
    R = float(rng.uniform(0.35, 0.85))
    p = int(rng.integers(2, 4))
    coef = rng.standard_normal(3)
    if np.max(np.abs(coef)) < 0.1:
        coef[0] += 1.0

    def u(r):
        r = np.asarray(r, dtype=float)
        inside = np.clip(1.0 - (r / R) ** 2, 0.0, None)
        return inside**p * (coef[0] + coef[1] * r + coef[2] * r * r)

    def du(r):
        r = np.asarray(r, dtype=float)
        inside = np.clip(1.0 - (r / R) ** 2, 0.0, None)
        dbase = np.where(inside > 0.0, -2.0 * p * r / (R * R) * inside ** (p - 1), 0.0)
        poly = coef[0] + coef[1] * r + coef[2] * r * r
        return dbase * poly + inside**p * (coef[1] + 2.0 * coef[2] * r)

    return fb.RadialFunction.from_callables(u, du, r_max=1.0)


class Geometry:
    why = (
        "four random cases per op: closed forms against their oracles, norm sandwich, "
        "Federer-Fleming and the a = 1 divergence; finsler_core, quadrature and "
        "sobolev, no assembly"
    )
    quad_points = 0
    # Random cases per op.  One case takes about 45 ms, and its cost depends on
    # n; four per op keep a stall of the shared host or an unlucky run of
    # large n from making up an op's whole time.
    cases = 4

    def __init__(self, seed):
        self.seed = seed
        self.warmup = (0, 0)

    def draw(self, i):
        return (self.seed, i)

    def op(self, key):
        passed, records = True, []
        for case in range(self.cases):
            ok, record = self._case(np.random.default_rng([*key, case]))
            passed = passed and ok
            records.append(record)
        return passed, records

    def _case(self, rng):
        n = int(rng.integers(2, 11))
        a = float(rng.uniform(0.0, 1.0))
        params = fb.ModelParams(n=n, a=a)
        v = rng.standard_normal(n)
        p = fb.BallPoint(v / np.linalg.norm(v) * rng.uniform(0.0, 0.9))
        alpha = rng.standard_normal(n)
        u = _bump_profile(rng)
        try:
            return self._check(n, a, params, p, alpha, u)
        except Exception as exc:  # a library error fails this case, not the run
            return False, ["error", type(exc).__name__]

    @staticmethod
    def _check(n, a, params, p, alpha, u):
        closed = fb.polar_F_star(params, p, alpha)
        oracle = fb.polar_F_star_oracle(params, p, alpha)
        polar_ok = abs(oracle - closed) <= 1e-4 * closed and oracle <= closed * (1.0 + 1e-9)

        grad = fb.legendre_gradient(params, p, alpha)
        grad_fd = fb.legendre_gradient_fd(params, p, alpha)
        grad_ok = np.linalg.norm(grad - grad_fd) <= 1e-5 * np.linalg.norm(grad)

        rev = fb.reversibility_oracle(params, p)
        rev_expected = (1.0 + a * p.r) / (1.0 - a * p.r)
        rev_ok = abs(rev - rev_expected) <= 1e-6 * rev_expected

        rep = fb.w12a_norm(u, params)
        lo = (1.0 - a * a) ** ((n + 1) / 4.0) / (1.0 + a)
        hi = 1.0 / (1.0 - a)
        slack = 1.0 + 1e-10
        sandwich_ok = lo * rep.riemannian <= rep.total * slack and rep.total <= hi * rep.riemannian * slack

        _, _, ff_ratio = fb.federer_fleming_check(u, fb.ModelParams(n=n, a=0.0))
        ff_ok = ff_ratio <= slack

        # the CLI counterexample PASS rule
        trend = fb.divergence_trend(n)
        trend_ok = (
            abs(trend["slope"] - trend["slope_expected"]) <= 0.05 * trend["slope_expected"]
            and trend["c1_rel_error"] <= 1e-4
        )
        passed = polar_ok and grad_ok and rev_ok and sandwich_ok and ff_ok and trend_ok
        record = [n, a, closed, grad.tolist(), rep.total, rep.riemannian, ff_ratio, trend["slope"]]
        return bool(passed), record


WORKLOADS = {"zero_m6400": ZeroM6400, "two_m400": TwoM400, "geometry": Geometry}
