"""Both solution regimes of the sublinear problem, end to end.

Below the explicit threshold lambda* every descent run collapses to the
zero profile.  Far above the onset estimate lambda~ the solver finds a
negative-energy minimizer and then a second, positive-energy solution: the
mountain-pass saddle, reached by Newton from the energy barrier on the ray
from 0 to the minimizer and certified by its Morse index 1.

Run:  python3 demos/two_solutions.py
"""

import numpy as np

from funkball import (
    ModelParams,
    Nonlinearity,
    SolverConfig,
    WeightKappa,
    nonexistence_threshold,
    solve,
    tilde_lambda_estimate,
)


def describe(report):
    print(f"  lambda = {report.lam:.6g}: {report.classification}")
    for sol in report.solutions:
        u = sol["profile"]
        peak = float(np.max(np.abs(u.values)))
        print(
            f"    {sol['which']:13s} J = {sol['energy']:+.4e}  residual = "
            f"{sol['residual']:.2e}  max|u| = {peak:.4g}"
        )


def main():
    params = ModelParams(n=3, a=0.5)
    kappa = WeightKappa.default()
    nl = Nonlinearity.default()
    cfg = SolverConfig(M=200)

    lam_star = nonexistence_threshold(params, nl, kappa)
    lam_tilde = tilde_lambda_estimate(params, kappa, nl, cfg=cfg)
    print(f"nonexistence threshold lambda* = {lam_star:.6g}")
    print(f"onset upper bound lambda~      = {lam_tilde:.6g}")

    print("\nbelow the threshold:")
    describe(solve(0.5 * lam_star, params, kappa, nl, cfg))

    print("\nwell above the onset:")
    describe(solve(10.0 * lam_tilde, params, kappa, nl, cfg))

    print("\nThe gap between lambda* and lambda~ is where existence is not")
    print("decided by either bound; the scan subcommand walks through it.")


if __name__ == "__main__":
    main()
