"""Solve a fixed matrix of problems and print every report and one digest.

    PYTHONPATH=src python3 tools/check_matrix.py

Runs ``solve`` on 168 problems: meshes M in {120, 400}, six (n, a) pairs,
the bump weight and the weight exp(-r), and seven lambdas (0.5 lambda*
and 0.6, 0.65, 2, 10, 100 and 1000 lambda~).  Prints one JSON line per
run, the run's coordinates and its ``SolveReport.to_json_dict()``, then a
summary line and ``sha256 <hex>`` over all run lines.  A change that
should keep every result bit for bit prints the same digest as its parent:
run the script once with ``PYTHONPATH`` pointing at each checkout's
``src``.  It takes about two minutes on one core and is not part of the
test suite.
"""

import os

# one BLAS thread: a threaded dot product may sum in another order
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import hashlib
import json

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

MESHES = (120, 400)
SHAPES = ((2, 0.0), (3, 0.5), (5, 0.9), (3, 0.99), (10, 0.5), (2, 0.99))
TILDE_MULTIPLES = (0.6, 0.65, 2.0, 10.0, 100.0, 1e3)


def weights():
    return {
        "bump": WeightKappa.default(),
        "exp": WeightKappa(kappa=lambda r: np.exp(-np.asarray(r, dtype=float))),
    }


def runs():
    """(coordinates, report) of every run, one problem's lambdas in a row so
    that they share its tent search."""
    nl = Nonlinearity.default()
    for M in MESHES:
        cfg = SolverConfig(M=M)
        for n, a in SHAPES:
            params = ModelParams(n=n, a=a)
            for name, kappa in weights().items():
                lam_star = nonexistence_threshold(params, nl, kappa)
                lam_tilde = tilde_lambda_estimate(params, kappa, nl, cfg=cfg)
                lams = [("0.5 lambda*", 0.5 * lam_star)]
                lams += [(f"{m:g} lambda~", m * lam_tilde) for m in TILDE_MULTIPLES]
                for where, lam in lams:
                    coords = {"M": M, "n": n, "a": a, "weight": name, "lambda": where}
                    yield coords, solve(lam, params, kappa, nl, cfg)


def main():
    digest = hashlib.sha256()
    classes, failures = {}, 0
    for coords, report in runs():
        line = json.dumps({**coords, "report": report.to_json_dict()})
        print(line)
        digest.update(line.encode() + b"\n")
        classes[report.classification] = classes.get(report.classification, 0) + 1
        failures += len(report.failures)
    print(json.dumps({"runs": sum(classes.values()), "classifications": classes,
                      "failures": failures}))
    print("sha256", digest.hexdigest())


if __name__ == "__main__":
    main()
