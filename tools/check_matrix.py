"""Solve a fixed matrix of problems and print every report and one digest.

    PYTHONPATH=src python3 tools/check_matrix.py

Runs ``solve`` on 168 problems: meshes M in {120, 400}, six (n, a) pairs,
the bump weight and the weight exp(-r), and seven lambdas (0.5 lambda*
and 0.6, 0.65, 2, 10, 100 and 1000 lambda~).  Prints one JSON line per
run, the run's coordinates and its ``SolveReport.to_json_dict()``, then a
summary line and ``sha256 <hex>`` over all run lines.  A change that
should keep every result bit for bit prints the same digest as its parent:
run the script once with ``PYTHONPATH`` pointing at each checkout's
``src``.  It takes 2.3 to 2.9 s with one BLAS thread on a 2-core Xeon
and is not part of the test suite.

    PYTHONPATH=src python3 tools/check_matrix.py --diff PARENT.txt CHANGE.txt

compares two saved outputs and solves nothing.  It prints each run whose
classification, failure count or any solution's ``ok`` differs, then the
largest relative change of each solution's ``energy``, ``h12_norm`` and
``residual`` over the runs of both files.  It exits 1 when a run is
missing on one side, a classification or an ``ok`` changed, or a failure
count moved anywhere but at the descent's absolute-tolerance floor: there
the other failures are the same on both sides, every failed start on
either side stalled within ``FLOOR * tol`` and every solution's energy
agrees within ``ENERGY_RTOL``.
"""

import os

# one BLAS thread: a threaded dot product may sum in another order
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import argparse
import hashlib
import json
import re
import sys

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


def print_matrix():
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


KEYS = ("M", "n", "a", "weight", "lambda")
COMPARED = ("energy", "h12_norm", "residual")
FLOOR = 10.0
ENERGY_RTOL = 1e-12
FAILED_START = re.compile(r"minimize residual (\S+) above tol from one start")


def load(path):
    """Reports of a saved output by run coordinates; the summary and digest
    lines are skipped."""
    reports = {}
    with open(path) as fh:
        for line in fh:
            if line.startswith("{"):
                run = json.loads(line)
                if "report" in run:
                    reports[tuple(run[k] for k in KEYS)] = run["report"]
    return reports


def _relative(old, new):
    if old == new:
        return 0.0
    return abs(new - old) / abs(old) if old else float("inf")


def _at_floor(old, new, tol):
    """Whether two reports of a run differ in failed starts only, each
    stalled within ``FLOOR * tol``, with every energy within ``ENERGY_RTOL``."""
    others = []
    for report in (old, new):
        starts = [FAILED_START.fullmatch(f) for f in report["failures"]]
        if any(m is not None and float(m.group(1)) > FLOOR * tol for m in starts):
            return False
        others.append(sorted(f for f, m in zip(report["failures"], starts) if m is None))
    return others[0] == others[1] and all(
        _relative(a["energy"], b["energy"]) <= ENERGY_RTOL
        for a, b in zip(old["solutions"], new["solutions"]))


def diff(parent, change, tol=SolverConfig.tol):
    """Printed lines of the comparison of two loaded outputs, and whether a
    run is missing, a classification or a solution's ``ok`` changed, or a
    failure count moved off the floor."""
    runs, broken = [], False
    largest = {key: (0.0, "") for key in COMPARED}
    for coords in sorted(parent.keys() | change.keys(), key=str):
        where = " ".join(f"{k}={v}" for k, v in zip(KEYS, coords))
        old, new = parent.get(coords), change.get(coords)
        if old is None or new is None:
            runs.append(f"{where}: only in {'change' if old is None else 'parent'}")
            broken = True
            continue
        label = [r["classification"] for r in (old, new)]
        ok = [[sol["ok"] for sol in r["solutions"]] for r in (old, new)]
        failed = [len(r["failures"]) for r in (old, new)]
        if label[0] != label[1] or ok[0] != ok[1] or failed[0] != failed[1]:
            floor = label[0] == label[1] and ok[0] == ok[1] and _at_floor(old, new, tol)
            runs.append(f"{where}: classification {label[0]} -> {label[1]}, "
                        f"failures {failed[0]} -> {failed[1]}, ok {ok[0]} -> {ok[1]}"
                        + (", at the floor" if floor else ""))
            broken |= not floor
        for a, b in zip(old["solutions"], new["solutions"]):
            for key in COMPARED:
                rel = _relative(a[key], b[key])
                if rel > largest[key][0]:
                    largest[key] = (rel, f" at {where} {a['which']}")
    summary = {"runs": len(parent.keys() | change.keys()), "differing": len(runs),
               "rejected": broken}
    lines = runs + [json.dumps(summary)]
    lines += [f"{key}: largest relative change {rel:.3g}{at}" for key, (rel, at) in largest.items()]
    return lines, broken


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--diff", nargs=2, metavar=("PARENT", "CHANGE"),
                        help="compare two saved outputs instead of solving")
    args = parser.parse_args(argv)
    if args.diff is None:
        print_matrix()
        return 0
    lines, broken = diff(*(load(path) for path in args.diff))
    print("\n".join(lines))
    return 1 if broken else 0


if __name__ == "__main__":
    sys.exit(main())
