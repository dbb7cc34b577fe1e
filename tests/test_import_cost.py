"""SciPy's LAPACK is loaded at the first factorization, not at ``import funkball``.

The pytest process has ``scipy.linalg`` loaded already, so the checks run in
a fresh interpreter.
"""

import os
import subprocess
import sys
import textwrap
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

SCRIPT = textwrap.dedent(
    """
    import sys
    import numpy as np
    import funkball
    from funkball import cli, elliptic_solver as es

    def loaded():
        return "scipy.linalg" in sys.modules

    # the geometry paths: closed forms, oracles, norm reports, the a = 1 trend
    params = funkball.ModelParams(n=3, a=0.5)
    p = funkball.BallPoint([0.3, 0.2, 0.1])
    funkball.polar_F_star_oracle(params, p, np.array([1.0, -2.0, 0.5]), samples=200)
    funkball.w12a_norm(funkball.counterexample_profile(), params)
    funkball.divergence_trend(3)
    assert cli.main(["metric", "--a", "0.5", "--reversibility"]) == 0
    assert not loaded(), "a solver-free path loaded scipy.linalg"

    # the error contract on the first LAPACK call, which loads the module
    diag, off = np.full(20, 4.0), np.ones(19)
    nan_diag = diag.copy()
    nan_diag[3] = np.nan
    try:
        es._band_factor((nan_diag, off))
    except ValueError:
        pass
    else:
        raise AssertionError("a NaN band was factored")
    assert loaded()
    indefinite = diag.copy()
    indefinite[5] = -5.0
    try:
        es._band_factor((indefinite, off))
    except np.linalg.LinAlgError:
        pass
    else:
        raise AssertionError("an indefinite band was factored")
    rhs = np.ones(20)
    rhs[7] = np.inf
    try:
        es._band_solve(es._band_factor((diag, off)), rhs)
    except ValueError:
        pass
    else:
        raise AssertionError("a non-finite right-hand side was solved")

    # a small solve reaches LAPACK through the same accessor
    hits = es._lapack.cache_info().hits
    report = funkball.solve(10.0, params, cfg=funkball.SolverConfig(M=16))
    assert report.classification == "only-zero", report.classification
    assert loaded() and es._lapack.cache_info().hits > hits
    print("ok")
    """
)


def test_solver_free_paths_do_not_load_scipy_linalg():
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run([sys.executable, "-c", SCRIPT], capture_output=True, text=True,
                          env=env, cwd=ROOT, check=False, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "ok"
