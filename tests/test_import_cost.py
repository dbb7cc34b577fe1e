"""The solver loads SciPy's compiled LAPACK extension alone, at the first
factorization: ``import funkball`` loads no LAPACK, and no path, solving or
not, imports the ``scipy.linalg`` package (whose array-API layer loads
``numpy.testing``).

The pytest process has ``scipy.linalg`` loaded already, so the checks run in
a fresh interpreter.
"""

import importlib.machinery
import inspect
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest
import scipy

from funkball import elliptic_solver as es

ROOT = Path(__file__).resolve().parents[1]


def two_solve_bits():
    """``float.hex`` of the energies and residuals of the certified ``two``
    solve at 10 lambda~ on M = 48."""
    import funkball

    params, cfg = funkball.ModelParams(n=3, a=0.5), funkball.SolverConfig(M=48)
    lam_tilde = funkball.solve(10.0, params, cfg=cfg).lambda_tilde_est
    report = funkball.solve(10.0 * lam_tilde, params, cfg=cfg)
    assert report.classification == "two", report.classification
    return " ".join(float(s[k]).hex() for s in report.solutions for k in ("energy", "residual"))


SCRIPT = textwrap.dedent(inspect.getsource(two_solve_bits)) + textwrap.dedent(
    """
    import sys
    import numpy as np
    import funkball
    from funkball import cli, elliptic_solver as es

    def check_unloaded(where):
        for name in ("scipy.linalg", "numpy.testing"):
            assert name not in sys.modules, f"{where} loaded {name}"

    # the geometry paths: closed forms, oracles, norm reports, the a = 1 trend
    params = funkball.ModelParams(n=3, a=0.5)
    p = funkball.BallPoint([0.3, 0.2, 0.1])
    funkball.polar_F_star_oracle(params, p, np.array([1.0, -2.0, 0.5]), samples=200)
    funkball.w12a_norm(funkball.counterexample_profile(), params)
    funkball.divergence_trend(3)
    assert cli.main(["metric", "--a", "0.5", "--reversibility"]) == 0
    assert es._lapack.cache_info().currsize == 0, "a solver-free path loaded LAPACK"
    check_unloaded("a solver-free path")

    # the error contract on the first LAPACK call, which loads the extension
    diag, off = np.full(20, 4.0), np.ones(19)
    nan_diag = diag.copy()
    nan_diag[3] = np.nan
    try:
        es._band_factor((nan_diag, off))
    except ValueError:
        pass
    else:
        raise AssertionError("a NaN band was factored")
    assert es._lapack.cache_info().currsize == 1
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

    # solves reach LAPACK through the same cached accessor
    hits = es._lapack.cache_info().hits
    report = funkball.solve(10.0, params, cfg=funkball.SolverConfig(M=16))
    assert report.classification == "only-zero", report.classification
    assert es._lapack.cache_info().hits > hits
    hits = es._lapack.cache_info().hits
    assert cli.main(["solve", "--lambda", "10"]) == 0
    assert es._lapack.cache_info().hits > hits
    bits = two_solve_bits()
    check_unloaded("a solve")
    print(bits)
    print("ok")
    """
)


def test_no_path_imports_scipy_linalg_and_a_fresh_load_gives_the_same_bits():
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run([sys.executable, "-c", SCRIPT], capture_output=True, text=True,
                          env=env, cwd=ROOT, check=False, timeout=60)
    assert proc.returncode == 0, proc.stderr
    *_, fresh_bits, last = proc.stdout.splitlines()
    assert last == "ok"
    # here scipy.linalg is loaded, with its own instance of the extension
    import scipy.linalg  # noqa: F401

    assert es._lapack() is not sys.modules["scipy.linalg._flapack"]
    assert two_solve_bits() == fresh_bits


def test_a_missing_lapack_extension_is_named(monkeypatch):
    monkeypatch.setattr(importlib.machinery.PathFinder, "find_spec",
                        classmethod(lambda cls, name, path=None, target=None: None))
    with pytest.raises(ImportError, match=r"scipy/linalg/_flapack") as err:
        es._lapack.__wrapped__()
    assert scipy.__version__ in str(err.value)
