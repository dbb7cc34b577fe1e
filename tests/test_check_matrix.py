"""``tools/check_matrix.py --diff`` on synthetic saved outputs."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
NO_BARRIER = "mountain pass failed: no barrier on the ray below the target"


def _stalled(residual):
    return f"minimize residual {residual:.3e} above tol from one start"


def _solution(which, energy, ok=True):
    return {"which": which, "energy": energy, "iterations": 3, "residual": 1e-12,
            "min_value": 0.0, "h12_norm": 2.0, "ok": ok}


def _run(lam, label="two", failures=(), solutions=None):
    coords = {"M": 120, "n": 3, "a": 0.5, "weight": "bump", "lambda": lam}
    if solutions is None:
        solutions = [_solution("minimizer", -4.0), _solution("mountain-pass", 0.5)]
    report = {"lambda": 1.0, "classification": label, "failures": list(failures),
              "solutions": solutions}
    return {**coords, "report": report}


def _diff(tmp_path, parent, change):
    paths = []
    for name, runs in (("parent.txt", parent), ("change.txt", change)):
        path = tmp_path / name
        lines = [json.dumps(run) for run in runs]
        lines += [json.dumps({"runs": len(runs)}), "sha256 " + "0" * 64]
        path.write_text("\n".join(lines) + "\n")
        paths.append(str(path))
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "check_matrix.py"), "--diff", *paths],
        capture_output=True, text=True, env=env, check=False,
    )
    return proc.returncode, proc.stdout.splitlines()


FLOOR_RUN = [_stalled(3.594e-8), _stalled(3.569e-8), _stalled(3.588e-8), NO_BARRIER]


def test_diff_accepts_a_failure_count_moved_at_the_floor(tmp_path):
    parent = [_run("2 lambda~"), _run("100 lambda~", failures=FLOOR_RUN)]
    moved = [_solution("minimizer", -5.0), _solution("mountain-pass", 0.5)]
    change = [_run("2 lambda~", solutions=moved),
              _run("100 lambda~", failures=[NO_BARRIER, _stalled(3.678e-8)])]
    code, lines = _diff(tmp_path, parent, change)
    assert code == 0
    assert lines[0] == ("M=120 n=3 a=0.5 weight=bump lambda=100 lambda~: classification "
                        "two -> two, failures 4 -> 2, ok [True, True] -> [True, True], "
                        "at the floor")
    assert json.loads(lines[1]) == {"runs": 2, "differing": 1, "rejected": False}
    assert lines[2] == ("energy: largest relative change 0.25 at M=120 n=3 a=0.5 weight=bump "
                        "lambda=2 lambda~ minimizer")
    assert lines[3:] == ["h12_norm: largest relative change 0",
                         "residual: largest relative change 0"]


@pytest.mark.parametrize("what", ["label", "ok", "missing", "off-floor", "other-failure",
                                  "energy"])
def test_diff_exits_1_on_a_rejected_run(tmp_path, what):
    parent = [_run("2 lambda~"), _run("10 lambda~", failures=FLOOR_RUN)]
    change = [_run("2 lambda~")]
    if what == "label":
        change.append(_run("10 lambda~", label="one", failures=FLOOR_RUN, solutions=[]))
    elif what == "ok":
        bad = [_solution("minimizer", -4.0), _solution("mountain-pass", 0.5, ok=False)]
        change.append(_run("10 lambda~", failures=FLOOR_RUN, solutions=bad))
    elif what == "off-floor":
        change.append(_run("10 lambda~", failures=FLOOR_RUN + [_stalled(1.001e-7)]))
    elif what == "other-failure":
        change.append(_run("10 lambda~", failures=FLOOR_RUN[:2]))
    elif what == "energy":
        moved = [_solution("minimizer", -4.0 * (1 + 1e-11)), _solution("mountain-pass", 0.5)]
        change.append(_run("10 lambda~", failures=FLOOR_RUN[1:], solutions=moved))
    code, lines = _diff(tmp_path, parent, change)
    assert code == 1
    assert lines[0].startswith("M=120 n=3 a=0.5 weight=bump lambda=10 lambda~: ")
    assert not lines[0].endswith("at the floor")
    assert json.loads(lines[1])["rejected"] is True
