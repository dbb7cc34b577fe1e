"""Self-test of the benchmark harness (about a minute).

    python3 -m pytest -q bench/test_bench.py

Runs every workload for a few ops in both modes and checks the result line
against ``BENCHMARK.json``; checks that a wrong expected answer is counted
as a failed op; and checks that the benchmark refuses to run without the
library's sources.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

import run
import worker

with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
    SPEC = json.load(fh)


def _run(workload, trace, cwd=run.ROOT):
    cmd = [sys.executable, os.path.join(cwd, "bench", "run.py"), "--workload", workload,
           "--seed", "0", "--seconds", "1", "--trace", str(trace)]
    return subprocess.run(cmd, capture_output=True, text=True, timeout=170, cwd=cwd)


def test_gated_workloads_are_known():
    assert {w["name"] for w in SPEC["workloads"]} <= set(run.WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_result_line_names_every_metric(workload, trace):
    proc = _run(workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1 and 0 <= result["failed"] <= result["attempted"]
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in wanted}
    for m in wanted:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
    if workload in {w["name"] for w in SPEC["workloads"]}:
        assert result["correct"] and result["failed"] == 0


def test_wrong_expected_answer_counts_as_failed():
    worker.import_library()
    import workloads

    wl = workloads.TwoM400(0)
    wl.draw = lambda i: wl.warmup  # 10 lambda~, where the solver certifies two
    sc = run.score(worker.measure(wl, 0.0))
    assert sc["failed"] == 0 and sc["op_s"]["p50"] is not None
    wl.expect = "only-zero"
    sc = run.score(worker.measure(wl, 0.0))
    assert sc["failed"] == 1 and sc["failed_frac"] == 1.0
    assert sc["op_s"]["p50"] is None and sc["good_ops_per_s"] == 0.0


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(os.path.join(run.ROOT, "bench"), tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), tmp_path)
    proc = _run("geometry", 0, cwd=str(tmp_path))
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
