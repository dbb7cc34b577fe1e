"""Benchmark for funkball: seeded workloads, checked results, one JSON line.

    python3 bench/run.py --workload zero_m6400 --seed 0 --seconds 50 --trace 0
    python3 bench/run.py --workload all --seed 0 --seconds 50 --trace 0

Each workload runs in fresh interpreters (``bench/worker.py``), one at a
time, each one process with one client in a closed loop: the next op starts
when the previous one returns.  With ``--trace 0``, ``PARTS`` processes in
turn each set up and then run a share of the op stream for a share of the
seconds, and each process's set-up is one ``setup_s`` sample.  The host
is a few cores of a shared machine whose speed changes by up to 1.8x for
seconds to minutes at a time, so the timings are made steady three ways:
ops are pooled from several processes; a process runs its ops in
``REPEATS`` passes and keeps the fastest run of each op after the
correction below, so a short stall has to hit every run to show; and every
time in the metrics is corrected for the host's speed, scaled by
``PROBE_REF_S`` over the time the worker's fixed reference work
(``worker.probe``) took around it.  The times therefore read as seconds on
a host where the probe takes ``PROBE_REF_S``; the uncorrected wall times
are in the report.  With ``--trace 1``, one process
runs every input once untraced and once traced and reports the per-layer
metrics from the traced copies.  The full report goes to standard output
first; the last line is ``{"correct", "attempted", "failed", "metrics"}``.

Latency percentiles sort failed ops above every passing op, so a
percentile that lands among failed ops is *not met* and printed as null.
"""

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
WORKER = os.path.join(BENCH, "worker.py")
WORKLOADS = ("zero_m6400", "two_m400", "geometry")
PARTS = 3
# worker.probe at the fast end of its range on a 2-core Intel Xeon host
PROBE_REF_S = 3.0e-3
REPEATS = 2  # runs of each op in a --trace 0 run, in passes spread over the run
DIGEST_OPS = 10  # ops 0-9: a prefix runs of one seed share, so their digests compare
# names each workload must never reach in the traced run
BYPASSED = {
    "zero_m6400": ("elliptic_solver.mountain_pass", "quadrature.radial_grid"),
    "two_m400": ("quadrature.radial_grid",),
    "geometry": ("elliptic_solver.mountain_pass", "elliptic_solver.asm.build"),
}
# One client on two shared cores: BLAS helper threads add no speed to these
# GIL-bound ops, only spin on the second core and make timings noisier.
WORKER_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def run_worker(name, seed, seconds, mode, part=0, parts=1):
    cmd = [sys.executable, WORKER, name, str(seed), str(seconds), mode, repr(time.monotonic()),
           str(part), str(parts), str(REPEATS)]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=seconds + 120, cwd=ROOT,
                          env={**os.environ, **WORKER_ENV})
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"worker for {name} ({mode}) exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def latency(rows):
    """Median and tail of op wall times, failed ops sorted above all passing
    ones.  The tail is the highest percentile with ten samples beyond it."""
    walls = sorted(r[1] for r in rows if r[2]) + [float("inf")] * sum(1 for r in rows if not r[2])
    n = len(walls)
    p50 = statistics.median(walls)
    if n > 10:
        tail, pct, beyond = walls[n - 11], 100.0 * (n - 10) / n, 10
    else:  # too few ops for a tail with ten samples beyond it
        tail, pct, beyond = walls[-1], 100.0, 0
    return {
        "p50": None if p50 == float("inf") else p50,
        "tail": None if tail == float("inf") else tail,
        "tail_percentile": pct,
        "tail_samples_beyond": beyond,
        "samples": n,
    }


def score(rows):
    """Failed ops, latency, goodput and failure share of ``[op, wall_s,
    passed, record]`` rows; goodput is per second of timed op wall time."""
    failed = sum(1 for r in rows if not r[2])
    return {
        "failed": failed,
        "op_s": latency(rows),
        "good_ops_per_s": (len(rows) - failed) / sum(r[1] for r in rows),
        "failed_frac": failed / len(rows),
    }


def digest(rows, limit=None):
    """Hash of the first ``limit`` ops' checks and outputs, in op order.  Ops
    are pure functions of seed and op index, so runs that reach the same ops
    agree on the hash and on the failures among them."""
    h = hashlib.sha256()
    ordered = sorted(rows, key=lambda r: r[0])[:limit]
    for r in ordered:
        h.update(json.dumps([r[0], r[2], r[3]]).encode())
    return {"ops": len(ordered), "failed": sum(1 for r in ordered if not r[2]),
            "sha256": h.hexdigest()}


def environment():
    git = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True, cwd=ROOT)
    env = {
        "git_sha": git.stdout.strip() if git.returncode == 0 else None,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpu": platform.processor() or None,
    }
    try:
        with open("/proc/cpuinfo") as fh:
            env["cpu"] = next(l.split(":", 1)[1].strip() for l in fh if l.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return env


def end_to_end(name, seed, seconds):
    parts = [run_worker(name, seed, seconds / PARTS, "measure", k, PARTS) for k in range(PARTS)]
    walls = [r for p in parts for r in p["rows"]]
    rows = [[i, wall * PROBE_REF_S / probe_s, ok, rec] for i, wall, ok, rec, probe_s in walls]
    sc = score(rows)
    setups = [p["setup_s"] * PROBE_REF_S / p["setup_probe_s"] for p in parts]
    report = {
        "workload": name,
        "seed": seed,
        "trace": 0,
        "ops": len(rows),
        "setup_s": {"median": statistics.median(setups), "samples": setups},
        **sc,
        "peak_rss_mb": max(p["peak_rss_mb"] for p in parts),
        "uncorrected": {
            "setup_s": [p["setup_s"] for p in parts],
            "op_s": latency(walls),
            "good_ops_per_s": (len(rows) - sc["failed"]) / sum(r[1] for r in walls),
            "host_slowdown_p50": statistics.median(r[4] for r in walls) / PROBE_REF_S,
        },
        "digest": digest(rows, DIGEST_OPS),
        "digest_all": digest(rows),
        "environment": {**environment(), **parts[-1]["environment"]},
    }
    metrics = {
        "setup_s": (report["setup_s"]["median"], "s"),
        "op_s.p50": (sc["op_s"]["p50"], "s"),
        "op_s.tail": (sc["op_s"]["tail"], "s"),
        "good_ops_per_s": (sc["good_ops_per_s"], "1/s"),
        "failed_frac": (sc["failed_frac"], "ratio"),
        "peak_rss_mb": (report["peak_rss_mb"], "MB"),
    }
    return report, rows, sc["failed"], True, metrics


def per_layer(name, seed, seconds):
    res = run_worker(name, seed, seconds, "trace")
    rows = res["rows"]
    failed = sum(1 for r in rows if not r[2])
    untraced = statistics.median(r[1] for r in rows)
    traced = statistics.median(r[4] for r in rows)
    bypass = {k: res["calls"].get(k, 0) for k in BYPASSED[name]}
    checks = {
        "op_span_covers_wall": res["coverage_ok"],
        "traced_results_identical": all(r[5] for r in rows),
        "bypass_counts_zero": not any(bypass.values()),
    }
    report = {
        "workload": name,
        "seed": seed,
        "trace": 1,
        "ops": len(rows),
        "tracing_overhead_s": traced - untraced,
        "op_s_p50_untraced": untraced,
        "op_s_p50_traced": traced,
        "bypass_calls": bypass,
        "self_checks": checks,
        "spans_file": res["spans_file"],
        "environment": {**environment(), **res["environment"]},
    }
    metrics = dict(res["layers"])
    metrics["trace.overhead_s"] = (report["tracing_overhead_s"], "s/op")
    return report, rows, failed, all(checks.values()), metrics


def run_one(name, seed, seconds, trace):
    report, rows, failed, checks_ok, metrics = (per_layer if trace else end_to_end)(name, seed, seconds)
    report["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    wanted = contract_metrics(trace)
    result = {
        "correct": failed == 0 and checks_ok,
        "attempted": len(rows),
        "failed": failed,
        "metrics": {k: m for k, m in report["metrics"].items() if k in wanted},
    }
    return report, result


def contract_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not os.path.isfile(os.path.join(ROOT, "src", "funkball", "__init__.py")):
        sys.exit(f"no funkball sources under {os.path.join(ROOT, 'src')}")
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    reports, results = {}, {}
    for name in names:
        reports[name], results[name] = run_one(name, args.seed, args.seconds, args.trace)
        print(json.dumps(reports[name], indent=1))
    for name, report in reports.items():
        print(f"{name}: {results[name]['attempted']} ops, {results[name]['failed']} failed")
        for k, m in report["metrics"].items():
            print(f"  {k:44s} {m['value']!s:>24} {m['unit']}")
    print(json.dumps(results if args.workload == "all" else results[args.workload]))


if __name__ == "__main__":
    main()
