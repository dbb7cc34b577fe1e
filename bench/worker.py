"""One workload in a fresh interpreter: set up, then ops in a closed loop.

    python3 bench/worker.py WORKLOAD SEED SECONDS MODE T0 PART PARTS REPEATS

MODE is ``measure`` (untraced ops, each run REPEATS times) or ``trace``
(each input run untraced and traced, alternating which goes first).  T0 is
the parent's ``time.monotonic()`` just before it started this process, so
``setup_s`` includes interpreter start-up.  In ``measure`` mode the process
runs ops PART, PART + PARTS, PART + 2 PARTS, ... of the workload's op
stream, so PARTS processes in turn cover its start.  Prints one JSON
object; rows are ``[op, wall_s, passed, record, probe_s]``, where
``probe_s`` is the host's ``probe`` time around the op (see ``measure``).
In trace mode rows are
``[op, wall_s, passed, record, traced_wall_s, same_result]``.
"""

import json
import math
import os
import resource
import statistics
import sys
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(BENCH), "src")
PROBE_SHARE = 0.03  # time spent probing after an op, as a share of its wall time
PROBE_WINDOW = 0.25  # seconds around an op whose probe runs correct its time


def import_library():
    """Import funkball from the checkout's ``src`` and nowhere else."""
    sys.path.insert(0, SRC)
    import funkball

    where = os.path.dirname(os.path.abspath(funkball.__file__))
    if where != os.path.join(SRC, "funkball"):
        raise ImportError(f"funkball imported from {where}, not from {SRC}")
    return funkball


def environment():
    """Library versions and the BLAS build and thread count this process uses."""
    import ctypes
    import glob

    import numpy
    import scipy

    blas = numpy.__config__.CONFIG["Build Dependencies"]["blas"]
    threads = None
    libs = os.path.join(os.path.dirname(numpy.__file__), os.pardir, "numpy.libs", "*openblas*")
    for lib in glob.glob(libs):
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(ctypes.CDLL(lib), sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                threads = fn()
                break
    return {
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": threads,
    }


def probe():
    """Wall time of fixed reference work that calls no funkball code: a
    pure-Python loop, then NumPy multiply-adds on 51,200 doubles (the size of
    zero_m6400's quadrature grid), about half the time each.

    The benchmark's host is a few cores of a shared machine whose speed
    changes by up to 1.8x for seconds to minutes at a time, and interpreted
    Python slows down more than array work, hence both parts.  Op times
    divided by the probe time taken around them follow the program's own
    speed far more closely than wall times do: closely for the interpreted
    geometry ops, more loosely for zero_m6400's array work."""
    import numpy as np

    x, w, z = np.random.default_rng(0).random((3, 51_200))
    t0 = time.perf_counter()
    s, d = 0.0, {}
    for i in range(10_000):
        s += math.sin(i) * (i % 7)
        d[i & 255] = s
    for _ in range(12):
        y = x * w + z
        s += (y * y - w).sum()
    return time.perf_counter() - t0


def probe_runs(seconds):
    """``(time, probe())`` pairs of runs repeated for ``seconds`` (at least one)."""
    runs = []
    end = time.perf_counter() + seconds
    while not runs or time.perf_counter() < end:
        runs.append((time.perf_counter(), probe()))
    return runs


def measure(wl, seconds, part=0, parts=1, repeats=1):
    """Run ops ``part, part + parts, ...`` on ``wl`` for ``seconds / repeats``
    (at least one op), then the same ops in the same order ``repeats - 1``
    more times; returns the rows described above.

    After every run the probe runs for ``PROBE_SHARE`` of the run's wall
    time, and a run's probe time is the median of the probe runs within
    ``PROBE_WINDOW`` seconds of it.  An op's row keeps its run with the
    lowest wall time over probe time, so a stall of the host that the probe
    missed shows only if it hit every run; the op passes only if every run
    passed with the same record."""
    rows, runs = [], []
    probes = probe_runs(0.05)

    def run(k, i):
        t0 = time.perf_counter()
        passed, record = wl.op(wl.draw(i))
        t1 = time.perf_counter()
        probes.extend(probe_runs(PROBE_SHARE * (t1 - t0)))
        runs.append((k, t0, t1))
        return passed, record

    start = time.perf_counter()
    i = part
    while not rows or time.perf_counter() - start < seconds / repeats:
        rows.append([i, None, *run(len(rows), i), None])
        i += parts
    for _ in range(repeats - 1):
        for k, row in enumerate(rows):
            passed, record = run(k, row[0])
            row[2] = row[2] and passed and record == row[3]
    for k, t0, t1 in runs:
        probe_s = statistics.median(p for t, p in probes if t0 - PROBE_WINDOW <= t <= t1 + PROBE_WINDOW)
        row = rows[k]
        if row[1] is None or (t1 - t0) / probe_s < row[1] / row[4]:
            row[1], row[4] = t1 - t0, probe_s
    return rows


def measure_traced(wl, seconds, tracer):
    """Run ops 0, 1, 2, ... on ``wl`` until ``seconds`` have passed (at least
    one op), each once untraced and once traced; returns the rows described
    above."""
    rows = []
    start = time.perf_counter()
    while not rows or time.perf_counter() - start < seconds:
        i = len(rows)
        x = wl.draw(i)
        walls, results = {}, {}
        for traced in ((False, True) if i % 2 == 0 else (True, False)):
            if traced:
                tracer.install()
            t0 = time.perf_counter()
            results[traced] = tracer.timed_op(i, wl.op, x) if traced else wl.op(x)
            walls[traced] = time.perf_counter() - t0
            if traced:
                tracer.remove()
        passed, record = results[False]
        rows.append((i, walls[False], passed, record, walls[True], results[True] == results[False]))
    return rows


def main(argv):
    name, seed, seconds, mode, t0, part, parts, repeats = argv[1:9]
    seed, seconds, t0 = int(seed), float(seconds), float(t0)
    part, parts, repeats = int(part), int(parts), int(repeats)
    import_library()
    sys.path.insert(0, BENCH)
    import workloads

    wl = workloads.WORKLOADS[name](seed)
    wl.op(wl.warmup)
    setup_s = time.monotonic() - t0
    probes = probe_runs(PROBE_SHARE * setup_s)
    out = {"setup_s": setup_s, "setup_probe_s": statistics.median(p for _, p in probes)}
    tracer = None
    if mode == "measure":
        out["rows"] = measure(wl, seconds, part, parts, repeats)
    else:
        import tracing

        tracer = tracing.Tracer()
        out["rows"] = measure_traced(wl, seconds, tracer)
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    out["environment"] = environment()
    if tracer is not None:
        metrics, calls = tracing.layer_report(tracer.spans, len(out["rows"]), wl.quad_points)
        out["layers"] = metrics
        out["calls"] = calls
        out["coverage_ok"] = tracing.coverage_ok(tracer.spans, {r[0]: r[4] for r in out["rows"]})
        os.makedirs(os.path.join(BENCH, "out"), exist_ok=True)
        path = os.path.join(BENCH, "out", f"spans_{name}_{seed}.jsonl.gz")
        tracer.write(path)
        out["spans_file"] = os.path.relpath(path, os.path.dirname(BENCH))
    print(json.dumps(out))


if __name__ == "__main__":
    main(sys.argv)
