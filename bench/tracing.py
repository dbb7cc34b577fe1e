"""Spans around the library's layer boundaries, installed from outside.

The library has no tracing of its own, so the traced run replaces module
and class attributes with wrappers for the duration of an op.  A name that
another funkball module imported (``radial_integral`` in ``sobolev``, the
package namespace, ...) is replaced wherever the same object is bound.
Spans stay in memory as ``[name, start, end, parent, op, info]`` lists and
are written out when the run ends.
"""

import functools
import gzip
import json
import sys
import time

from funkball import elliptic_solver as es
from funkball import finsler_core as fc
from funkball import quadrature as qd
from funkball import sobolev as sb

ASM_KERNELS = ("energy", "g_int", "grad", "hessian_banded", "riesz")
# kernels that evaluate at every quadrature point (riesz is a banded solve)
QUAD_KERNELS = ("energy", "g_int", "grad", "hessian_banded")

CLOSED_FORMS = (
    "randers_F", "polar_F_star", "legendre_gradient", "reversibility", "uniformity_lF",
    "volume_density", "beta_norm", "funk_distance", "klein_metric", "klein_cometric",
    "klein_metric_matrix", "klein_cometric_matrix",
)
ORACLES = ("polar_F_star_oracle", "legendre_gradient_fd", "reversibility_oracle")


def _minimize_info(args, out):
    cfg = args[4]
    return {"iters": out[3], "ok": out[2] < cfg.tol}


def _newton_info(args, out):
    cfg = args[5]
    return {"iters": out[2], "ok": out[1] < cfg.tol}


def _returned(args, out):
    return {"ok": True}


def _targets():
    """(owner, attribute, span name, info reader, layer group) for every
    wrapped name.  A group does not nest inside itself: the closed forms an
    oracle calls are part of the oracle's own time."""
    out = [(es._Assembly, "__init__", "elliptic_solver.asm.build", None, None)]
    out += [(es._Assembly, k, f"elliptic_solver.asm.{k}", None, None) for k in ASM_KERNELS]
    out += [
        (es, "_tilde_search", "elliptic_solver.tilde_search", None, None),
        (es, "_minimize_vec", "elliptic_solver.minimize", _minimize_info, None),
        (es, "_newton_refine", "elliptic_solver.newton", _newton_info, None),
        (es, "mountain_pass", "elliptic_solver.mountain_pass", _returned, None),
        (es, "_ray_barrier", "elliptic_solver.ray_barrier", None, None),
        (qd, "radial_grid", "quadrature.radial_grid", None, None),
        (qd, "radial_integral", "quadrature.radial_integral", None, None),
    ]
    out += [(fc, k, "finsler_core.closed_form", None, "finsler_core.") for k in CLOSED_FORMS]
    out += [(fc, k, "finsler_core.oracle", None, "finsler_core.") for k in ORACLES]
    out += [
        (sb, k, f"sobolev.{k}", None, None)
        for k in ("w12a_norm", "federer_fleming_check", "divergence_trend")
    ]
    return out


class Tracer:
    """In-memory span recorder; ``install`` and ``remove`` swap the
    wrappers in and out so untraced ops run the library unmodified."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.op = -1
        self._swaps = []
        modules = [m for k, m in sys.modules.items() if k.split(".")[0] == "funkball"]
        for owner, attr, name, info, group in _targets():
            orig = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
            wrapper = self._wrap(orig, name, info, group)
            if isinstance(owner, type):
                self._swaps.append((owner, attr, orig, wrapper))
                continue
            for mod in modules:
                for key, val in list(vars(mod).items()):
                    if val is orig:
                        self._swaps.append((mod, key, orig, wrapper))

    def install(self):
        for owner, attr, _, wrapper in self._swaps:
            setattr(owner, attr, wrapper)

    def remove(self):
        for owner, attr, orig, _ in self._swaps:
            setattr(owner, attr, orig)

    def _wrap(self, fn, name, info, group):
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if group and stack and spans[stack[-1]][0].startswith(group):
                return fn(*args, **kwargs)
            span = [name, clock(), 0.0, stack[-1] if stack else -1, self.op, None]
            stack.append(len(spans))
            spans.append(span)
            try:
                out = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if info is not None:
                span[5] = info(args, out)
            return out

        return wrapper

    def timed_op(self, op_id, fn, *args):
        """Run one op under a top-level ``op`` span."""
        self.op = op_id
        return self._wrap(fn, "op", None, None)(*args)

    def write(self, path):
        with gzip.open(path, "wt") as fh:
            for name, start, end, parent, op, info in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "op": op, "info": info}) + "\n")


def layer_report(spans, ops, quad_points):
    """Per-op layer metrics from the spans of ``ops`` traced ops, and the
    call count of every span name.  ``quad_points`` is M * quad_order of the
    workload's mesh; ratios of layers that never ran read 0."""
    child = [0.0] * len(spans)
    for name, start, end, parent, _, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    calls, self_s, total_s, info = {}, {}, {}, {}
    mp_energy = 0
    for i, (name, start, end, parent, _, inf) in enumerate(spans):
        calls[name] = calls.get(name, 0) + 1
        self_s[name] = self_s.get(name, 0.0) + (end - start) - child[i]
        total_s[name] = total_s.get(name, 0.0) + (end - start)
        if inf is not None:
            info.setdefault(name, []).append(inf)
        if name == "elliptic_solver.asm.energy" and _under(spans, parent, "elliptic_solver.mountain_pass"):
            mp_energy += 1

    def c(name):
        return calls.get(name, 0)

    def s(name):
        return self_s.get(name, 0.0)

    def frac_ok(name):
        rows = info.get(name, [])
        return sum(1 for r in rows if r["ok"]) / c(name) if c(name) else 0.0

    def iters(name):
        return sum(r["iters"] for r in info.get(name, []))

    per_op = 1.0 / max(ops, 1)
    m = {}

    def calls_and_self(name, calls_key="calls"):
        m[f"{name}.{calls_key}"] = (c(name) * per_op, "count/op")
        m[f"{name}.self_s"] = (s(name) * per_op, "s/op")

    for k in ASM_KERNELS:
        calls_and_self(f"elliptic_solver.asm.{k}")
    m["elliptic_solver.asm.builds"] = (c("elliptic_solver.asm.build") * per_op, "count/op")
    m["elliptic_solver.asm.build_s"] = (s("elliptic_solver.asm.build") * per_op, "s/op")
    kernel_s = sum(s(f"elliptic_solver.asm.{k}") for k in QUAD_KERNELS)
    kernel_calls = sum(c(f"elliptic_solver.asm.{k}") for k in QUAD_KERNELS)
    # computed, not counted: every call of these kernels visits every point
    m["elliptic_solver.asm.qpoints_per_s"] = (
        kernel_calls * quad_points / kernel_s if kernel_s > 0.0 else 0.0, "1/s")
    m["elliptic_solver.tilde_search.self_s"] = (s("elliptic_solver.tilde_search") * per_op, "s/op")
    calls_and_self("elliptic_solver.minimize", "starts")
    m["elliptic_solver.minimize.iters"] = (iters("elliptic_solver.minimize") * per_op, "count/op")
    m["elliptic_solver.minimize.converged_frac"] = (frac_ok("elliptic_solver.minimize"), "ratio")
    calls_and_self("elliptic_solver.newton")
    m["elliptic_solver.newton.iters"] = (iters("elliptic_solver.newton") * per_op, "count/op")
    m["elliptic_solver.newton.success_frac"] = (frac_ok("elliptic_solver.newton"), "ratio")
    calls_and_self("elliptic_solver.mountain_pass")
    m["elliptic_solver.mountain_pass.j_evals"] = (mp_energy * per_op, "count/op")
    m["elliptic_solver.mountain_pass.success_frac"] = (frac_ok("elliptic_solver.mountain_pass"), "ratio")
    m["elliptic_solver.ray_barrier.self_s"] = (s("elliptic_solver.ray_barrier") * per_op, "s/op")
    # stage time including the kernels it calls, which self time leaves out
    for stage in ("tilde_search", "minimize", "newton", "mountain_pass", "ray_barrier"):
        m[f"elliptic_solver.{stage}.total_s"] = (
            total_s.get(f"elliptic_solver.{stage}", 0.0) * per_op, "s/op")
    for name in ("quadrature.radial_grid", "quadrature.radial_integral", "finsler_core.closed_form",
                 "finsler_core.oracle", "sobolev.w12a_norm", "sobolev.federer_fleming_check",
                 "sobolev.divergence_trend"):
        calls_and_self(name)
    return m, calls


def _under(spans, idx, name):
    while idx >= 0:
        if spans[idx][0] == name:
            return True
        idx = spans[idx][3]
    return False


def coverage_ok(spans, walls):
    """Each op's top-level span lies within its measured wall time, and every
    span of the op lies within the op span."""
    ok = True
    bounds = {}
    for name, start, end, _, op, _ in spans:
        if name == "op":
            bounds[op] = (start, end)
            # the wall clock brackets the span; allow only clock-call jitter
            ok &= (end - start) <= walls[op] and walls[op] - (end - start) < 1e-3
    for name, start, end, _, op, _ in spans:
        lo, hi = bounds[op]
        ok &= lo <= start <= end <= hi
    return ok
