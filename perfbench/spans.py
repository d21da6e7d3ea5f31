"""Span tracing for the benchmark's traced run.

`installed` wraps the layer-boundary functions of `isqwave` listed in
BOUNDARY. Each wrapper replaces the function on its defining module and on
every `isqwave` module that imported it by name, so calls from one layer
into another become nested spans with parent ids. Spans are kept in memory
as tuples and reduced to per-layer metrics by `layer_metrics`. Untraced
runs never call `install`.

Per-sample helpers (commutant_symbol, the cutoffs, the RK4 right-hand
sides, classify_region) are deliberately not wrapped: a span around each
would cost more than the work it measures.
"""

from __future__ import annotations

import importlib
import math
import pkgutil
import time
from collections import defaultdict
from contextlib import contextmanager

import isqwave
from isqwave.kernel import classify_region

from workloads import INVOLUTION_SIZES

# (layer, function); the layer is the defining module of `isqwave`
BOUNDARY = (
    ("quadrature", "integrate_adaptive"),
    ("quadrature", "integrate_endpoint_singular"),
    ("quadrature", "integrate_decaying"),
    ("specfun", "bessel_j"),
    ("specfun", "bessel_j_array"),
    ("specfun", "legendre_q_shifted"),
    ("kernel", "mode_kernel"),
    ("kernel", "cone_limits"),
    ("kernel", "diffractive_integral"),
    ("kernel", "verify_lipschitz_hankel"),
    ("hankel", "hankel_transform"),
    ("hankel", "apply_radial_operator"),
    ("hankel", "verify_involution"),
    ("oracle", "solve_mode"),
    ("oracle", "mollified_kernel"),
    ("oracle", "compare_kernel"),
    ("oracle", "leakage_ratio"),
    ("geodesic", "integrate_flow"),
    ("geodesic", "trace_through_origin"),
    ("energy", "hardy_check"),
    ("energy", "norm_equivalence_check"),
    ("energy", "sphere_min_eigenvalue"),
    ("energy", "hamilton_derivative_symbol"),
    ("energy", "sample_states"),
    ("energy", "sign_audit"),
)
LAYERS = tuple(dict.fromkeys(layer for layer, _ in BOUNDARY))


def _quad_evals(args, kwargs, result):
    return result.evaluations


def _array_size(args, kwargs, result):
    return int(args[1].size) if hasattr(args[1], "size") else len(args[1])


def _kernel_region(args, kwargs, result):
    eps = kwargs.get("eps_cone", args[2] if len(args) > 2 else None)
    return classify_region(args[1], eps).value


def _transform_shape(args, kwargs, result):
    field = args[0]
    out = kwargs.get("out_grid", args[2] if len(args) > 2 else None)
    return (len(field.grid), len(out))


def _cell_steps(args, kwargs, result):
    cfg = args[0]
    return int(round(cfg.r_max / cfg.dr)) * int(math.ceil(cfg.T / cfg.dt))


def _flow_states(args, kwargs, result):
    return len(result.states)


def _symbol_method(args, kwargs, result):
    return kwargs.get("method", args[4] if len(args) > 4 else "analytic")


def _audit_scanned(args, kwargs, result):
    return result.scanned


# What each wrapper records besides its times; computed after the span ends
EXTRA = {
    "integrate_adaptive": _quad_evals,
    "integrate_endpoint_singular": _quad_evals,
    "integrate_decaying": _quad_evals,
    "bessel_j_array": _array_size,
    "mode_kernel": _kernel_region,
    "hankel_transform": _transform_shape,
    "solve_mode": _cell_steps,
    "integrate_flow": _flow_states,
    "hamilton_derivative_symbol": _symbol_method,
    "sign_audit": _audit_scanned,
}


class Tracer:
    """In-memory span store for one traced pass.

    A span is (id, parent id, op index, name, start, end, error class
    name or None, extra). Ids start at 1; parent 0 means the span was
    opened by the benchmark itself. Spans of one op share its op index.
    """

    def __init__(self):
        self.spans = []
        self.op = -1
        self._stack = [0]
        self._next = 1

    def wrap(self, name, fn):
        extra = EXTRA.get(name)
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            sid = self._next
            self._next = sid + 1
            parent = stack[-1]
            stack.append(sid)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                t1 = clock()
                stack.pop()
                info = None
                traj = getattr(exc, "trajectory", None)
                if name == "integrate_flow" and traj is not None:
                    info = len(traj.states)
                spans.append((sid, parent, self.op, name, t0, t1,
                              type(exc).__name__, info))
                raise
            t1 = clock()
            stack.pop()
            spans.append((sid, parent, self.op, name, t0, t1, None,
                          extra(args, kwargs, result) if extra else None))
            return result

        wrapper.__name__ = fn.__name__
        wrapper.__qualname__ = fn.__qualname__
        wrapper.__doc__ = fn.__doc__
        wrapper.__wrapped__ = fn
        return wrapper


def isqwave_modules():
    """Every submodule of isqwave, imported."""
    mods = [isqwave]
    for info in pkgutil.iter_modules(isqwave.__path__):
        mods.append(importlib.import_module(f"isqwave.{info.name}"))
    return mods


def boundary_functions():
    """(layer, name, function) for each BOUNDARY entry; raises if one is gone."""
    out = []
    for layer, name in BOUNDARY:
        mod = importlib.import_module(f"isqwave.{layer}")
        fn = getattr(mod, name)
        if not callable(fn):
            raise TypeError(f"isqwave.{layer}.{name} is not callable")
        out.append((layer, name, fn))
    return out


@contextmanager
def installed(tracer: Tracer):
    """Wrap every boundary function for the duration of the block."""
    mods = isqwave_modules()
    replaced = []
    try:
        for layer, name, fn in boundary_functions():
            wrapper = tracer.wrap(name, fn)
            for mod in mods:
                if mod.__dict__.get(name) is fn:
                    setattr(mod, name, wrapper)
                    replaced.append((mod, name, fn))
        yield tracer
    finally:
        for mod, name, fn in reversed(replaced):
            setattr(mod, name, fn)


# ---------------------------------------------------------------------------
# reduction

LAYER_OF = {name: layer for layer, name in BOUNDARY}


def self_times(spans):
    """Map span id -> self time: duration minus the time of its children.

    Calls are sequential within one thread, so child spans never overlap
    and their union is their sum.
    """
    child = {}
    for sid, parent, _, _, t0, t1, _, _ in spans:
        child[parent] = child.get(parent, 0.0) + (t1 - t0)
    return {s[0]: (s[5] - s[4]) - child.get(s[0], 0.0) for s in spans}


def _ancestry(spans):
    by_id = {s[0]: s for s in spans}

    def ancestors(sid):
        parent = by_id[sid][1]
        while parent:
            yield by_id[parent]
            parent = by_id[parent][1]
    return ancestors


def _mean(total, count, scale=1.0):
    return total / count * scale if count else 0.0


def layer_metrics(spans) -> dict:
    """Per-layer metrics of one traced pass (values are plain floats)."""
    selfs = self_times(spans)
    ancestors = _ancestry(spans)
    layer_self = dict.fromkeys(LAYERS, 0.0)
    c = defaultdict(float)          # counters and summed seconds

    def add(key, value=1.0):
        c[key] += value

    for s in spans:
        sid, parent, _, name, t0, t1, err, extra = s
        dur = t1 - t0
        layer = LAYER_OF[name]
        layer_self[layer] += selfs[sid]
        if layer == "quadrature":
            top = not parent or LAYER_OF[next(ancestors(sid))[3]] != "quadrature"
            if top:
                add("quad.calls")
                if err is not None:
                    add("quad.failed")
                else:
                    add("quad.evals", extra)
                    if any(a[3] == "mode_kernel" for a in ancestors(sid)):
                        add("quad.evals_under_kernel", extra)
        elif name == "bessel_j":
            add("bessel_j.calls")
            add("bessel_j.s", dur)
        elif name == "bessel_j_array":
            add("bessel_j_array.elems", extra)
            add("bessel_j_array.s", dur)
            if any(a[3] == "hankel_transform" for a in ancestors(sid)):
                add("hankel.bessel_elems", extra)
        elif name == "legendre_q_shifted":
            add("legendre.calls")
        elif name == "mode_kernel":
            add("mode_kernel.calls")
            if err is None and extra in ("II", "III"):
                add(f"mode_kernel.calls_{extra}")
                add(f"mode_kernel.s_{extra}", dur)
        elif name in ("cone_limits", "verify_lipschitz_hankel", "compare_kernel",
                      "sphere_min_eigenvalue", "hankel_transform"):
            add(f"{name}.calls")
            add(f"{name}.s", dur)
            if name == "hankel_transform" and extra[0] == extra[1]:
                add(f"transform.calls.n{extra[0]}")
                add(f"transform.s.n{extra[0]}", dur)
        elif name == "solve_mode":
            add("solve_mode.cell_steps", extra)
            add("solve_mode.self_s", selfs[sid])
        elif name == "integrate_flow":
            if err is not None and err != "OriginReached":
                continue
            if err == "OriginReached":
                add("flow.strikes")
            if any(LAYER_OF[a[3]] == "energy" for a in ancestors(sid)):
                add("flow.short_calls")
                add("flow.short_s", dur)
            else:
                add("flow.long_states", extra)
                add("flow.long_s", dur)
        elif name == "hamilton_derivative_symbol":
            add(f"symbol.calls_{extra}")
            add(f"symbol.s_{extra}", dur)
        elif name == "sign_audit" and err is None:
            add("audit.scanned", extra)
            add("audit.s", dur)

    kernel_values = c["mode_kernel.calls_II"] + c["mode_kernel.calls_III"]
    out = {
        "quadrature.evals": c["quad.evals"],
        "quadrature.evals_per_kernel_value":
            _mean(c["quad.evals_under_kernel"], kernel_values),
        "quadrature.calls": c["quad.calls"],
        "quadrature.failed": c["quad.failed"],
        "specfun.bessel_j.us_per_call":
            _mean(c["bessel_j.s"], c["bessel_j.calls"], 1e6),
        "specfun.bessel_j_array.ns_per_elem":
            _mean(c["bessel_j_array.s"], c["bessel_j_array.elems"], 1e9),
        "specfun.legendre_q_shifted.calls": c["legendre.calls"],
        "kernel.mode_kernel.us_II":
            _mean(c["mode_kernel.s_II"], c["mode_kernel.calls_II"], 1e6),
        "kernel.mode_kernel.us_III":
            _mean(c["mode_kernel.s_III"], c["mode_kernel.calls_III"], 1e6),
        "kernel.mode_kernel.calls": c["mode_kernel.calls"],
        "kernel.cone_limits.ms_per_call":
            _mean(c["cone_limits.s"], c["cone_limits.calls"], 1e3),
        "kernel.verify_lipschitz_hankel.ms_per_call":
            _mean(c["verify_lipschitz_hankel.s"],
                  c["verify_lipschitz_hankel.calls"], 1e3),
        "hankel.bessel_elems_per_transform":
            _mean(c["hankel.bessel_elems"], c["hankel_transform.calls"]),
        "oracle.cell_steps_per_s":
            _mean(c["solve_mode.cell_steps"], c["solve_mode.self_s"]),
        "oracle.compare_kernel.s":
            _mean(c["compare_kernel.s"], c["compare_kernel.calls"]),
        "geodesic.long_flow_us_per_state":
            _mean(c["flow.long_s"], c["flow.long_states"], 1e6),
        "geodesic.short_flow_us_per_call":
            _mean(c["flow.short_s"], c["flow.short_calls"], 1e6),
        "geodesic.origin_strikes": c["flow.strikes"],
        "energy.audit_samples_per_s":
            _mean(c["audit.scanned"], c["audit.s"]),
        "energy.sphere_min_eigenvalue.calls": c["sphere_min_eigenvalue.calls"],
        "energy.sphere_min_eigenvalue.ms_per_call":
            _mean(c["sphere_min_eigenvalue.s"],
                  c["sphere_min_eigenvalue.calls"], 1e3),
        "energy.hamilton_derivative_symbol.us_analytic":
            _mean(c["symbol.s_analytic"], c["symbol.calls_analytic"], 1e6),
        "energy.hamilton_derivative_symbol.us_fd":
            _mean(c["symbol.s_fd"], c["symbol.calls_fd"], 1e6),
    }
    for n in INVOLUTION_SIZES:
        out[f"hankel.transform_ms.n{n}"] = _mean(
            c[f"transform.s.n{n}"], c[f"transform.calls.n{n}"], 1e3)
    for layer in LAYERS:
        out[f"{layer}.self_s"] = layer_self[layer]
    return out


# unit of each per-layer metric, as BENCHMARK.json lists them
UNITS = {
    "quadrature.evals": "count",
    "quadrature.evals_per_kernel_value": "evals/value",
    "quadrature.calls": "count",
    "quadrature.failed": "count",
    "specfun.bessel_j.us_per_call": "us",
    "specfun.bessel_j_array.ns_per_elem": "ns",
    "specfun.legendre_q_shifted.calls": "count",
    "kernel.mode_kernel.us_II": "us",
    "kernel.mode_kernel.us_III": "us",
    "kernel.mode_kernel.calls": "count",
    "kernel.cone_limits.ms_per_call": "ms",
    "kernel.verify_lipschitz_hankel.ms_per_call": "ms",
    "hankel.bessel_elems_per_transform": "count",
    "oracle.cell_steps_per_s": "1/s",
    "oracle.compare_kernel.s": "s",
    "geodesic.long_flow_us_per_state": "us",
    "geodesic.short_flow_us_per_call": "us",
    "geodesic.origin_strikes": "count",
    "energy.audit_samples_per_s": "1/s",
    "energy.sphere_min_eigenvalue.calls": "count",
    "energy.sphere_min_eigenvalue.ms_per_call": "ms",
    "energy.hamilton_derivative_symbol.us_analytic": "us",
    "energy.hamilton_derivative_symbol.us_fd": "us",
    **{f"hankel.transform_ms.n{n}": "ms" for n in INVOLUTION_SIZES},
    **{f"{layer}.self_s": "s" for layer in LAYERS},
    "trace.overhead_frac": "ratio",
}


def write_spans(path, spans_by_pass):
    """Write spans as tab-separated lines: pass, id, parent, op, name,
    start, end, error, extra. Times are seconds from the pass's first span."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("pass\tid\tparent\top\tname\tstart_s\tend_s\terror\textra\n")
        for k, spans in enumerate(spans_by_pass):
            base = min((s[4] for s in spans), default=0.0)
            for sid, parent, op, name, t0, t1, err, extra in spans:
                fh.write(f"{k}\t{sid}\t{parent}\t{op}\t{name}\t{t0 - base:.9f}\t"
                         f"{t1 - base:.9f}\t{err or ''}\t"
                         f"{'' if extra is None else extra}\n")
    return path
