"""Span tracing of the library's layers from outside the library.

`install` rebinds, in every loaded `toricapprox.*` module, each global
that refers to a traced function, and patches the `Fan.contains` /
`Fan.cone_containing` and `SupportFunction.__call__` methods.  Nothing
inside `src/` is edited.  A wrapped `lru_cache` function keeps its cache:
the wrapper calls the cached object, and exposes its `cache_info` and
`cache_clear`.

A span is (name, start_ns, end_ns, parent_index, ok).  Spans are recorded
only inside an op span opened by the worker, so the benchmark's own
correctness checks are not traced.  Span names are
`<layer>.<boundary>:<function>`; metrics aggregate by boundary and layer.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time

LAYERS = (
    "linalg", "lattice", "fan", "divisor", "mmp", "fwps", "approx",
    "casestudy", "report", "cli",
)

# Named boundaries; every other public function of a layer module is traced
# as `<layer>.other`.
BOUNDARIES = {
    "linalg": {
        "det": "elim", "rank": "elim", "solve_square": "elim",
        "solve_general": "elim", "nullspace": "elim",
        "nonneg_combination": "lp", "cone_extreme_rays": "extreme_rays",
    },
    "lattice": {
        "smith_normal_form": "snf", "quotient_lattice": "quotient",
        "_quotient_by_span": "quotient",
    },
    "fan": {
        "build_fan": "build", "Fan.cone_containing": "locate",
        "Fan.contains": "locate", "is_terminal": "terminal",
        "recognize_fwps": "recognize", "star_fan": "star",
    },
    "divisor": {
        "support_function": "support", "SupportFunction.__call__": "support",
        "intersect": "intersect", "is_nef": "nef",
    },
    "mmp": {
        "mori_extremal_rays": "extremal_rays", "step_a": "step",
        "flip": "flip", "contract": "contract", "run_mmp_chain": "chain",
    },
    "fwps": {"fwps_curve": "curve", "wps_curve_all_leq1": "wps_curve"},
    "approx": {"theorem16_driver": "driver"},
}

# Constant-time vector helpers called from inner loops.  Wrapping them would
# multiply the tracing overhead; their time counts in the caller's span.
UNTRACED = {
    "linalg": {
        "vec_add", "vec_sub", "vec_scale", "vec_dot", "mat_vec", "mat_mul",
        "mat_transpose", "identity", "clear_denominators",
    },
    "lattice": {"primitive_part", "is_primitive"},
}

OP = "op"


class Tracer:
    def __init__(self):
        self.spans = []
        self._stack = []

    def open_op(self) -> None:
        self._stack.append(len(self.spans))
        self.spans.append([OP, time.perf_counter_ns(), 0, -1, True])

    def close_op(self, ok: bool) -> None:
        span = self.spans[self._stack.pop()]
        span[2] = time.perf_counter_ns()
        span[4] = ok

    def wrap(self, name: str, fn):
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            if not stack:
                return fn(*args, **kwargs)
            index = len(spans)
            span = [name, 0, 0, stack[-1], False]
            spans.append(span)
            stack.append(index)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
                span[4] = True
                return result
            finally:
                span[2] = clock()
                stack.pop()

        functools.update_wrapper(traced, fn)
        for attr in ("cache_info", "cache_clear", "cache_parameters"):
            if hasattr(fn, attr):
                setattr(traced, attr, getattr(fn, attr))
        return traced


def layer_modules() -> dict:
    """Import every layer module; returns layer name -> module."""
    return {
        layer: importlib.import_module(f"toricapprox.{layer}")
        for layer in LAYERS
    }


def _targets(layer: str, module) -> dict:
    """Span name -> (owner, attribute) of every traced callable of a layer."""
    named = BOUNDARIES.get(layer, {})
    skip = UNTRACED.get(layer, set())
    out = {}
    for attr, obj in vars(module).items():
        if attr.startswith("_") and attr not in named:
            continue
        if attr in skip or getattr(obj, "__module__", None) != module.__name__:
            continue
        if inspect.isfunction(obj) or hasattr(obj, "cache_info"):
            out[f"{layer}.{named.get(attr, 'other')}:{attr}"] = (module, attr)
    for dotted, boundary in named.items():
        if "." in dotted:
            cls, meth = dotted.split(".")
            out[f"{layer}.{boundary}:{dotted}"] = (getattr(module, cls), meth)
    return out


def install(tracer: Tracer) -> None:
    """Rebind every traced function, wherever a toricapprox module holds it."""
    modules = layer_modules()
    replaced = {}
    for layer, module in modules.items():
        for name, (owner, attr) in _targets(layer, module).items():
            original = vars(owner)[attr]
            wrapper = tracer.wrap(name, original)
            setattr(owner, attr, wrapper)
            if inspect.ismodule(owner):
                replaced[id(original)] = (original, wrapper)
    for modname, module in list(sys.modules.items()):
        if modname != "toricapprox" and not modname.startswith("toricapprox."):
            continue
        for attr, obj in list(vars(module).items()):
            hit = replaced.get(id(obj))
            if hit is not None and hit[0] is obj:
                setattr(module, attr, hit[1])


def cached_functions() -> dict:
    """Layer -> list of the module-global lru_cache objects defined there.

    Read through the public `cache_info()`; a layer without any is absent.
    """
    out = {}
    for layer, module in layer_modules().items():
        for obj in vars(module).values():
            info = getattr(obj, "cache_info", None)
            owner = getattr(obj, "__module__", None)
            if info is not None and owner == module.__name__:
                out.setdefault(layer, []).append(obj)
    return out
