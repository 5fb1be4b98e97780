"""Spans and counters around the public functions of each sphtri module.

The package's modules import each other's functions by name
(``from .quadrature import integrate``), so a function is wrapped by
rebinding it in every ``sphtri.*`` module that holds it. Wrappers only
time the call and count work taken from arguments and return values; they
never change a result.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict

import numpy as np

import sphtri
from sphtri.errors import ToleranceNotMet
from sphtri.montecarlo import EmpiricalCdf


def _size_of_first_arg(args, kwargs, result):
    return int(np.size(args[0] if args else next(iter(kwargs.values()))))


# module -> function -> {quantity: counter(args, kwargs, result)}.
# Every wrapped function also gets `calls` and `self_s`.
TARGETS = {
    "sphere": {
        "sample_uniform_points": {"points": lambda a, k, r: int(r.shape[0])},
        "triangle_elements": {"triangles": lambda a, k, r: int(np.size(r[0]))},
        "dual_vertices": {},
    },
    "montecarlo": {
        "sample_batch": {"triangles": lambda a, k, r: int(r.n)},
        "ks_distance": {},
        "region_coverage": {},
    },
    "quadrature": {
        "ellip_K": {"elements": _size_of_first_arg},
        "ellip_E": {"elements": _size_of_first_arg},
        "integrate": {"evals": lambda a, k, r: int(r.evaluations), "budget_hits": None},
    },
    "distributions": {
        "perimeter_density": {},
        "perimeter_cdf": {},
        "perimeter_cdf_grid": {},
        "area_cdf": {},
        "conditional_cdf": {},
        "density_via_double_integral": {},
    },
    "coords": {
        "angle_jacobian": {},
        "side_jacobian": {},
        "jacobian_fd_check": {},
    },
    "identities": {
        "identity_residuals": {},
        "median_decompose": {},
        "bisector_decompose": {},
    },
    "cli": {"run": {}},
}

_EMPIRICAL_CDF = "montecarlo.EmpiricalCdf"


def _conditional_span(args, kwargs):
    kind = args[0] if args else kwargs["kind"]
    return f"distributions.conditional_cdf.{kind.value}"


def metric_names() -> list[str]:
    """Every per-layer metric a traced run can report."""
    names = []
    for module, funcs in TARGETS.items():
        for func, counters in funcs.items():
            spans = [f"{module}.{func}"]
            if (module, func) == ("distributions", "conditional_cdf"):
                spans = [f"{module}.{func}.{k.value}" for k in sphtri.ConditionalKind]
            for span in spans:
                names += [f"{span}.calls", f"{span}.self_s"]
                names += [f"{span}.{q}" for q in counters]
    names += [f"{_EMPIRICAL_CDF}.calls", f"{_EMPIRICAL_CDF}.self_s"]
    return names


class Tracer:
    """Records spans (name, start, end, parent) and counts while installed."""

    def __init__(self):
        # [name, start, end, parent index or -1, work count or None]
        self.spans: list[list] = []
        self.counts: dict[str, int] = defaultdict(int)
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def _wrap(self, fn, span_name, counters):
        spans, stack, counts = self.spans, self._stack, self.counts
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            name = span_name(args, kwargs) if callable(span_name) else span_name
            idx = len(spans)
            spans.append([name, 0.0, 0.0, stack[-1] if stack else -1, None])
            stack.append(idx)
            counts[f"{name}.calls"] += 1
            spans[idx][1] = clock()
            try:
                result = fn(*args, **kwargs)
            except ToleranceNotMet:
                if "budget_hits" in counters:
                    counts[f"{name}.budget_hits"] += 1
                raise
            finally:
                spans[idx][2] = clock()
                stack.pop()
            for quantity, counter in counters.items():
                if counter is not None:
                    work = counter(args, kwargs, result)
                    counts[f"{name}.{quantity}"] += work
                    spans[idx][4] = work
            return result

        wrapper.__name__ = getattr(fn, "__name__", "wrapper")
        wrapper.__doc__ = getattr(fn, "__doc__", None)
        if hasattr(fn, "cache_clear"):
            wrapper.cache_clear = fn.cache_clear
        return wrapper

    def install(self) -> None:
        if self._undo:
            raise RuntimeError("tracer already installed")
        self._stack.clear()  # an operation cut off by its deadline may leave spans open
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "sphtri" or n.startswith("sphtri."))]
        for module, funcs in TARGETS.items():
            home = sys.modules[f"sphtri.{module}"]
            for func, counters in funcs.items():
                original = getattr(home, func)
                span = (_conditional_span if func == "conditional_cdf"
                        else f"{module}.{func}")
                wrapper = self._wrap(original, span, counters)
                for mod in modules:
                    if getattr(mod, func, None) is original:
                        self._undo.append((mod, func, original))
                        setattr(mod, func, wrapper)
        init = EmpiricalCdf.__init__
        self._undo.append((EmpiricalCdf, "__init__", init))
        EmpiricalCdf.__init__ = self._wrap(init, _EMPIRICAL_CDF, {})

    def uninstall(self) -> None:
        while self._undo:
            owner, name, original = self._undo.pop()
            setattr(owner, name, original)

    def per_name(self) -> dict[str, dict[str, float]]:
        """Total and self seconds per span name (self = span minus its children)."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, dict[str, float]] = defaultdict(lambda: {"total_s": 0.0, "self_s": 0.0})
        for (name, start, end, _, _), covered in zip(self.spans, child):
            out[name]["total_s"] += end - start
            out[name]["self_s"] += end - start - covered
        return dict(out)

    def metrics(self, passes: int) -> dict[str, float]:
        """Every metric of metric_names(), per traced pass."""
        values = {name: 0 for name in metric_names()}
        for name, count in self.counts.items():
            values[name] = count
        for name, t in self.per_name().items():
            values[f"{name}.self_s"] = t["self_s"]
        out = {}
        for name, v in values.items():
            v = v / passes
            out[name] = int(v) if not name.endswith("_s") and float(v).is_integer() else v
        return out
