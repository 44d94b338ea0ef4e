"""Spans around calls into twisteta's layers, recorded from outside the package.

:func:`install` replaces each traced public function by a recording wrapper
in every ``twisteta`` module that binds it by name (``cli`` imports
``eta_for_model``, ``rho`` and the rest with ``from ... import``), so calls
made through any binding are seen.  A span is ``[name, start, end, parent,
attrs]`` with ``parent`` the index of the enclosing span (-1 at the top);
spans stay in memory and the caller writes them out when the run ends.

Calls are assumed sequential (the CLI runs sweeps in one thread unless a
config sets ``workers``, which the benchmark never does), so the parent is
the top of a single stack.
"""

from __future__ import annotations

import functools
import sys
import time

# (module, function, span name, attrs(args, kwargs, result) or None)
_TRACED = (
    ("twisteta.cli", "main", "cli", lambda args, kwargs, result: {"command": args[0][0]}),
    ("twisteta.eta", "eta_for_model", "eta.eta_for_model", None),
    ("twisteta.eta", "rho", "eta.rho", None),
    ("twisteta.eta", "eta_hurwitz", "eta.hurwitz", None),
    ("twisteta.eta", "eta_heat", "eta.heat",
     lambda args, kwargs, result: {"items": len(args[0])}),
    ("twisteta.models", "enumerate_spectrum", "models.enumerate",
     lambda args, kwargs, result: {"items": len(result)}),
    ("twisteta.models", "progression_spectrum", "models.progression", None),
    ("twisteta.models", "build_torus_operator", "models.torus_assembly",
     lambda args, kwargs, result: {"nnz": result.matrix.nnz}),
    ("twisteta.models", "torus_twisted_derivative", "models.torus_assembly",
     lambda args, kwargs, result: {"nnz": result.nnz}),
    ("twisteta.models", "torus_multiplication_operator", "models.torus_assembly",
     lambda args, kwargs, result: {"nnz": result.nnz}),
    ("twisteta.specflow", "sf_for_flux", "specflow.sf", None),
    ("twisteta.weitzenbock", "lw_check_deg3", "weitzenbock.lw",
     lambda args, kwargs, result: {"compared": result.modes_compared,
                                   "assembled": (2 * args[2] + 1) ** 3}),
    ("twisteta.weitzenbock", "psc_stability_sweep", "weitzenbock.psc", None),
)

# (metric, unit); every one is reported on every workload, 0 where unused
PER_LAYER = (
    ("cli.self_s", "s"),
    ("models.enumerate.calls", "count"),
    ("models.enumerate.s", "s"),
    ("models.enumerate.items", "count"),
    ("models.progression.calls", "count"),
    ("models.progression.s", "s"),
    ("models.torus_assembly.calls", "count"),
    ("models.torus_assembly.s", "s"),
    ("models.torus_assembly.nnz", "count"),
    ("eta.hurwitz.calls", "count"),
    ("eta.hurwitz.s", "s"),
    ("eta.heat.calls", "count"),
    ("eta.heat.s", "s"),
    ("eta.heat.items", "count"),
    ("eta.heat.us_per_item", "us"),
    ("specflow.sf.calls", "count"),
    ("specflow.sf.s", "s"),
    ("specflow.eta_evals_per_point", "count"),
    ("weitzenbock.lw.self_s", "s"),
    ("weitzenbock.lw.interior_ratio", "ratio"),
    ("weitzenbock.psc.self_s", "s"),
)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []

    def wrap(self, name: str, fn, attrs=None):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, None]
            spans.append(span)
            stack.append(index)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if attrs is not None:
                span[4] = attrs(args, kwargs, result)
            return result

        return traced

    def take(self) -> list[list]:
        """The spans recorded since the last call, removed from the tracer."""
        taken = self.spans[:]
        self.spans.clear()
        return taken


def install(tracer: Tracer):
    """Wrap every traced function at every twisteta binding of it."""
    modules = [m for name, m in list(sys.modules.items())
               if m is not None and (name == "twisteta" or name.startswith("twisteta."))]
    for module_name, func_name, span_name, attrs in _TRACED:
        original = getattr(sys.modules[module_name], func_name)
        wrapped = tracer.wrap(span_name, original, attrs)
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, wrapped)


def layer_metrics(spans: list[list], specflow_points: int) -> dict[str, float]:
    """Per-layer numbers of one pass; ``self`` is a span minus its children."""
    child_time = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    calls: dict[str, int] = {}
    total: dict[str, float] = {}
    self_time: dict[str, float] = {}
    sums: dict[str, float] = {}
    for i, (name, start, end, parent, attrs) in enumerate(spans):
        calls[name] = calls.get(name, 0) + 1
        total[name] = total.get(name, 0.0) + (end - start)
        self_time[name] = self_time.get(name, 0.0) + (end - start - child_time[i])
        for key, value in (attrs or {}).items():
            if not isinstance(value, str):
                sums[f"{name}.{key}"] = sums.get(f"{name}.{key}", 0) + value

    def under_specflow(i: int) -> bool:
        while i >= 0 and spans[i][0] != "cli":
            i = spans[i][3]
        return i >= 0 and spans[i][4]["command"] == "specflow"

    specflow_evals = sum(1 for i, s in enumerate(spans)
                         if s[0] == "eta.eta_for_model" and under_specflow(i))
    heat_items = sums.get("eta.heat.items", 0)
    assembled = sums.get("weitzenbock.lw.assembled", 0)
    out = {
        "cli.self_s": self_time.get("cli", 0.0),
        "cli.total_s": total.get("cli", 0.0),
        "eta.heat.items": heat_items,
        "eta.heat.us_per_item": 1e6 * total.get("eta.heat", 0.0) / heat_items if heat_items else 0.0,
        "models.enumerate.items": sums.get("models.enumerate.items", 0),
        "models.torus_assembly.nnz": sums.get("models.torus_assembly.nnz", 0),
        "specflow.eta_evals_per_point":
            specflow_evals / specflow_points if specflow_points else 0.0,
        "weitzenbock.lw.self_s": self_time.get("weitzenbock.lw", 0.0),
        "weitzenbock.lw.interior_ratio":
            sums.get("weitzenbock.lw.compared", 0) / assembled if assembled else 0.0,
        "weitzenbock.psc.self_s": self_time.get("weitzenbock.psc", 0.0),
    }
    for layer in ("models.enumerate", "models.progression", "models.torus_assembly",
                  "eta.hurwitz", "eta.heat", "specflow.sf"):
        out[f"{layer}.calls"] = calls.get(layer, 0)
        out[f"{layer}.s"] = total.get(layer, 0.0)
    return out


def fastest_pass_metrics(per_pass: list[dict[str, float]]) -> dict[str, float]:
    """Each metric from the pass whose traced CLI time was least; counts are
    the same in every pass, times are read at the host's fastest."""
    best = min(per_pass, key=lambda m: m["cli.total_s"])
    return {name: best[name] for name, _ in PER_LAYER}
