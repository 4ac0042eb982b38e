"""Layer tracing from outside the library.

``instrument(tracer)`` swaps the module attributes through which one
layer calls the next for timing wrappers and restores them on exit; the
library itself is not edited.  A boundary is named ``<layer>.<call>``
after the repository's modules.

Every boundary aggregates its call count, inclusive time and self time
(inclusive time minus the time of boundaries it called).  The coarse
boundaries in ``SPAN_NAMES``, of which a request has tens, also keep one
span each (id, parent span id, name, start, duration) in memory; the
per-evaluation ones (rates, constraints, kernel, SLSQP callbacks, tens of
thousands per cell) are aggregated only, which keeps a traced run's
memory flat.
"""

from __future__ import annotations

import math
from collections import Counter
from contextlib import contextmanager
from time import perf_counter_ns

import numpy as np

from selfbackhaul import _kernels, feasibility, model, optimizer, sweep, zfval

import workloads

SPAN_NAMES = frozenset({
    "bench.request", "sweep.run_sweep", "sweep.emit_csv",
    "model.params_from_db", "optimizer.optimize", "optimizer.baseline",
    "optimizer.repair_start", "slsqp.minimize",
    "zfval.column_norm_check", "zfval.wishart_trace_check",
    "zfval.exactness_check", "zfval.empirical_sinr_check",
    "linalg.eigvalsh", "linalg.inv", "linalg.solve",
})

# layer -> boundaries whose self time is the layer's self time.  SLSQP's
# own time (the minimize span minus its callbacks) and the optimizer code
# SLSQP calls back into are kept apart, as the callbacks are what
# analytic derivatives would replace.
LAYERS = {
    "bench": ("bench.request",),
    "sweep": ("sweep.run_sweep", "sweep.emit_csv"),
    "model": ("model.params_from_db", "model.validate"),
    "optimizer": ("optimizer.optimize", "optimizer.baseline",
                  "optimizer.repair_start"),
    "slsqp": ("slsqp.minimize",),
    "slsqp.callback": ("slsqp.fun", "slsqp.grad", "slsqp.cons",
                       "slsqp.jac"),
    "rates": ("rates.rates",),
    "feasibility": ("feasibility.constraints",),
    "kernels": ("kernels.rate_parts",),
    "zfval": ("zfval.column_norm_check", "zfval.wishart_trace_check",
              "zfval.exactness_check", "zfval.empirical_sinr_check",
              "zfval.draw"),
    "linalg": ("linalg.eigvalsh", "linalg.inv", "linalg.solve"),
}

SUPPORT_TOL = 1e-4   # a start supports the optimum within this of the best


class Tracer:
    """In-memory spans and per-boundary counters for one traced pass."""

    def __init__(self):
        self.origin = perf_counter_ns()
        self.calls = Counter()
        self.total_ns = Counter()
        self.self_ns = Counter()
        self.counts = Counter()     # work counted at boundaries
        self.spans = []             # (id, parent id, name, start ns, ns)
        self._stack = []            # frames: [span id to parent under, child ns]
        self._next_id = 1

    def call(self, name, fn, *args, **kwargs):
        stack = self._stack
        parent = stack[-1] if stack else None
        keep = name in SPAN_NAMES
        if keep:
            span_id = self._next_id
            self._next_id += 1
        else:
            span_id = parent[0] if parent else 0
        frame = [span_id, 0]
        stack.append(frame)
        start = perf_counter_ns()
        try:
            return fn(*args, **kwargs)
        finally:
            duration = perf_counter_ns() - start
            stack.pop()
            self.calls[name] += 1
            self.total_ns[name] += duration
            self.self_ns[name] += duration - frame[1]
            if parent is not None:
                parent[1] += duration
            if keep:
                self.spans.append((span_id, parent[0] if parent else 0, name,
                                   start - self.origin, duration))

    def wrap(self, name, fn):
        call = self.call

        def traced(*args, **kwargs):
            return call(name, fn, *args, **kwargs)
        return traced

    def layer_self_ms(self, layer: str) -> float:
        return sum(self.self_ns[name] for name in LAYERS[layer]) / 1e6

    def ms(self, name: str) -> float:
        return self.total_ns[name] / 1e6


def _traced_minimize(tracer: Tracer, real):
    def minimize(fun, x0, *args, jac=None, constraints=(), **kwargs):
        constraints = [dict(c, fun=tracer.wrap("slsqp.cons", c["fun"]),
                            jac=tracer.wrap("slsqp.jac", c["jac"]))
                       for c in constraints]
        kernel_calls = tracer.calls["kernels.rate_parts"]
        res = tracer.call("slsqp.minimize", real,
                          tracer.wrap("slsqp.fun", fun), x0, *args,
                          jac=tracer.wrap("slsqp.grad", jac),
                          constraints=constraints, **kwargs)
        counts = tracer.counts
        counts["slsqp.iterations"] += int(res.nit)
        counts[f"slsqp.status_{int(res.status)}"] += 1
        counts["slsqp.success"] += bool(res.success)
        counts["kernels.rate_parts.in_slsqp"] += (
            tracer.calls["kernels.rate_parts"] - kernel_calls)
        return res
    return minimize


def _traced_optimize(tracer: Tracer, real):
    def optimize(*args, **kwargs):
        result = tracer.call("optimizer.optimize", real, *args, **kwargs)
        counts = tracer.counts
        starts = result.starts
        feasible = [s.objective for s in starts if s.feasible]
        best = max(feasible) if feasible else math.nan
        counts["optimizer.starts"] += len(starts)
        counts["optimizer.starts_discarded"] += sum(
            s.status.startswith("discarded") for s in starts)
        counts["optimizer.starts_feasible"] += len(feasible)
        counts["optimizer.starts_converged"] += sum(
            bool(s.converged) for s in starts)
        counts["optimizer.starts_support"] += sum(
            bool(best - value <= SUPPORT_TOL) for value in feasible)
        return result
    return optimize


def _traced_complex_rows(tracer: Tracer, real):
    def complex_rows(rng, count, m, n, gains):
        tracer.counts["zfval.draws"] += count
        tracer.counts["zfval.computed_bytes"] += count * m * n * 16
        return tracer.call("zfval.draw", real, rng, count, m, n, gains)
    return complex_rows


@contextmanager
def instrument(tracer: Tracer):
    """Route every layer boundary through ``tracer`` while active."""
    plain = [
        (workloads, "run_sweep", "sweep.run_sweep"),
        (workloads, "emit_csv", "sweep.emit_csv"),
        (sweep, "params_from_db", "model.params_from_db"),
        (sweep, "validate", "model.validate"),
        (model, "validate", "model.validate"),
        (sweep, "baseline", "optimizer.baseline"),
        (optimizer, "repair_start", "optimizer.repair_start"),
        (optimizer, "constraints", "feasibility.constraints"),
        (optimizer, "rates", "rates.rates"),
        (feasibility, "rates", "rates.rates"),
        (sweep, "rates", "rates.rates"),
        (_kernels, "rate_parts", "kernels.rate_parts"),
        (zfval, "column_norm_check", "zfval.column_norm_check"),
        (zfval, "wishart_trace_check", "zfval.wishart_trace_check"),
        (zfval, "exactness_check", "zfval.exactness_check"),
        (zfval, "empirical_sinr_check", "zfval.empirical_sinr_check"),
        (np.linalg, "eigvalsh", "linalg.eigvalsh"),
        (np.linalg, "inv", "linalg.inv"),
        (np.linalg, "solve", "linalg.solve"),
    ]
    special = [
        (sweep, "optimize", _traced_optimize),
        (optimizer, "minimize", _traced_minimize),
        (zfval, "_complex_rows", _traced_complex_rows),
    ]
    saved = [(module, attr, getattr(module, attr))
             for module, attr, _ in plain + special]
    try:
        for module, attr, name in plain:
            setattr(module, attr, tracer.wrap(name, getattr(module, attr)))
        for module, attr, make in special:
            setattr(module, attr, make(tracer, getattr(module, attr)))
        yield tracer
    finally:
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)
