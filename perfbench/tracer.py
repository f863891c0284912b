"""Layer tracer: wraps the package's public functions from outside the package.

Span boundaries (the cli, predictor and simulator entry points) record one
span per call: name, start, end and parent.  Per-evaluation boundaries
(`objective_D`, the prior expectations and the Gaussian kernels) run hundreds
of thousands of times per pass, so they keep only a call count and summed
time, in total and per parent span, which keeps memory bounded.  The self
time of a boundary is its own time minus the time of the traced calls nested
directly inside it, so the self times of all boundaries add up to the time
of the outermost calls.

A boundary name is `<layer>.<function>`; the layer is the package module the
function belongs to.  A function is wrapped where its caller looks it up
(for example `prior.gauss_expect_e` is the kernel as called from `prior`).
A function the package no longer has is skipped and reads as never called.
"""

from __future__ import annotations

import inspect
import statistics
import time
from contextlib import contextmanager

from lasso_mismatch import cli, predictor, prior, simulator

# (module, attribute, boundary name)
SPAN_BOUNDARIES = (
    (cli, "run_sweep", "cli.run_sweep"),
    (cli, "emit_csv", "cli.emit_csv"),
    (cli, "predict_report", "predictor.predict_report"),
    (cli, "run_trials", "simulator.run_trials"),
    (predictor, "optimal_lambda", "predictor.optimal_lambda"),
    (predictor, "solve_scalar", "predictor.solve_scalar"),
    (simulator, "generate_instance", "simulator.generate_instance"),
    (simulator, "solve_lasso", "simulator.solve_lasso"),
)
COUNTED_BOUNDARIES = (
    (predictor, "objective_D", "predictor.objective_D"),
    (predictor, "prior_expect_e", "prior.expect_e"),
    (predictor, "prior_expect_eta_x0", "prior.expect_eta_x0"),
    (prior, "gauss_expect_e", "kernels.gauss_expect_e"),
    (prior, "gauss_expect_eta", "kernels.gauss_expect_eta"),
    (predictor, "q_function", "kernels.q_function"),
)
LAYERS = ("cli", "predictor", "prior", "kernels", "simulator")
KERNEL_CALLS = ("kernels.gauss_expect_e", "kernels.gauss_expect_eta", "kernels.q_function")
PRIOR_CALLS = ("prior.expect_e", "prior.expect_eta_x0")

# a span is a list: [name, start, end, parent index, child seconds, counted];
# counted maps each per-evaluation boundary to [calls, seconds] made while
# the span was open, nested spans included
_NAME, _START, _END, _PARENT, _CHILD, _COUNTED = range(6)


class Tracer:
    """Spans and counters for one traced pass; install with `installed()`."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counted: dict[str, list] = {}  # name -> [calls, seconds, child seconds]
        self.inner_iters_total = 0
        self.lasso_iters = 0
        self.kkt_over_gate_max = 0.0
        self.nonconverged = 0
        self.instances: set[int] = set()
        self.matrix_bytes = 0
        # child seconds of every open call, innermost last; the bottom one
        # collects the outermost calls
        self._child = [0.0]
        self._open = [None]  # indices of open spans, innermost last

    @contextmanager
    def installed(self):
        """Wrap every boundary for the duration of the block, then restore."""
        saved = []
        try:
            for module, attr, name in COUNTED_BOUNDARIES:
                fn = getattr(module, attr, None)
                if fn is not None:
                    saved.append((module, attr, fn))
                    setattr(module, attr, self._counter(name, fn))
            for module, attr, name in SPAN_BOUNDARIES:
                fn = getattr(module, attr, None)
                if fn is not None:
                    saved.append((module, attr, fn))
                    setattr(module, attr, self._span(name, fn))
            yield self
        finally:
            for module, attr, fn in reversed(saved):
                setattr(module, attr, fn)

    def _counter(self, name: str, fn):
        child, clock = self._child, time.perf_counter
        total = self.counted.setdefault(name, [0, 0.0, 0.0])

        def wrapper(*args, **kwargs):
            child.append(0.0)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                total[2] += child.pop()
                child[-1] += dt
                total[0] += 1
                total[1] += dt

        return wrapper

    def _span(self, name: str, fn):
        child, open_spans, spans, clock = self._child, self._open, self.spans, time.perf_counter
        counted = self.counted
        observe = self._observer(name, fn)

        def wrapper(*args, **kwargs):
            span = [name, 0.0, 0.0, open_spans[-1], 0.0,
                    {k: (v[0], v[1]) for k, v in counted.items()}]
            open_spans.append(len(spans))
            spans.append(span)
            child.append(0.0)
            span[_START] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[_END] = clock()
                span[_CHILD] = child.pop()
                child[-1] += span[_END] - span[_START]
                open_spans.pop()
                span[_COUNTED] = {
                    k: [v[0] - span[_COUNTED][k][0], v[1] - span[_COUNTED][k][1]]
                    for k, v in counted.items()
                }
            if observe is not None:
                observe(args, kwargs, result)
            return result

        return wrapper

    def _observer(self, name: str, fn):
        """What to read from a boundary's arguments and result, if anything."""
        if name == "predictor.solve_scalar":
            def observe(args, kwargs, sol):
                self.inner_iters_total += getattr(sol, "inner_iters_total", 0)
            return observe
        if name == "simulator.generate_instance":
            def observe(args, kwargs, inst):
                # lambda does not enter an instance, so y identifies it
                self.instances.add(hash(inst.y.tobytes()))
                m, n = inst.A.shape
                self.matrix_bytes = max(self.matrix_bytes, 3 * m * n * 8)
            return observe
        if name == "simulator.solve_lasso":
            sig = inspect.signature(fn)

            def observe(args, kwargs, res):
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                # the solver's own convergence gate on the KKT residual
                gate = 10.0 * bound.arguments["tol"] * bound.arguments["lam"]
                self.lasso_iters += res.iters
                self.kkt_over_gate_max = max(self.kkt_over_gate_max, res.kkt_residual / gate)
                self.nonconverged += not res.converged
            return observe
        return None

    def boundary_stats(self) -> dict[str, list]:
        """Boundary name -> [calls, total seconds, self seconds]."""
        stats = {name: [c, t, t - child] for name, (c, t, child) in self.counted.items()}
        for span in self.spans:
            dur = span[_END] - span[_START]
            st = stats.setdefault(span[_NAME], [0, 0.0, 0.0])
            st[0] += 1
            st[1] += dur
            st[2] += dur - span[_CHILD]
        return stats

    def layer_self(self) -> dict[str, float]:
        """Layer -> self seconds, summed over the layer's boundaries."""
        out = dict.fromkeys(LAYERS, 0.0)
        for name, (_, _, self_s) in self.boundary_stats().items():
            out[name.split(".", 1)[0]] += self_s
        return out

    def top_level_seconds(self) -> float:
        """Time inside the outermost traced calls; the layer self times sum to it."""
        return self._child[0]

    def _named(self, name: str) -> list[list]:
        return [s for s in self.spans if s[_NAME] == name]

    def _under(self, span: list, ancestor: str) -> bool:
        parent = span[_PARENT]
        while parent is not None:
            if self.spans[parent][_NAME] == ancestor:
                return True
            parent = self.spans[parent][_PARENT]
        return False

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer metrics of this pass, by the names BENCHMARK.json lists."""
        stats = self.boundary_stats()
        layer = self.layer_self()

        def calls(*names):
            return sum(stats.get(n, (0, 0.0, 0.0))[0] for n in names)

        def seconds(*names):
            return sum(stats.get(n, (0, 0.0, 0.0))[1] for n in names)

        def ratio(num, den, scale=1.0):
            return scale * num / den if den else 0.0

        solves = self._named("predictor.solve_scalar")
        evals = [s[_COUNTED].get("predictor.objective_D", (0, 0.0))[0] for s in solves]
        gen_calls = calls("simulator.generate_instance")
        lasso_calls = calls("simulator.solve_lasso")
        return {
            "kernels.gauss_expect.calls": calls(*KERNEL_CALLS),
            "kernels.gauss_expect.us_per_call": ratio(seconds(*KERNEL_CALLS), calls(*KERNEL_CALLS), 1e6),
            "kernels.self_s": layer["kernels"],
            "prior.expect.calls": calls(*PRIOR_CALLS),
            "prior.expect.us_per_call": ratio(seconds(*PRIOR_CALLS), calls(*PRIOR_CALLS), 1e6),
            "prior.self_s": layer["prior"],
            "predictor.solve_scalar.calls": len(solves),
            "predictor.solve_scalar.ms_p50": (
                1e3 * statistics.median(s[_END] - s[_START] for s in solves) if solves else 0.0),
            "predictor.objective_D.evals": calls("predictor.objective_D"),
            "predictor.objective_D.evals_per_solve": ratio(sum(evals), len(solves)),
            "predictor.inner_iters_total": self.inner_iters_total,
            "predictor.optimal_lambda.solves": sum(
                self._under(s, "predictor.optimal_lambda") for s in solves),
            "predictor.optimal_lambda.s": seconds("predictor.optimal_lambda"),
            "predictor.self_s": layer["predictor"],
            "simulator.generate_instance.calls": gen_calls,
            "simulator.generate_instance.ms_per_call": ratio(
                seconds("simulator.generate_instance"), gen_calls, 1e3),
            "simulator.generate_instance.self_s": stats.get(
                "simulator.generate_instance", (0, 0.0, 0.0))[2],
            "simulator.instance_reuse": ratio(len(self.instances), gen_calls),
            "simulator.solve_lasso.calls": lasso_calls,
            "simulator.solve_lasso.iters": self.lasso_iters,
            "simulator.solve_lasso.iters_per_solve": ratio(self.lasso_iters, lasso_calls),
            "simulator.solve_lasso.us_per_iter": ratio(
                seconds("simulator.solve_lasso"), self.lasso_iters, 1e6),
            "simulator.solve_lasso.self_s": stats.get("simulator.solve_lasso", (0, 0.0, 0.0))[2],
            "simulator.solve_lasso.kkt_over_gate_max": self.kkt_over_gate_max,
            "simulator.nonconverged": self.nonconverged,
            "simulator.run_trials.self_s": stats.get("simulator.run_trials", (0, 0.0, 0.0))[2],
            "simulator.matrix_mb": self.matrix_bytes / 1e6,
            "cli.run_sweep.self_s": stats.get("cli.run_sweep", (0, 0.0, 0.0))[2],
            "cli.emit_csv.s": seconds("cli.emit_csv"),
            "trace.spans": len(self.spans),
        }
