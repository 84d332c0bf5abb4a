"""Outside-in layer tracing for one benchmark run.

The package is never edited. ``instrument`` replaces each layer's public
functions, at the module attribute through which callers reach them, with a
wrapper that records a span (name, start, end, parent) and bumps work
counters. A name brought in with ``from ... import`` is replaced in the
importing module; the model closures (``rinit``, ``step`` and the measurement
functions) are wrapped on each model the ``build_model*`` builders return.
Spans stay in memory until the run ends.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import time
from collections import Counter
from pathlib import Path

import numpy as np


class Tracer:
    """Span recorder. Single-threaded: spans nest through one stack."""

    def __init__(self) -> None:
        #: One ``[name, start, end, parent]`` list per call; parent is an index, -1 at the root.
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []

    def wrap(self, name: str, fn, before=None, after=None):
        """``fn`` recording a span per call. ``before(args, kwargs)`` runs ahead
        of the span and ``after(args, kwargs, result)`` after it, to count work."""
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if before is not None:
                before(args, kwargs)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if after is not None:
                after(args, kwargs, result)
            return result

        return traced

    def patch(self, module, attr: str, name: str, before=None, after=None) -> None:
        setattr(module, attr, self.wrap(name, getattr(module, attr), before, after))

    def write(self, path: Path) -> None:
        """Write the spans as JSON: one ``[name, start_s, end_s, parent]`` row each."""
        path.write_text(json.dumps({"columns": ["name", "start_s", "end_s", "parent"], "spans": self.spans}))

    def times(self) -> tuple[Counter, Counter]:
        """Inclusive and self seconds per span name."""
        child = [0.0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        inclusive, own = Counter(), Counter()
        for i, (name, start, end, _) in enumerate(self.spans):
            inclusive[name] += end - start
            own[name] += end - start - child[i]
        return inclusive, own

    def inclusive_under(self, name: str, parent_name: str) -> float:
        """Inclusive seconds of ``name`` spans whose direct parent is a ``parent_name`` span."""
        return sum(
            end - start
            for span_name, start, end, parent in self.spans
            if span_name == name and parent >= 0 and self.spans[parent][0] == parent_name
        )


def _arg(args, kwargs, index: int, key: str):
    return args[index] if len(args) > index else kwargs[key]


def instrument(tracer: Tracer) -> None:
    """Wrap every layer's public functions where their callers look them up."""
    import epipomp.cli as cli
    import epipomp.filtering as filtering
    import epipomp.forecast as forecast
    import epipomp.haiti.model1 as model1
    import epipomp.haiti.model2 as model2
    import epipomp.haiti.model3 as model3
    import epipomp.io as epio
    import epipomp.iterfilter as iterfilter
    import epipomp.optimize as optimize

    T, counts = tracer, tracer.counts

    def count(key: str):
        def bump(args, kwargs):
            counts[key] += 1
        return bump

    # cli: main reaches run_command, and the handlers build_bundle, as module globals
    T.patch(cli, "run_command", "cli.run_command")
    T.patch(cli, "build_bundle", "cli.build_bundle")

    # io: cli calls io.<name> through the module
    for attr in ("load_cases", "load_rainfall", "load_geography", "load_efficacy"):
        T.patch(epio, attr, "io.load")

    def rows_written(args, kwargs):
        counts["io.rows_written"] += len(_arg(args, kwargs, 2, "rows"))

    T.patch(epio, "write_table", "io.write_table", before=rows_written)

    # model: advance and compile_theta are imported by name into each caller
    for module in (filtering, iterfilter, forecast, optimize):
        T.patch(module, "advance", "model.advance")
        T.patch(module, "compile_theta", "model.compile_theta")

    # euler and measures kernels, bound in the model modules that call them
    def draw_slots(args, kwargs):
        counts["euler.euler_multinomial_calls"] += 1
        counts["euler.draw_slots"] += np.size(_arg(args, kwargs, 0, "counts")) * np.shape(
            _arg(args, kwargs, 1, "rates"))[-1]

    def nb_densities(args, kwargs, result):
        counts["measures.nb_densities"] += np.size(result)

    for module in (model1, model3):
        T.patch(module, "euler_multinomial", "euler.euler_multinomial", before=draw_slots)
        T.patch(module, "gamma_increment", "euler.gamma_increment")
        T.patch(module, "nb_logpmf", "measures.nb_logpmf", after=nb_densities)
        T.patch(module, "nb_sample", "measures.nb_sample")
    T.patch(model1, "poisson_inflow", "euler.poisson_inflow")
    T.patch(model2, "rk4_step", "euler.rk4_step", before=count("euler.rk4_steps"))
    T.patch(model2, "lognormal_case_logpdf", "measures.lognormal_case_logpdf")

    # haiti models: wrap the closures of every model the builders return
    def particle_steps(args, kwargs):
        counts["model.particle_steps"] += np.shape(_arg(args, kwargs, 0, "X"))[0]

    def traced_builder(builder):
        @functools.wraps(builder)
        def build(*args, **kwargs):
            m = builder(*args, **kwargs)
            return dataclasses.replace(
                m,
                rinit=T.wrap("haiti.rinit", m.rinit),
                step=T.wrap("haiti.step", m.step, before=particle_steps),
                dunit_measure=T.wrap("haiti.dunit_measure", m.dunit_measure),
                runit_measure=m.runit_measure and T.wrap("haiti.runit_measure", m.runit_measure),
            )
        return build

    for module, attr in ((model1, "build_model1"), (model2, "build_model2"), (model3, "build_model3")):
        setattr(module, attr, traced_builder(getattr(module, attr)))

    # filtering: the filter and resampling, as bound in cli, iterfilter and filtering
    def filter_health(args, kwargs, result):
        counts["filtering.ess_frac_sum"] += float(np.sum(result.ess)) / result.n_particles
        counts["filtering.ess_times"] += len(result.ess)
        counts["filtering.failed_times"] += len(result.failed_times)

    for module in (cli, iterfilter):
        T.patch(module, "particle_filter", "filtering.particle_filter", after=filter_health)
    for module in (filtering, iterfilter):
        T.patch(module, "systematic_indices", "filtering.systematic_indices",
                before=count("filtering.resamples"))

    # iterfilter
    def iterations(args, kwargs, result):
        counts["iterfilter.iterations"] += len(result.trace)

    for attr in ("ibpf", "if2"):
        T.patch(cli, attr, "iterfilter.search", after=iterations)
    T.patch(iterfilter, "_natural_theta", "iterfilter.natural_theta")

    # forecast: the particle steps taken inside the forward simulation
    start_steps: list[int] = []

    def sim_start(args, kwargs):
        start_steps.append(counts["model.particle_steps"])

    def sim_end(args, kwargs, result):
        counts["forecast.sim_steps"] += counts["model.particle_steps"] - start_steps.pop()

    T.patch(cli, "forecast_from_filter", "forecast.forecast_from_filter", before=sim_start, after=sim_end)

    # optimize
    def n_eval(args, kwargs, result):
        counts["optimize.n_eval"] += result.n_eval

    T.patch(cli, "trajectory_match", "optimize.trajectory_match", after=n_eval)
    T.patch(optimize, "deterministic_loglik", "optimize.deterministic_loglik",
            before=count("optimize.skeletons"))


def _ratio(num: float, den: float, scale: float = 1.0) -> float:
    return scale * num / den if den else 0.0


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer metrics measured by the spans and counters of one traced run."""
    inc, own = tracer.times()
    c = tracer.counts
    kernels = ("euler.euler_multinomial", "euler.gamma_increment", "euler.poisson_inflow", "euler.rk4_step")
    eval_filter = tracer.inclusive_under("filtering.particle_filter", "iterfilter.search")
    step_self = own["model.advance"] + own["haiti.step"]
    return {
        "euler.euler_multinomial_s": inc["euler.euler_multinomial"],
        "euler.euler_multinomial_calls": c["euler.euler_multinomial_calls"],
        "euler.draw_slots": c["euler.draw_slots"],
        "euler.ns_per_draw_slot": _ratio(inc["euler.euler_multinomial"], c["euler.draw_slots"], 1e9),
        "euler.us_per_call": _ratio(inc["euler.euler_multinomial"], c["euler.euler_multinomial_calls"], 1e6),
        "euler.gamma_increment_s": inc["euler.gamma_increment"],
        "euler.kernels_s": sum(inc[k] for k in kernels),
        "euler.rk4_step_s": inc["euler.rk4_step"],
        "euler.us_per_rk4_step": _ratio(inc["euler.rk4_step"], c["euler.rk4_steps"], 1e6),
        "model.advance_s": inc["model.advance"],
        "model.compile_theta_s": inc["model.compile_theta"],
        "model.particle_steps": c["model.particle_steps"],
        "model.step_self_ns_per_particle_step": _ratio(step_self, c["model.particle_steps"], 1e9),
        "haiti.step_self_s": own["haiti.step"],
        "haiti.rinit_s": inc["haiti.rinit"],
        "haiti.measure_self_s": own["haiti.dunit_measure"] + own["haiti.runit_measure"],
        "measures.nb_logpmf_s": inc["measures.nb_logpmf"],
        "measures.ns_per_nb_density": _ratio(inc["measures.nb_logpmf"], c["measures.nb_densities"], 1e9),
        "measures.nb_sample_s": inc["measures.nb_sample"],
        "measures.lognormal_logpdf_s": inc["measures.lognormal_case_logpdf"],
        "filtering.particle_filter_s": inc["filtering.particle_filter"],
        "filtering.self_s": own["filtering.particle_filter"],
        "filtering.systematic_indices_s": inc["filtering.systematic_indices"],
        "filtering.resamples": c["filtering.resamples"],
        "filtering.ess_frac_mean": _ratio(c["filtering.ess_frac_sum"], c["filtering.ess_times"]),
        "filtering.failed_times": c["filtering.failed_times"],
        "iterfilter.search_s": inc["iterfilter.search"],
        "iterfilter.pass_s": inc["iterfilter.search"] - eval_filter,
        "iterfilter.eval_filter_s": eval_filter,
        "iterfilter.natural_theta_s": inc["iterfilter.natural_theta"],
        "iterfilter.iterations": c["iterfilter.iterations"],
        "forecast.filter_s": (
            inc["filtering.particle_filter"] - eval_filter if inc["forecast.forecast_from_filter"] else 0.0
        ),
        "forecast.simulate_s": inc["forecast.forecast_from_filter"],
        "forecast.sim_steps": c["forecast.sim_steps"],
        "optimize.n_eval": c["optimize.n_eval"],
        "optimize.ms_per_eval": _ratio(inc["optimize.trajectory_match"], c["optimize.skeletons"], 1e3),
        "optimize.self_s": own["optimize.trajectory_match"] + own["optimize.deterministic_loglik"],
        "io.load_s": inc["io.load"],
        "io.write_table_s": inc["io.write_table"],
        "io.rows_written": c["io.rows_written"],
        "cli.run_command_self_s": own["cli.run_command"],
        "trace.spans": len(tracer.spans),
        "trace.self_sum_s": sum(own.values()),
    }
