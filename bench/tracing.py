"""Spans and work counts around the calls into each ``evi_mmd`` module.

Nothing here edits the package: :func:`install` replaces public names in the
namespace where the *calling* module looks them up (``free_energy`` and
``metrics`` import ``gram``/``cross_gram`` by name, ``runner`` imports the run
functions and ``RunEvaluator`` by name, and a ``DensityTarget`` binds its
callables when the target is built).  Calls a module makes to its own private
helpers are not wrapped, so no work is counted twice.

A span is ``(name, parent span index, start, end)``; a layer's self time is
the time of its spans minus the time of their child spans.
"""

from __future__ import annotations

import dataclasses
import importlib
import math
import os
import time
from collections import Counter, defaultdict

import numpy as np

_FLOAT_BYTES = 8


class Tracer:
    """Keeps spans in memory and counts work at the same boundaries."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.counts = Counter()

    def wrap(self, name, fn, count=None):
        """Return ``fn`` recorded as span ``name``.  ``count(counts, args,
        kwargs, result)``, when given, adds the call's work to the counters."""

        def traced(*args, **kwargs):
            index = len(self.spans)
            self.spans.append(None)
            parent = self.stack[-1] if self.stack else -1
            self.stack.append(index)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self.stack.pop()
                self.spans[index] = (name, parent, start, end)
            self.counts[name + ".calls"] += 1
            if count is not None:
                count(self.counts, args, kwargs, result)
            return result

        return traced

    def summary(self, keep_durations=("metrics.evaluate", "baselines.svgd_step")):
        """Counts and, per span name, total and self seconds; per-call
        seconds for the names in ``keep_durations``."""
        child_time = defaultdict(float)
        for name, parent, start, end in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        total = defaultdict(float)
        self_time = defaultdict(float)
        durations = {name: [] for name in keep_durations}
        for index, (name, parent, start, end) in enumerate(self.spans):
            total[name] += end - start
            self_time[name] += end - start - child_time[index]
            if name in durations:
                durations[name].append(end - start)
        return {
            "counts": dict(self.counts),
            "total_s": dict(total),
            "self_s": dict(self_time),
            "durations_s": durations,
        }

    def write_spans(self, path):
        origin = self.spans[0][2] if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("id,parent,name,start_s,end_s\n")
            for index, (name, parent, start, end) in enumerate(self.spans):
                fh.write(f"{index},{parent},{name},{start - origin:.9f},{end - origin:.9f}\n")


def _rows(x):
    shape = getattr(x, "shape", ())
    return shape[0] if len(shape) == 2 else 1


def _count_points(prefix):
    def count(counts, args, kwargs, result):
        counts[prefix + ".points"] += _rows(args[0])

    return count


def _count_pairs(prefix, square):
    """Pairs and bytes of one kernel-matrix call, computed from array sizes:
    8 bytes per input element read plus per output element written."""

    def count(counts, args, kwargs, result):
        a = args[0]
        b = a if square else args[1]
        n, m = a.shape[0], b.shape[0]
        counts[prefix + ".pairs"] += n * m
        inputs = a.size if square else a.size + b.size
        counts["kernels.bytes_computed"] += _FLOAT_BYTES * (inputs + n * m)

    return count


def _count_file(counts, args, kwargs, result):
    counts["io.files_written"] += 1
    counts["io.bytes_written"] += os.path.getsize(args[1])


class _EvalCounter:
    """Counts objective evaluations inside one inner solve, and how many of
    them were at a point not evaluated just before (a new trial point)."""

    def __init__(self):
        self.evals = 0
        self.new_points = 0
        self._last = None

    def wrap(self, fn):
        def counted(x, *args, **kwargs):
            self.evals += 1
            x_arr = np.asarray(x)
            if self._last is None or not np.array_equal(self._last, x_arr):
                self.new_points += 1
                self._last = x_arr.copy()
            return fn(x, *args, **kwargs)

        return counted


def install(tracer, iteration_check):
    """Wrap the public names of every ``evi_mmd`` layer for ``tracer``, and
    chain ``iteration_check(info, tau_star)`` onto each implicit run's
    ``on_iteration`` callback."""
    # import_module: the package attribute ``evi_mmd.free_energy`` is the
    # function of that name, not the module.
    baselines, free_energy, io, metrics, runner, solver = (
        importlib.import_module(f"evi_mmd.{name}")
        for name in ("baselines", "free_energy", "io", "metrics", "runner", "solver")
    )

    # targets: the callables a DensityTarget holds are bound when it is built.
    make_target = runner.make_density_target

    def traced_target(cfg):
        target = make_target(cfg)
        wrapped = {
            name: tracer.wrap(f"targets.{name}", fn, _count_points(f"targets.{name}"))
            for name in ("density", "grad_density", "density_and_grad")
            if (fn := getattr(target, name)) is not None
        }
        return dataclasses.replace(target, **wrapped)

    runner.make_density_target = traced_target

    # kernels, where free_energy, metrics, solver and baselines look them up.
    for module in (free_energy, metrics, solver, baselines):
        for name, square in (("gram", True), ("cross_gram", False), ("pairwise_distances", False)):
            if hasattr(module, name):
                fn = getattr(module, name)
                setattr(module, name, tracer.wrap(f"kernels.{name}", fn, _count_pairs(f"kernels.{name}", square)))

    # free_energy: the objective closures handed to the solver each iteration.
    def traced_closures(make):
        def closures(*args, **kwargs):
            value, value_and_grad = make(*args, **kwargs)
            return (
                tracer.wrap("free_energy.value", value),
                tracer.wrap("free_energy.value_and_grad", value_and_grad),
            )

        return closures

    for module in (solver, baselines):
        for name in ("density_closures", "empirical_closures"):
            setattr(module, name, traced_closures(getattr(module, name)))

    # solver: one span per inner solve, with evaluation and step counts.
    lbfgs_span = tracer.wrap("solver.lbfgs_minimize", solver.lbfgs_minimize)

    def traced_lbfgs(fun_and_grad, start, config, **kwargs):
        evals = _EvalCounter()
        kwargs = {k: evals.wrap(v) if callable(v) else v for k, v in kwargs.items()}
        result = lbfgs_span(evals.wrap(fun_and_grad), start, config, **kwargs)
        counts = tracer.counts
        counts["solver.inner_iters"] += result.iterations
        counts["solver.max_inner_hits"] += int(result.iterations >= config.lbfgs_max_inner)
        counts["solver.trial_evals"] += evals.new_points - 1
        counts["solver.evals"] += evals.evals
        return result

    solver.lbfgs_minimize = traced_lbfgs

    # metrics: the evaluator runner builds, and each per-row evaluation.
    evaluator_cls = runner.RunEvaluator

    def traced_evaluator(*args, **kwargs):
        evaluator = tracer.wrap("metrics.evaluator_init", evaluator_cls)(*args, **kwargs)
        evaluator.evaluate = tracer.wrap("metrics.evaluate", evaluator.evaluate)
        return evaluator

    runner.RunEvaluator = traced_evaluator

    baselines.svgd_step = tracer.wrap("baselines.svgd_step", baselines.svgd_step)

    for name in ("write_run_record", "write_particles"):
        setattr(io, name, tracer.wrap(f"io.{name}", getattr(io, name), _count_file))

    for name in ("build_targets", "reference_samples"):
        setattr(runner, name, tracer.wrap(f"runner.{name}", getattr(runner, name)))

    implicit_run = runner.evi_mmd_run

    def checked_run(target, schedule, config, *args, **kwargs):
        user_callback = kwargs.get("on_iteration")

        def on_iteration(info):
            iteration_check(info, config.tau_star)
            if user_callback is not None:
                user_callback(info)

        kwargs["on_iteration"] = on_iteration
        return implicit_run(target, schedule, config, *args, **kwargs)

    runner.evi_mmd_run = checked_run


def descent_violations():
    """An ``iteration_check`` collecting outer iterations that break the
    descent invariant or the displacement bound (acceptance criterion 1)."""
    slack = 1e-10
    failures = []

    def check(info, tau_star):
        n_particles = info.particles.shape[0]
        if not info.final_objective <= info.anchor_objective + slack:
            failures.append(f"descent violated at iteration {info.n}")
        bound = 2.0 * tau_star * n_particles * abs(info.anchor_objective - info.free_energy)
        if not info.displacement <= bound + slack or not math.isfinite(info.displacement):
            failures.append(f"displacement bound violated at iteration {info.n}")

    return check, failures
