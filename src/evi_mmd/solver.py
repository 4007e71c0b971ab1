"""Implicit-Euler particle updates with an adaptive kernel bandwidth.

Each outer iteration n sets the bandwidth from a decaying schedule and moves
the particles to (approximately) minimize the proximal objective

    J_n(x) = 1/(2 tau* N) * sum_i |x_i - x_i^(n)|^2 + F_h(x),

using an in-house L-BFGS with Armijo backtracking.  Because the inner solver
only ever accepts decreasing steps, J_n(x^(n+1)) <= J_n(x^(n)) holds at every
iteration, which bounds the per-iteration particle displacement by the free
energy decrease.

:func:`run_loop` is the outer loop of every method in the package: a method
is a step function returning an :class:`IterationInfo`, and the loop owns
the iteration count, which iterations are recorded, their evaluation, the
``on_iteration`` callback and the partial record on a numerical failure.
:func:`implicit_step` is the step shared by the implicit methods.  Every
run function checks its inputs with :func:`check_run_inputs`, and the two
methods on the adaptive-bandwidth objective take it from
:func:`objective_source`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, List, Tuple

import numpy as np

from .errors import InvalidArgumentError, NumericalFailureError
from .free_energy import McNoise, ValueFn, ValueGradFn, density_closures, empirical_closures
from .kernels import pairwise_distances
from .model import (
    BandwidthSchedule,
    DensityTarget,
    EmpiricalTarget,
    IterationRow,
    KernelConfig,
    ParticleSet,
    RunRecord,
    SolverConfig,
)

# Line-search constants: standard robust defaults (contraction 1/2,
# sufficient-decrease 1e-4, unit initial step).
_LS_CONTRACTION = 0.5
_LS_SUFFICIENT_DECREASE = 1e-4
_LS_INITIAL_STEP = 1.0
_LS_MIN_STEP = 1e-14


def bandwidth_at(schedule: BandwidthSchedule, n: int) -> float:
    """Bandwidth a / n^c + b at outer iteration n >= 1."""
    if int(n) != n or n < 1:
        raise InvalidArgumentError(f"iteration index must be >= 1, got {n!r}")
    return schedule.a / float(n) ** schedule.c + schedule.b


def check_schedule(schedule: BandwidthSchedule, max_iter: int) -> BandwidthSchedule:
    """``schedule`` once its smallest bandwidth, h(max_iter), makes a valid
    Gaussian kernel (:class:`KernelConfig`'s rule: h^2 is a normal float)."""
    h = bandwidth_at(schedule, max_iter)
    try:
        KernelConfig.gaussian(h)
    except InvalidArgumentError as exc:
        raise InvalidArgumentError(f"bandwidth schedule at iteration {max_iter}: {exc}") from None
    return schedule


def median_pairwise_distance(points) -> float:
    """Median over the N(N-1)/2 distinct-pair Euclidean distances."""
    points = np.asarray(points, dtype=float)
    if points.ndim != 2 or points.shape[0] < 2:
        raise InvalidArgumentError(
            f"need at least two points in a 2-d array, got shape {points.shape}"
        )
    dist = pairwise_distances(points, points)
    iu = np.triu_indices(points.shape[0], k=1)
    return float(np.median(dist[iu]))


def auto_schedule(init_particles, b: float, c: float) -> BandwidthSchedule:
    """Schedule whose initial scale a is the median pairwise distance of the
    initial particles."""
    return BandwidthSchedule(a=median_pairwise_distance(init_particles), b=b, c=c)


def proximal_objective(
    candidate,
    anchor,
    tau_star: float,
    value_and_grad_fn: Callable[[np.ndarray], Tuple[float, np.ndarray]],
) -> Tuple[float, np.ndarray]:
    """J_n and its gradient: quadratic proximity to the anchor plus the free
    energy, whose value and gradient ``value_and_grad_fn`` returns."""
    candidate = np.asarray(candidate, dtype=float)
    anchor = np.asarray(anchor, dtype=float)
    if candidate.shape != anchor.shape:
        raise InvalidArgumentError(
            f"candidate shape {candidate.shape} != anchor shape {anchor.shape}"
        )
    if tau_star <= 0:
        raise InvalidArgumentError(f"tau_star must be > 0, got {tau_star!r}")
    n = candidate.shape[0]
    f, grad = value_and_grad_fn(candidate)
    diff = candidate - anchor
    scale = 1.0 / (2.0 * tau_star * n)
    return scale * float(np.sum(diff**2)) + f, grad + diff / (tau_star * n)


class LbfgsState:
    """Curvature memory for the two-loop recursion.

    Keeps at most ``memory`` (step, gradient-difference) pairs; pairs whose
    inner product is non-positive are discarded to preserve a positive
    definite implicit Hessian approximation.
    """

    def __init__(self, memory: int):
        self.memory = memory
        self.pairs: List[Tuple[np.ndarray, np.ndarray, float]] = []

    def push(self, step: np.ndarray, grad_diff: np.ndarray) -> bool:
        sy = float(np.dot(step, grad_diff))
        if sy <= 0.0:
            # An Armijo-accepted step with non-positive curvature means the
            # accumulated approximation is stale; restart it, otherwise the
            # same tiny direction gets re-proposed indefinitely.
            self.pairs.clear()
            return False
        self.pairs.append((step, grad_diff, 1.0 / sy))
        if len(self.pairs) > self.memory:
            self.pairs.pop(0)
        return True

    def direction(self, grad: np.ndarray) -> np.ndarray:
        """Two-loop recursion for -H grad."""
        q = grad.copy()
        alphas = []
        for s, y, rho in reversed(self.pairs):
            a = rho * float(np.dot(s, q))
            q -= a * y
            alphas.append(a)
        if self.pairs:
            s, y, rho = self.pairs[-1]
            gamma = float(np.dot(s, y)) / float(np.dot(y, y))
            q *= gamma
        for (s, y, rho), a in zip(self.pairs, reversed(alphas)):
            b = rho * float(np.dot(y, q))
            q += (a - b) * s
        return -q


@dataclass(frozen=True)
class LbfgsResult:
    x: np.ndarray
    value: float
    iterations: int
    start_value: float = math.nan


def lbfgs_minimize(
    fun_and_grad: Callable[[np.ndarray], Tuple[float, np.ndarray]],
    start,
    config: SolverConfig,
) -> LbfgsResult:
    """Minimize a smooth objective from ``start`` with L-BFGS plus Armijo
    backtracking.

    ``fun_and_grad`` returns (value, gradient) at a point of the same shape
    as ``start``.  It is called once at the start and once per trial point of
    the line search; an accepted trial keeps the gradient computed there.
    Terminates when the gradient sup-norm drops to ``config.lbfgs_grad_tol``
    or after ``config.lbfgs_max_inner`` accepted steps; a stalled line search
    returns the current (still monotone) iterate.

    Raises :class:`NumericalFailureError` when the objective or gradient is
    non-finite at the start or at an accepted point; the error carries the
    last finite iterate.  A non-finite value at a trial point merely shortens
    the step.
    """
    x = np.array(start, dtype=float)
    shape = x.shape
    x = x.ravel()

    def fused(flat: np.ndarray) -> Tuple[float, np.ndarray]:
        value, grad = fun_and_grad(flat.reshape(shape))
        return float(value), np.asarray(grad, dtype=float).ravel()

    f, g = fused(x)
    if not np.isfinite(f) or not np.all(np.isfinite(g)):
        raise NumericalFailureError(
            "objective or gradient non-finite at the starting point",
            last_iterate=x.reshape(shape),
        )
    start_value = f

    state = LbfgsState(config.lbfgs_memory)
    iterations = 0
    while iterations < config.lbfgs_max_inner:
        if float(np.max(np.abs(g))) <= config.lbfgs_grad_tol:
            break
        direction = state.direction(g)
        slope = float(np.dot(g, direction))
        if slope >= 0.0:
            direction = -g
            slope = -float(np.dot(g, g))

        alpha = _LS_INITIAL_STEP
        accepted = None
        while alpha >= _LS_MIN_STEP:
            candidate = x + alpha * direction
            f_new, g_new = fused(candidate)
            if np.isfinite(f_new) and f_new <= f + _LS_SUFFICIENT_DECREASE * alpha * slope:
                accepted = candidate
                break
            alpha *= _LS_CONTRACTION
        if accepted is None:
            break  # stall: keep the current iterate, descent holds trivially

        if not np.all(np.isfinite(g_new)):
            raise NumericalFailureError(
                "gradient non-finite at an accepted step",
                last_iterate=x.reshape(shape),
            )
        state.push(accepted - x, g_new - g)
        x, f, g = accepted, f_new, g_new
        iterations += 1

    return LbfgsResult(
        x=x.reshape(shape), value=f, iterations=iterations, start_value=start_value
    )


@dataclass(frozen=True)
class IterationInfo:
    """What one step of any method reports for outer iteration ``n``.

    ``free_energy`` excludes ``report_offset`` (e.g. the batch-constant term
    of the energy distance), because the displacement bound uses the bare
    value; the recorded row adds the offset.  The objective fields and
    ``displacement`` belong to an implicit proximal step; explicit methods
    leave them NaN, and leave ``free_energy`` NaN on steps not recorded.
    """

    n: int
    particles: np.ndarray
    h_n: float = math.nan
    free_energy: float = math.nan
    report_offset: float = 0.0
    inner_iters: int = 0
    anchor_objective: float = math.nan
    final_objective: float = math.nan
    displacement: float = math.nan


StepFn = Callable[[int, np.ndarray, bool], IterationInfo]


def implicit_step(
    n: int,
    anchor: np.ndarray,
    value_and_grad_fn: Callable[[np.ndarray], Tuple[float, np.ndarray]],
    config: SolverConfig,
    *,
    h_n: float = math.nan,
    report_offset: float = 0.0,
) -> IterationInfo:
    """One proximal minimization of J_n from ``anchor``.

    The free energy at the result is J there minus the proximity term.
    """
    tau_star = config.tau_star

    def j_value_and_grad(x: np.ndarray) -> Tuple[float, np.ndarray]:
        return proximal_objective(x, anchor, tau_star, value_and_grad_fn)

    result = lbfgs_minimize(j_value_and_grad, anchor, config)
    displacement = float(np.sum((result.x - anchor) ** 2))
    return IterationInfo(
        n=n,
        particles=result.x,
        h_n=h_n,
        free_energy=result.value - displacement / (2.0 * tau_star * anchor.shape[0]),
        report_offset=report_offset,
        inner_iters=result.iterations,
        # J at the anchor equals the bare free energy there (zero proximity term).
        anchor_objective=result.start_value,
        final_objective=result.value,
        displacement=displacement,
    )


def run_loop(
    init,
    max_iter: int,
    step: StepFn,
    *,
    record_stride: int = 1,
    evaluator=None,
    on_iteration=None,
) -> Tuple[ParticleSet, RunRecord]:
    """The outer loop every method shares.

    Calls ``step(n, particles, record)`` for n = 1..``max_iter``; ``record``
    is true every ``record_stride`` iterations and at the last, and then a
    row is recorded whose displacement is measured against the previously
    recorded positions.  ``on_iteration`` receives every step's
    :class:`IterationInfo`.  A step's :class:`NumericalFailureError`, or a
    step that returns non-finite particles, raises
    :class:`NumericalFailureError` with the particles that step started from
    and the rows so far.
    With zero iterations the initial particles are returned unchanged.
    """
    particles = np.array(init, dtype=float)
    recorded = particles
    rows: List[IterationRow] = []
    for n in range(1, max_iter + 1):
        record = n % record_stride == 0 or n == max_iter
        try:
            info = step(n, particles, record)
            if not np.all(np.isfinite(info.particles)):
                raise NumericalFailureError("the step returned non-finite particles")
        except NumericalFailureError as exc:
            raise NumericalFailureError(
                f"step failed at iteration {n}: {exc}",
                last_iterate=particles,
                partial_record=RunRecord(tuple(rows)),
            ) from exc
        if record:
            mmd2_eval, edist_eval = (
                (math.nan, math.nan) if evaluator is None else evaluator.evaluate(info.particles)
            )
            rows.append(
                IterationRow(
                    n=n,
                    h_n=info.h_n,
                    free_energy=info.free_energy + info.report_offset,
                    mmd2_eval=mmd2_eval,
                    energy_dist_eval=edist_eval,
                    inner_iters=info.inner_iters,
                    displacement=float(np.sum((info.particles - recorded) ** 2)),
                )
            )
            recorded = info.particles
        if on_iteration is not None:
            on_iteration(info)
        particles = info.particles
    return ParticleSet(particles, iteration=max_iter), RunRecord(tuple(rows))


def check_run_inputs(init_particles, target, kinds: tuple) -> np.ndarray:
    """The initial particles as a float array, once they are a finite N x d
    matrix with N >= 1 and ``target`` is an instance of one of ``kinds`` with
    dimension d.

    Every run function starts with this check."""
    init = np.array(init_particles, dtype=float)
    if init.ndim != 2 or init.shape[0] < 1 or not np.all(np.isfinite(init)):
        raise InvalidArgumentError("init_particles must be a finite N x d matrix with N >= 1")
    if not isinstance(target, kinds):
        names = " or ".join(kind.__name__ for kind in kinds)
        raise InvalidArgumentError(f"target must be of type {names}, got {type(target).__name__}")
    if target.dim != init.shape[1]:
        raise InvalidArgumentError(
            f"target dimension {target.dim} != particle dimension {init.shape[1]}"
        )
    return init


def draw_minibatch(target: EmpiricalTarget, rng: np.random.Generator) -> np.ndarray:
    """Sample the target's mini-batch without replacement."""
    idx = rng.choice(target.n_rows, size=target.minibatch_size, replace=False)
    return target.data[idx]


def objective_source(
    target, rng: np.random.Generator, mc_samples: int
) -> Callable[[KernelConfig], Tuple[ValueFn, ValueGradFn]]:
    """The free-energy objective of a run, as a function of the kernel.

    ``rng`` spawns the noise and the mini-batch streams, in that order.  A
    density target gets ``mc_samples`` Monte-Carlo noise draws once, frozen
    for the run; an empirical target gets a fresh mini-batch at every call.
    Each call returns the branch's (value, value-and-gradient) closures.
    """
    noise_rng, batch_rng = rng.spawn(2)
    if isinstance(target, DensityTarget):
        noise = McNoise.draw(noise_rng, mc_samples, target.dim)
        return lambda kernel: density_closures(target, kernel, noise)
    return lambda kernel: empirical_closures(draw_minibatch(target, batch_rng), kernel)


def evi_mmd_run(
    target,
    schedule: BandwidthSchedule,
    config: SolverConfig,
    rng: np.random.Generator,
    init_particles,
    *,
    record_stride: int = 1,
    evaluator=None,
    on_iteration=None,
) -> Tuple[ParticleSet, RunRecord]:
    """Run the adaptive-bandwidth implicit sampler.

    The objective comes from :func:`objective_source`: density targets get a
    Monte-Carlo cross term with ``config.mc_samples`` noise draws frozen for
    the run; empirical targets redraw a mini-batch at every outer iteration
    and hold it fixed across the inner solve.  Initial particles are supplied
    by the caller (see :func:`evi_mmd.model.initial_particles` and
    :func:`auto_schedule` for the default recipe).  ``record_stride``,
    ``evaluator`` and ``on_iteration`` are passed to :func:`run_loop`.
    """
    init = check_run_inputs(init_particles, target, (DensityTarget, EmpiricalTarget))
    objective = objective_source(target, rng, config.mc_samples)

    def step(n: int, particles: np.ndarray, record: bool) -> IterationInfo:
        h_n = bandwidth_at(schedule, n)
        _, vg_fn = objective(KernelConfig.gaussian(h_n))
        return implicit_step(n, particles, vg_fn, config, h_n=h_n)

    return run_loop(
        init,
        config.max_iter,
        step,
        record_stride=record_stride,
        evaluator=evaluator,
        on_iteration=on_iteration,
    )
