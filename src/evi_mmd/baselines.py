"""Comparison methods: explicit-Euler descent on the same objective, an
implicit energy-distance sampler, Stein variational gradient descent, and
unadjusted Langevin Monte Carlo.

Each method is a step function on :func:`evi_mmd.solver.run_loop`, the
outer loop the main solver also runs on, so all four emit the same
per-iteration record, take the same ``record_stride``/``evaluator``/
``on_iteration`` keywords, and leave a partial record on a numerical
failure.  The cheap-step methods (SVGD, Langevin) default to one row per
100 steps, matching the convention of logging 100 of their steps against
one implicit outer iteration.  Every run function checks its initial
particles and target with :func:`evi_mmd.solver.check_run_inputs`, and
explicit Euler takes its objective from
:func:`evi_mmd.solver.objective_source`, as the main solver does.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Tuple

import numpy as np

from .errors import NumericalFailureError
# density_closures is unused here; bench/tracing.py looks it up in this module.
from .free_energy import density_closures, empirical_closures, square_term  # noqa: F401
from .kernels import gram
from .model import (
    BandwidthSchedule,
    DensityTarget,
    EmpiricalTarget,
    KernelConfig,
    ParticleSet,
    RunRecord,
    SolverConfig,
    _check_positive,
)
from .solver import (
    IterationInfo,
    bandwidth_at,
    check_run_inputs,
    draw_minibatch,
    implicit_step,
    objective_source,
    run_loop,
)

_DENSITY_FLOOR = 1e-300


@dataclass(frozen=True)
class LmcSchedule:
    """Langevin step-size schedule eta(n) = a_lmc * (b_lmc + n)^(-c_lmc)."""

    a_lmc: float
    b_lmc: float
    c_lmc: float

    def __post_init__(self):
        for name in ("a_lmc", "b_lmc", "c_lmc"):
            object.__setattr__(self, name, _check_positive(getattr(self, name), name))

    def step_size(self, n: int) -> float:
        return self.a_lmc * (self.b_lmc + n) ** (-self.c_lmc)


def _grad_log_density(target: DensityTarget, particles: np.ndarray) -> np.ndarray:
    """grad log rho = grad rho / rho; raises where rho < 1e-300 or is NaN."""
    vals, grads = target.density_and_grad(particles)
    vals = np.asarray(vals, dtype=float)
    if not np.all(vals >= _DENSITY_FLOOR):
        raise NumericalFailureError(
            "target density underflowed below 1e-300 or is NaN; particles left "
            "the support of the floating-point density",
            last_iterate=particles,
        )
    return np.asarray(grads, dtype=float) / vals[:, None]


def explicit_euler_mmd_run(
    target,
    schedule: BandwidthSchedule,
    eta0: float,
    max_iter: int,
    rng: np.random.Generator,
    init_particles,
    *,
    mc_samples: int = 100,
    record_stride: int = 1,
    evaluator=None,
    on_iteration=None,
) -> Tuple[ParticleSet, RunRecord]:
    """Plain gradient descent on the adaptive-bandwidth free energy:
    x <- x - eta0 * N * grad F_h(x), the explicit counterpart of the
    proximal update (the dissipation scaling is absorbed into eta0)."""
    eta0 = _check_positive(eta0, "eta0")
    init = check_run_inputs(init_particles, target, (DensityTarget, EmpiricalTarget))
    n_particles = init.shape[0]
    objective = objective_source(target, rng, mc_samples)

    def step(n: int, particles: np.ndarray, record: bool) -> IterationInfo:
        h_n = bandwidth_at(schedule, n)
        value_fn, vg_fn = objective(KernelConfig.gaussian(h_n))
        _, grad = vg_fn(particles)
        moved = particles - eta0 * n_particles * grad
        if not np.all(np.isfinite(moved)):
            raise NumericalFailureError("explicit update diverged")
        # The objective value costs a full sweep; only a recorded row needs it.
        return IterationInfo(
            n, moved, h_n=h_n, free_energy=value_fn(moved) if record else math.nan
        )

    return run_loop(
        init,
        max_iter,
        step,
        record_stride=record_stride,
        evaluator=evaluator,
        on_iteration=on_iteration,
    )


def energy_distance_run(
    target: EmpiricalTarget,
    config: SolverConfig,
    rng: np.random.Generator,
    init_particles,
    *,
    record_stride: int = 1,
    evaluator=None,
    on_iteration=None,
) -> Tuple[ParticleSet, RunRecord]:
    """Implicit-Euler minimization of the energy distance to the mini-batch.

    Identical outer/inner structure to the adaptive-bandwidth run, with the
    negative-Euclidean kernel and no bandwidth.  The batch-constant term of
    the energy distance does not enter the optimization but is added to the
    recorded free-energy column so the trace reports the full statistic.
    """
    init = check_run_inputs(init_particles, target, (EmpiricalTarget,))
    _, batch_rng = rng.spawn(2)
    kernel = KernelConfig.negative_euclidean()

    def step(n: int, particles: np.ndarray, record: bool) -> IterationInfo:
        batch = draw_minibatch(target, batch_rng)
        _, vg_fn = empirical_closures(batch, kernel)
        # The batch constant costs an m x m sweep; only a recorded row reads it.
        batch_const = square_term(batch, kernel) if record else 0.0
        return implicit_step(n, particles, vg_fn, config, report_offset=batch_const)

    return run_loop(
        init,
        config.max_iter,
        step,
        record_stride=record_stride,
        evaluator=evaluator,
        on_iteration=on_iteration,
    )


def svgd_step(
    particles: np.ndarray, target: DensityTarget, bandwidth: float, eta0: float
) -> np.ndarray:
    """One Stein variational update:

    x_i += eta0/N * sum_j [K(x_j, x_i) grad log rho(x_j) + grad_{x_j} K(x_j, x_i)]
    """
    n = particles.shape[0]
    h2 = bandwidth * bandwidth
    w = gram(particles, KernelConfig.gaussian(bandwidth))
    score = _grad_log_density(target, particles)
    drift = _column_products(w, score)
    # sum_j grad_{x_j} K(x_j, x_i) = (x_i sum_j w_ji - sum_j w_ji x_j) / h^2
    repulsion = (particles * w.sum(axis=0)[:, None] - _column_products(w, particles)) / h2
    return particles + eta0 / n * (drift + repulsion)


def _column_products(w: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Row i is sum_j w_ji v_j: per column of ``v``, the rows of ``w`` scaled
    and added in row order, the order (and bytes) of
    ``np.einsum("ji,jd->id", w, v)`` at about half its time."""
    scaled = np.empty_like(w)
    sums = np.empty((v.shape[1], w.shape[1]))
    for v_e, sums_e in zip(v.T, sums):
        np.multiply(w, v_e[:, None], out=scaled)
        np.add.reduce(scaled, axis=0, out=sums_e)
    return np.ascontiguousarray(sums.T)


def svgd_run(
    target: DensityTarget,
    bandwidth: float,
    eta0: float,
    max_iter: int,
    init_particles,
    *,
    record_stride: int = 100,
    evaluator=None,
    on_iteration=None,
) -> Tuple[ParticleSet, RunRecord]:
    """Stein variational gradient descent with a fixed kernel bandwidth.

    Deterministic given the initial particles.  The recorded free-energy
    column is NaN (the method does not track a kernel-discrepancy objective).
    """
    init = check_run_inputs(init_particles, target, (DensityTarget,))
    bandwidth = _check_positive(bandwidth, "bandwidth")
    eta0 = _check_positive(eta0, "eta0", allow_zero=True)

    def step(n: int, particles: np.ndarray, record: bool) -> IterationInfo:
        return IterationInfo(n, svgd_step(particles, target, bandwidth, eta0), h_n=bandwidth)

    return run_loop(
        init,
        max_iter,
        step,
        record_stride=record_stride,
        evaluator=evaluator,
        on_iteration=on_iteration,
    )


def lmc_run(
    target: DensityTarget,
    schedule: LmcSchedule,
    max_iter: int,
    rng: np.random.Generator,
    init_particles,
    *,
    noise_scale: float = 1.0,
    record_stride: int = 100,
    evaluator=None,
    on_iteration=None,
) -> Tuple[ParticleSet, RunRecord]:
    """Unadjusted Langevin: per particle,
    x <- x + eta(n)/2 * grad log rho(x) + sqrt(eta(n)) * z,  z ~ N(0, I).

    ``noise_scale`` rescales the injected noise (0 gives the deterministic
    drift flow, useful for tests).  Rows are recorded every ``record_stride``
    steps with a NaN bandwidth column.
    """
    init = check_run_inputs(init_particles, target, (DensityTarget,))
    noise_scale = _check_positive(noise_scale, "noise_scale", allow_zero=True)

    def step(n: int, particles: np.ndarray, record: bool) -> IterationInfo:
        eta = schedule.step_size(n)
        score = _grad_log_density(target, particles)
        noise = rng.standard_normal(particles.shape)
        return IterationInfo(
            n, particles + 0.5 * eta * score + noise_scale * np.sqrt(eta) * noise
        )

    return run_loop(
        init,
        max_iter,
        step,
        record_stride=record_stride,
        evaluator=evaluator,
        on_iteration=on_iteration,
    )
