"""End-to-end experiment execution from a resolved configuration.

Randomness is organized as one master seed with fixed per-source stream
offsets (initialization, Monte-Carlo noise / mini-batches, method-internal
noise, reference sampling, training-data generation), so changing how much
one source draws never shifts the others.  All computation is sequential and
deterministic; ``strict_deterministic`` is accepted for compatibility with
environments that add parallel kernels, and currently coincides with the
default execution path.

:func:`run_experiment` alone writes a run's files, each as soon as it exists:
the config echo before the first iteration, each snapshot when the loop
reaches it, and the run record at the end or, on a numerical failure or an
``OSError`` while writing a snapshot, the partial record before the error
propagates.  It looks up the run functions, target builders and evaluator in
this module's globals at each call.
"""

from __future__ import annotations

import os
from dataclasses import replace
from typing import Optional, Tuple

import numpy as np

from . import io as io_csv
from .baselines import LmcSchedule, energy_distance_run, explicit_euler_mmd_run, lmc_run, svgd_run
from .config import SCHEDULE_METHODS, ExperimentConfig, dump_config
from .errors import EviMmdError, InvalidArgumentError, NumericalFailureError
from .metrics import RunEvaluator
from .model import (
    BandwidthSchedule,
    DensityTarget,
    EmpiricalTarget,
    KernelConfig,
    ParticleSet,
    SolverConfig,
    initial_particles,
)
from .solver import IterationInfo, auto_schedule, check_schedule, evi_mmd_run
from .targets import eight_mixture, isotropic_gaussian, star_mixture, wave_density

# Stream offsets under the master seed.
STREAM_INIT = 0
STREAM_ALGO = 1  # MC noise + mini-batches (spawned inside the run functions)
STREAM_METHOD_NOISE = 2  # Langevin injections
STREAM_REFERENCE = 3
STREAM_TRAIN_DATA = 4

RUN_RECORD_FILE = "run_record.csv"
CONFIG_ECHO_FILE = "config_resolved.yaml"


def _stream(seed: int, offset: int) -> np.random.Generator:
    return np.random.default_rng([seed, offset])


def make_density_target(cfg: ExperimentConfig) -> DensityTarget:
    if cfg.target == "star":
        return star_mixture()
    if cfg.target == "eight":
        return eight_mixture()
    if cfg.target == "wave":
        return wave_density()
    if cfg.target == "gaussian":
        return isotropic_gaussian(cfg.target_d, cfg.target_sigma)
    raise InvalidArgumentError(f"target {cfg.target!r} is not a built-in density")


def build_targets(
    cfg: ExperimentConfig,
) -> Tuple[object, Optional[DensityTarget]]:
    """Resolve the training target and, when one exists, the underlying
    density used for exact reference sampling.

    Returns (target for the run, density for sampling or None).
    """
    if cfg.target == "csv":
        return io_csv.load_dataset_csv(cfg.target_csv, minibatch_size=cfg.L), None

    density = make_density_target(cfg)
    if not cfg.two_sample:
        return density, density
    train_rng = _stream(cfg.seed, STREAM_TRAIN_DATA)
    data = density.exact_sampler(train_rng, cfg.M)
    return EmpiricalTarget(data, minibatch_size=cfg.L), density


def reference_samples(
    cfg: ExperimentConfig, target, density: Optional[DensityTarget]
) -> np.ndarray:
    """Validation points for the evaluation metrics: exact draws when a
    sampler exists, otherwise a without-replacement subsample of the data."""
    ref_rng = _stream(cfg.seed, STREAM_REFERENCE)
    if density is not None and density.exact_sampler is not None:
        return density.exact_sampler(ref_rng, cfg.n_reference)
    data = target.data
    take = min(cfg.n_reference, data.shape[0])
    idx = ref_rng.choice(data.shape[0], size=take, replace=False)
    return data[idx]


def run_experiment(cfg: ExperimentConfig) -> int:
    """Execute a config and write its files into ``cfg.out_dir`` (see the
    module docstring).  Returns 0; failures raise and are mapped to exit codes
    by the CLI.  Writing a partial record sets ``partial_record_path`` (or
    ``partial_record_error``) on the :class:`NumericalFailureError`, or on
    the ``OSError`` a snapshot write raised.
    """
    os.makedirs(cfg.out_dir, exist_ok=True)
    target, density = build_targets(cfg)
    if cfg.tau_star is None:
        cfg = replace(cfg, tau_star=float(target.dim))
    init = initial_particles(target, cfg.N, _stream(cfg.seed, STREAM_INIT))

    if cfg.method not in SCHEDULE_METHODS:
        schedule = None
    elif cfg.a == "auto":
        # A numeric scale was checked with the config.
        schedule = check_schedule(auto_schedule(init, cfg.b, cfg.c), cfg.max_iter)
    else:
        schedule = BandwidthSchedule(a=float(cfg.a), b=cfg.b, c=cfg.c)

    reference = reference_samples(cfg, target, density)
    evaluator = RunEvaluator(reference, KernelConfig.gaussian(cfg.eval_bandwidth))
    dump_config(cfg, os.path.join(cfg.out_dir, CONFIG_ECHO_FILE))

    snapshot_iters = set(cfg.snapshot_iters) | {cfg.max_iter}

    def write_snapshot(info: IterationInfo) -> None:
        if info.n in snapshot_iters:
            path = os.path.join(cfg.out_dir, f"particles_iter{info.n:06d}.csv")
            io_csv.write_particles(ParticleSet(info.particles, iteration=info.n), path)

    algo_rng = _stream(cfg.seed, STREAM_ALGO)
    loop = dict(
        record_stride=cfg.metrics_stride, evaluator=evaluator, on_iteration=write_snapshot
    )
    record_path = os.path.join(cfg.out_dir, RUN_RECORD_FILE)
    try:
        if cfg.method in ("evi_mmd", "energy_distance"):
            solver_cfg = SolverConfig(
                tau_star=cfg.tau_star, mc_samples=cfg.L, max_iter=cfg.max_iter
            )
            if cfg.method == "evi_mmd":
                _, record = evi_mmd_run(target, schedule, solver_cfg, algo_rng, init, **loop)
            else:
                _, record = energy_distance_run(target, solver_cfg, algo_rng, init, **loop)
        elif cfg.method == "explicit_mmd":
            _, record = explicit_euler_mmd_run(
                target, schedule, cfg.eta0, cfg.max_iter, algo_rng, init, mc_samples=cfg.L, **loop
            )
        elif cfg.method == "svgd":
            _, record = svgd_run(target, cfg.bandwidth, cfg.eta0, cfg.max_iter, init, **loop)
        elif cfg.method == "lmc":
            lmc_schedule = LmcSchedule(a_lmc=cfg.lmc_a, b_lmc=cfg.lmc_b, c_lmc=cfg.lmc_c)
            noise_rng = _stream(cfg.seed, STREAM_METHOD_NOISE)
            _, record = lmc_run(target, lmc_schedule, cfg.max_iter, noise_rng, init, **loop)
        else:
            raise InvalidArgumentError(f"unknown method {cfg.method!r}")
    except (NumericalFailureError, OSError) as exc:
        # A snapshot's OSError carries the rows recorded before it.
        if getattr(exc, "partial_record", None) is not None:
            try:
                io_csv.write_run_record(exc.partial_record, record_path)
            except (EviMmdError, OSError) as write_exc:
                exc.partial_record_error = write_exc
            else:
                exc.partial_record_path = record_path
        raise
    io_csv.write_run_record(record, record_path)
    return 0
