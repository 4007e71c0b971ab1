"""End-to-end experiment execution from a resolved configuration.

Randomness is organized as one master seed with fixed per-source stream
offsets (initialization, Monte-Carlo noise / mini-batches, method-internal
noise, reference sampling, training-data generation), so changing how much
one source draws never shifts the others.  All computation is sequential and
deterministic; ``strict_deterministic`` is accepted for compatibility with
environments that add parallel kernels, and currently coincides with the
default execution path.
"""

from __future__ import annotations

import os
from dataclasses import replace
from typing import Dict, Optional, Tuple

import numpy as np

from . import io as io_csv
from .baselines import LmcSchedule, energy_distance_run, explicit_euler_mmd_run, lmc_run, svgd_run
from .config import ExperimentConfig, dump_config
from .errors import InvalidArgumentError
from .metrics import RunEvaluator
from .model import (
    BandwidthSchedule,
    DensityTarget,
    EmpiricalTarget,
    KernelConfig,
    ParticleSet,
    RunRecord,
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
        loaded = io_csv.load_dataset_csv(cfg.target_csv)
        if cfg.L > loaded.n_rows:
            raise InvalidArgumentError(
                f"mini-batch L={cfg.L} exceeds the {loaded.n_rows} rows of {cfg.target_csv}"
            )
        return EmpiricalTarget(loaded.data, minibatch_size=cfg.L), None

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


class SnapshotCollector:
    """Keeps particle snapshots at the requested iterations."""

    def __init__(self, snapshot_iters, max_iter: int):
        self.wanted = sorted({i for i in snapshot_iters if 1 <= i <= max_iter} | {max_iter})
        self.snapshots: Dict[int, np.ndarray] = {}

    def offer(self, info: IterationInfo) -> None:
        if info.n in self.wanted:
            self.snapshots[info.n] = np.array(info.particles)


def resolve_tau_star(cfg: ExperimentConfig, dim: int) -> ExperimentConfig:
    if cfg.tau_star is None:
        return replace(cfg, tau_star=float(dim))
    return cfg


def execute(cfg: ExperimentConfig) -> Tuple[ParticleSet, RunRecord, Dict[int, np.ndarray], ExperimentConfig]:
    """Run the configured method and return its outputs in memory.

    Returns (final particles, run record, snapshots by iteration, the fully
    resolved config actually used).
    """
    target, density = build_targets(cfg)
    dim = target.dim
    cfg = resolve_tau_star(cfg, dim)

    init_rng = _stream(cfg.seed, STREAM_INIT)
    init = initial_particles(target, cfg.N, init_rng)

    if cfg.a == "auto":
        # A numeric scale was checked with the config.
        schedule = check_schedule(auto_schedule(init, cfg.b, cfg.c), cfg.max_iter)
    else:
        schedule = BandwidthSchedule(a=float(cfg.a), b=cfg.b, c=cfg.c)

    reference = reference_samples(cfg, target, density)
    evaluator = RunEvaluator(reference, KernelConfig.gaussian(cfg.eval_bandwidth))

    collector = SnapshotCollector(cfg.snapshot_iters, cfg.max_iter)
    algo_rng = _stream(cfg.seed, STREAM_ALGO)

    loop = dict(
        record_stride=cfg.metrics_stride, evaluator=evaluator, on_iteration=collector.offer
    )

    if cfg.method in ("evi_mmd", "energy_distance"):
        solver_cfg = SolverConfig(
            tau_star=cfg.tau_star,
            mc_samples=cfg.L,
            max_iter=cfg.max_iter,
        )
        if cfg.method == "evi_mmd":
            final, record = evi_mmd_run(target, schedule, solver_cfg, algo_rng, init, **loop)
        else:
            final, record = energy_distance_run(target, solver_cfg, algo_rng, init, **loop)
    elif cfg.method == "explicit_mmd":
        final, record = explicit_euler_mmd_run(
            target, schedule, cfg.eta0, cfg.max_iter, algo_rng, init, mc_samples=cfg.L, **loop
        )
    elif cfg.method == "svgd":
        final, record = svgd_run(target, cfg.bandwidth, cfg.eta0, cfg.max_iter, init, **loop)
    elif cfg.method == "lmc":
        lmc_schedule = LmcSchedule(a_lmc=cfg.lmc_a, b_lmc=cfg.lmc_b, c_lmc=cfg.lmc_c)
        noise_rng = _stream(cfg.seed, STREAM_METHOD_NOISE)
        final, record = lmc_run(target, lmc_schedule, cfg.max_iter, noise_rng, init, **loop)
    else:
        raise InvalidArgumentError(f"unknown method {cfg.method!r}")

    return final, record, collector.snapshots, cfg


def run_experiment(cfg: ExperimentConfig) -> int:
    """Execute a config and write all artifacts into ``cfg.out_dir``.

    Emits one particle snapshot CSV per requested iteration (the final
    iteration always included), the run-record trace, and a resolved-config
    echo file.  Returns 0; failures raise and are mapped to exit codes by the
    CLI.
    """
    os.makedirs(cfg.out_dir, exist_ok=True)
    final, record, snapshots, resolved = execute(cfg)
    for n, positions in sorted(snapshots.items()):
        path = os.path.join(cfg.out_dir, f"particles_iter{n:06d}.csv")
        io_csv.write_particles(ParticleSet(positions, iteration=n), path)
    io_csv.write_run_record(record, os.path.join(cfg.out_dir, RUN_RECORD_FILE))
    dump_config(resolved, os.path.join(cfg.out_dir, CONFIG_ECHO_FILE))
    return 0
