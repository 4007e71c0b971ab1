"""Deterministic particle sampling by kernel-discrepancy minimization.

Particles approximate a target distribution (a fully specified density or an
empirical training set) by implicit-Euler descent on the squared kernel
discrepancy, with a per-iteration proximal L-BFGS solve and a decaying
Gaussian-kernel bandwidth.  Four classical baselines (explicit descent,
implicit energy-distance, Stein variational gradient descent, Langevin) share
the same record schema for side-by-side evaluation.
"""

from .baselines import (
    LmcSchedule,
    energy_distance_run,
    explicit_euler_mmd_run,
    lmc_run,
    svgd_run,
)
from .config import ExperimentConfig, config_from_dict, load_config
from .errors import (
    ConfigError,
    DatasetError,
    EviMmdError,
    InvalidArgumentError,
    NumericalFailureError,
    UnsupportedOperationError,
)
from .free_energy import (
    McNoise,
    cross_term_density,
    cross_term_empirical,
    free_energy,
    grad_free_energy,
    square_term,
)
from .kernels import cross_gram, gauss_eval, gauss_grad_x, gram, neg_euclid_eval
from .metrics import RunEvaluator, energy_distance, mmd2_two_sample, mode_occupancy
from .model import (
    BandwidthSchedule,
    DensityTarget,
    EmpiricalTarget,
    IterationRow,
    KernelConfig,
    ParticleSet,
    RunRecord,
    SolverConfig,
    initial_particles,
)
from .runner import run_experiment
from .solver import (
    auto_schedule,
    bandwidth_at,
    evi_mmd_run,
    lbfgs_minimize,
    median_pairwise_distance,
    proximal_objective,
)
from .targets import (
    GaussianMixture,
    eight_mixture,
    isotropic_gaussian,
    mixture_sampler,
    star_mixture,
    wave_density,
)

__version__ = "0.1.0"

__all__ = [
    "BandwidthSchedule",
    "ConfigError",
    "DatasetError",
    "DensityTarget",
    "EmpiricalTarget",
    "EviMmdError",
    "ExperimentConfig",
    "GaussianMixture",
    "InvalidArgumentError",
    "IterationRow",
    "KernelConfig",
    "LmcSchedule",
    "McNoise",
    "NumericalFailureError",
    "ParticleSet",
    "RunEvaluator",
    "RunRecord",
    "SolverConfig",
    "UnsupportedOperationError",
    "auto_schedule",
    "bandwidth_at",
    "config_from_dict",
    "cross_gram",
    "cross_term_density",
    "cross_term_empirical",
    "eight_mixture",
    "energy_distance",
    "energy_distance_run",
    "evi_mmd_run",
    "explicit_euler_mmd_run",
    "free_energy",
    "gauss_eval",
    "gauss_grad_x",
    "grad_free_energy",
    "gram",
    "initial_particles",
    "isotropic_gaussian",
    "lbfgs_minimize",
    "lmc_run",
    "load_config",
    "median_pairwise_distance",
    "mixture_sampler",
    "mmd2_two_sample",
    "mode_occupancy",
    "neg_euclid_eval",
    "proximal_objective",
    "run_experiment",
    "square_term",
    "star_mixture",
    "svgd_run",
    "wave_density",
]
