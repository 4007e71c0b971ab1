"""The optimization objective: squared kernel discrepancy between the particle
cloud and the target, minus its particle-independent constant.

Two target branches share the particle-particle "square term":

* density branch: the particle-target cross term is a Monte-Carlo average of
  the target density over Gaussian perturbations of each particle, using one
  noise matrix frozen for the whole run so the objective is a deterministic
  function of the particles;
* empirical branch: the cross term is a plain double sum against the current
  mini-batch of training rows.

Each branch's objective has one implementation, the value-and-gradient
closure of :func:`density_closures` / :func:`empirical_closures`; the solver
calls it once per trial point, and every objective value is its value: the
value closure of each pair, :func:`free_energy` and :func:`grad_free_energy`
take theirs from it.  On the density branch the closure pair prepares the
target's ``shifted_sweep`` once with the offsets h * xi, and each call sweeps
the particles once: each particle's density and gradient at the N·L probes
x_i + h xi_l, summed over l.  Mixture targets take both sums from two matrix
products and one exponential per probe for each group of components that
share a covariance, which agree with the probe matrix within the bound
stated on :class:`evi_mmd.targets.GaussianMixture`; other targets fall back
to ``density_and_grad`` on the probe matrix
(:class:`evi_mmd.model.DensityTarget`).  :func:`cross_term_density` sums the
same values, so a reported value is exactly what the solver minimises.

The Gaussian square term, on both branches and in :func:`square_term`, comes
from :func:`evi_mmd.kernels.gaussian_self_sums`: two matrix products per row
block and no N x N Gram, within the bound stated there.  The cross term of
the empirical branch builds its particle-batch kernel matrix once per call,
and the energy distance's square term its Gram matrix.

The gradient of each kernel double sum, sum_ij K(x_i, y_j), is
-sum_j w_ij (x_i - y_j) / c, from :func:`evi_mmd.kernels.weighted_differences`
wherever a kernel matrix is built:
w = K, c = h^2 for the Gaussian kernel; w = 1/|x_i - y_j| (0 on coincident
pairs), c = 1 for the energy distance, whose gradient entries match the sum
of unit vectors to 1e-13 of the summed terms' size, sum_j w_ij (|x_i| + |y_j|).

Because the constant term is dropped, values can be negative; they differ
from the full squared discrepancy by a constant (see :mod:`evi_mmd.metrics`
for the full version used in reporting).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Tuple

import numpy as np

from .errors import InvalidArgumentError, UnsupportedOperationError
from .kernels import cross_gram, gaussian_self_sums, gram, weighted_differences
from .model import (
    GAUSSIAN,
    DensityTarget,
    EmpiricalTarget,
    KernelConfig,
    _check_array,
    _check_count,
    _check_positive,
    _check_sample,
    _frozen_array,
)


@dataclass(frozen=True)
class McNoise:
    """Frozen standard-normal draws (L, d) reused by every cross-term
    evaluation within a run."""

    xi: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "xi", _frozen_array(self.xi, "xi", ndim=2))

    @classmethod
    def draw(cls, rng: np.random.Generator, n_samples: int, dim: int) -> "McNoise":
        shape = (_check_count(n_samples, "n_samples"), _check_count(dim, "dim"))
        return cls(xi=rng.standard_normal(shape))

    @property
    def n_samples(self) -> int:
        return self.xi.shape[0]

    @property
    def dim(self) -> int:
        return self.xi.shape[1]


def gaussian_normalizer(dim: int, h: float) -> float:
    """Constant (2 pi)^(d/2) h^d linking the Gaussian kernel to the density
    it is proportional to."""
    return float((2.0 * np.pi) ** (dim / 2.0) * h**dim)


def square_term(particles, kernel: KernelConfig) -> float:
    """Particle-particle double sum (1/N^2) sum_ij K(x_i, x_j), the value of
    the closures' square term."""
    particles = _check_array(particles, "particles", 2)
    n = particles.shape[0]
    if kernel.kind == GAUSSIAN:
        return gaussian_self_sums(particles, kernel.bandwidth)[0] / (n * n)
    return float(gram(particles, kernel).sum()) / (n * n)


def _check_noise(noise: Optional[McNoise], dim: int) -> McNoise:
    """``noise`` once it is a frozen draw in the target's dimension ``dim``."""
    if noise is None:
        raise InvalidArgumentError("density branch requires frozen McNoise")
    if noise.dim != dim:
        raise InvalidArgumentError(
            f"noise dimension {noise.dim} does not match the target's d={dim}"
        )
    return noise


def _cross_term_sweep(
    target: DensityTarget, h: float, noise: McNoise
) -> Callable[[np.ndarray], Tuple[float, np.ndarray]]:
    """:func:`cross_term_density` and its gradient as a function of the
    particles, from the target's ``shifted_sweep`` prepared once with the
    offsets h * xi."""
    sweep = target.shifted_sweep(h * noise.xi)
    scale = gaussian_normalizer(target.dim, h) / noise.n_samples

    def cross_and_grad(x: np.ndarray) -> Tuple[float, np.ndarray]:
        val_sums, grad_sums = sweep(x)
        return scale * float(val_sums.sum()), scale * grad_sums

    return cross_and_grad


def cross_term_density(
    particles, target: DensityTarget, h: float, noise: McNoise
) -> float:
    """Monte-Carlo cross term sum_i (C_h / L) sum_l rho(x_i + h xi_l), from
    the same ``shifted_sweep`` values as the density branch's closures."""
    particles = _check_array(particles, "particles", 2)
    h = _check_positive(h, "bandwidth")
    noise = _check_noise(noise, target.dim)
    return _cross_term_sweep(target, h, noise)(particles)[0]


def cross_term_empirical(particles, batch, kernel: KernelConfig) -> float:
    """Data cross term (1/L) sum_i sum_j K(x_i, y_j) over the mini-batch."""
    particles = _check_array(particles, "particles", 2)
    batch = _check_sample(batch, "mini-batch")
    return float(cross_gram(particles, batch, kernel).sum()) / batch.shape[0]


def _require_density_kernel(kernel: KernelConfig) -> float:
    if kernel.kind != GAUSSIAN:
        raise UnsupportedOperationError(
            "density-branch cross term requires a Gaussian kernel; "
            f"got {kernel.kind!r} (the estimator samples from the kernel as a density)"
        )
    return kernel.bandwidth


def _kernel_sum_and_grad(
    x: np.ndarray, y: np.ndarray, k: np.ndarray, kernel: KernelConfig
) -> Tuple[float, np.ndarray, float]:
    """sum_ij K(x_i, y_j) and (W, c) with gradient -W / c in x, from the
    kernel matrix k[i, j] = K(x_i, y_j)."""
    if kernel.kind == GAUSSIAN:
        w, c = k, kernel.bandwidth**2
    else:
        # K = -|x_i - y_j|; coincident pairs (K = 0) get weight 0
        w, c = np.divide(-1.0, k, out=np.zeros_like(k), where=k < 0.0), 1.0
    return float(k.sum()), weighted_differences(x, y, w), c


def _square_term_and_grad(
    particles: np.ndarray, kernel: KernelConfig
) -> Tuple[float, np.ndarray]:
    """:func:`square_term` and its gradient, whose row i is
    (2/N^2) sum_j d/dx_i K(x_i, x_j).  The Gaussian kernel's sums come from
    :func:`evi_mmd.kernels.gaussian_self_sums`, within its declared bound;
    the negative-Euclidean kernel's from the Gram matrix."""
    n = particles.shape[0]
    if kernel.kind == GAUSSIAN:
        (total, weighted), c = gaussian_self_sums(particles, kernel.bandwidth), kernel.bandwidth**2
    else:
        total, weighted, c = _kernel_sum_and_grad(
            particles, particles, gram(particles, kernel), kernel
        )
    return total / (n * n), -2.0 / (n * n * c) * weighted


ValueFn = Callable[[np.ndarray], float]
ValueGradFn = Callable[[np.ndarray], Tuple[float, np.ndarray]]


def density_closures(
    target: DensityTarget, kernel: KernelConfig, noise: McNoise
) -> Tuple[ValueFn, ValueGradFn]:
    """Value and value+gradient closures over the particle matrix for the
    density branch.  The target's ``shifted_sweep`` is prepared once per
    closure pair, with the offsets h * xi; each value+gradient call makes one
    sweep of the particles and one square-term pass.  The value closure
    returns its value."""
    h = _require_density_kernel(kernel)
    noise = _check_noise(noise, target.dim)
    cross_and_grad = _cross_term_sweep(target, h, noise)

    def value_and_grad(x: np.ndarray) -> Tuple[float, np.ndarray]:
        x = np.asarray(x, dtype=float)
        n = x.shape[0]
        cross, cross_grad = cross_and_grad(x)
        square, square_grad = _square_term_and_grad(x, kernel)
        return -2.0 / n * cross + square, -2.0 / n * cross_grad + square_grad

    return lambda x: value_and_grad(x)[0], value_and_grad


def empirical_closures(
    batch: np.ndarray, kernel: KernelConfig
) -> Tuple[ValueFn, ValueGradFn]:
    """Value and value+gradient closures for the empirical branch with one
    fixed mini-batch.  The value+gradient closure builds the particle-batch
    matrix once and makes one square-term pass (the negative-Euclidean
    kernel's builds the Gram once); the value closure returns its value."""
    batch = _check_sample(batch, "mini-batch")
    m = batch.shape[0]

    def value_and_grad(x: np.ndarray) -> Tuple[float, np.ndarray]:
        x = np.asarray(x, dtype=float)
        n = x.shape[0]
        total, weighted, c = _kernel_sum_and_grad(x, batch, cross_gram(x, batch, kernel), kernel)
        cross, cross_grad = total / m, -weighted / (c * m)
        square, square_grad = _square_term_and_grad(x, kernel)
        return -2.0 / n * cross + square, -2.0 / n * cross_grad + square_grad

    return lambda x: value_and_grad(x)[0], value_and_grad


def _value_and_grad(
    particles, target, kernel: KernelConfig, noise: Optional[McNoise], batch: Optional[np.ndarray]
) -> Tuple[float, np.ndarray]:
    """The objective of ``target``'s branch and its gradient at the particles."""
    particles = _check_array(particles, "particles", 2)
    if isinstance(target, DensityTarget):
        _, value_and_grad = density_closures(target, kernel, noise)
    elif isinstance(target, EmpiricalTarget):
        _, value_and_grad = empirical_closures(target.data if batch is None else batch, kernel)
    else:
        raise InvalidArgumentError(f"unknown target type: {type(target).__name__}")
    return value_and_grad(particles)


def free_energy(
    particles,
    target,
    kernel: KernelConfig,
    *,
    noise: Optional[McNoise] = None,
    batch: Optional[np.ndarray] = None,
) -> float:
    """Objective value -(2/N) * cross_term + square_term for either branch,
    the value of the branch's value+gradient closure.

    Density targets need ``noise`` (and a Gaussian kernel); empirical targets
    use ``batch`` when given and all training rows otherwise.
    """
    return _value_and_grad(particles, target, kernel, noise, batch)[0]


def grad_free_energy(
    particles,
    target,
    kernel: KernelConfig,
    *,
    noise: Optional[McNoise] = None,
    batch: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Gradient of :func:`free_energy` with respect to the particle matrix,
    from the same value+gradient closure."""
    return _value_and_grad(particles, target, kernel, noise, batch)[1]
