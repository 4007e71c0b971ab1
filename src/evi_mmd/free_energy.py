"""The optimization objective: squared kernel discrepancy between the particle
cloud and the target, minus its particle-independent constant.

Two target branches share the particle-particle "square term":

* density branch: the particle-target cross term is a Monte-Carlo average of
  the target density over Gaussian perturbations of each particle, using one
  noise matrix frozen for the whole run so the objective is a deterministic
  function of the particles;
* empirical branch: the cross term is a plain double sum against the current
  mini-batch of training rows.

Each branch has one value-and-gradient implementation, the second closure
of :func:`density_closures` / :func:`empirical_closures`; the solver calls it
once per trial point.  It builds each kernel matrix once and, on the density
branch, makes one call of the target's ``shifted_density_and_grad`` with the
offsets h * xi: the density at the N·L probes x_i + h xi_l and each
particle's gradient summed over l.  Mixture targets sweep the probes without
building them; other targets fall back to ``density_and_grad`` on the probe
matrix (:class:`evi_mmd.model.DensityTarget`), with the same bytes.  The
value-only ops (:func:`square_term`, :func:`cross_term_density`,
:func:`cross_term_empirical`, and :func:`free_energy` built from them) are
kept apart as the reference the gradient is tested against and for recording
objective values; :func:`grad_free_energy` delegates to the branch's
value-and-gradient closure.

The gradient of each kernel double sum, sum_ij K(x_i, y_j), is
-sum_j w_ij (x_i - y_j) / c (:func:`evi_mmd.kernels.weighted_differences`):
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
from .kernels import _check_matrix, _check_sample, cross_gram, gram, weighted_differences
from .model import (
    GAUSSIAN,
    DensityTarget,
    EmpiricalTarget,
    KernelConfig,
    _check_positive,
    _frozen_array,
    _shifted_probes,
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
        if n_samples < 1 or dim < 1:
            raise InvalidArgumentError(
                f"noise shape must be positive, got ({n_samples}, {dim})"
            )
        return cls(xi=rng.standard_normal((n_samples, dim)))

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
    """Particle-particle double sum (1/N^2) sum_ij K(x_i, x_j)."""
    particles = _check_matrix(particles, "particles")
    n = particles.shape[0]
    return float(gram(particles, kernel).sum()) / (n * n)


def _density_probes(particles: np.ndarray, h: float, noise: McNoise) -> np.ndarray:
    if noise.dim != particles.shape[1]:
        raise InvalidArgumentError(
            f"noise dimension {noise.dim} does not match particles d={particles.shape[1]}"
        )
    return _shifted_probes(particles, h * noise.xi)


def cross_term_density(
    particles, target: DensityTarget, h: float, noise: McNoise
) -> float:
    """Monte-Carlo cross term sum_i (C_h / L) sum_l rho(x_i + h xi_l)."""
    particles = _check_matrix(particles, "particles")
    h = _check_positive(h, "bandwidth")
    probes = _density_probes(particles, h, noise)
    vals = np.asarray(target.density(probes), dtype=float)
    c_h = gaussian_normalizer(particles.shape[1], h)
    return c_h / noise.n_samples * float(vals.sum())


def cross_term_empirical(particles, batch, kernel: KernelConfig) -> float:
    """Data cross term (1/L) sum_i sum_j K(x_i, y_j) over the mini-batch."""
    particles = _check_matrix(particles, "particles")
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
    (2/N^2) sum_j d/dx_i K(x_i, x_j)."""
    n = particles.shape[0]
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
    density branch.  The value+gradient closure makes one call of the
    target's ``shifted_density_and_grad`` with the offsets h * xi, scaled once
    per closure, and builds the Gram matrix once."""
    h = _require_density_kernel(kernel)
    if noise is None:
        raise InvalidArgumentError("density branch requires frozen McNoise")
    offsets = h * noise.xi

    def value(x: np.ndarray) -> float:
        x = _check_matrix(x, "particles")
        cross = cross_term_density(x, target, h, noise)
        return -2.0 / x.shape[0] * cross + square_term(x, kernel)

    def value_and_grad(x: np.ndarray) -> Tuple[float, np.ndarray]:
        x = np.asarray(x, dtype=float)
        n, d = x.shape
        vals, grad_sums = target.shifted_density_and_grad(x, offsets)
        scale = gaussian_normalizer(d, h) / noise.n_samples
        cross = scale * float(vals.sum())
        cross_grad = scale * grad_sums
        square, square_grad = _square_term_and_grad(x, kernel)
        return -2.0 / n * cross + square, -2.0 / n * cross_grad + square_grad

    return value, value_and_grad


def empirical_closures(
    batch: np.ndarray, kernel: KernelConfig
) -> Tuple[ValueFn, ValueGradFn]:
    """Value and value+gradient closures for the empirical branch with one
    fixed mini-batch.  The value+gradient closure builds the Gram and the
    particle-batch matrix once each."""
    batch = _check_sample(batch, "mini-batch")
    m = batch.shape[0]

    def value(x: np.ndarray) -> float:
        x = _check_matrix(x, "particles")
        cross = cross_term_empirical(x, batch, kernel)
        return -2.0 / x.shape[0] * cross + square_term(x, kernel)

    def value_and_grad(x: np.ndarray) -> Tuple[float, np.ndarray]:
        x = np.asarray(x, dtype=float)
        n = x.shape[0]
        total, weighted, c = _kernel_sum_and_grad(x, batch, cross_gram(x, batch, kernel), kernel)
        cross, cross_grad = total / m, -weighted / (c * m)
        square, square_grad = _square_term_and_grad(x, kernel)
        return -2.0 / n * cross + square, -2.0 / n * cross_grad + square_grad

    return value, value_and_grad


def _closures(
    target, kernel: KernelConfig, noise: Optional[McNoise], batch: Optional[np.ndarray]
) -> Tuple[ValueFn, ValueGradFn]:
    """The closure pair of ``target``'s branch."""
    if isinstance(target, DensityTarget):
        return density_closures(target, kernel, noise)
    if isinstance(target, EmpiricalTarget):
        return empirical_closures(target.data if batch is None else batch, kernel)
    raise InvalidArgumentError(f"unknown target type: {type(target).__name__}")


def free_energy(
    particles,
    target,
    kernel: KernelConfig,
    *,
    noise: Optional[McNoise] = None,
    batch: Optional[np.ndarray] = None,
) -> float:
    """Objective value -(2/N) * cross_term + square_term for either branch,
    computed from the value-only terms above.

    Density targets need ``noise`` (and a Gaussian kernel); empirical targets
    use ``batch`` when given and all training rows otherwise.
    """
    value, _ = _closures(target, kernel, noise, batch)
    return value(particles)


def grad_free_energy(
    particles,
    target,
    kernel: KernelConfig,
    *,
    noise: Optional[McNoise] = None,
    batch: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Gradient of :func:`free_energy` with respect to the particle matrix,
    from the branch's value+gradient closure."""
    particles = _check_matrix(particles, "particles")
    _, value_and_grad = _closures(target, kernel, noise, batch)
    return value_and_grad(particles)[1]
