"""Evaluation quantities decoupled from any optimization objective.

Unlike the training free energy, these include every term of the V-statistic
(all double sums, i = j included), so reported values are directly comparable
across methods and runs.  Energy distance is the squared discrepancy of the
negative-Euclidean kernel (:meth:`KernelConfig.negative_euclidean`) and is
computed by the same code as the Gaussian-kernel one; only
:func:`mode_occupancy` uses raw distances.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from .errors import InvalidArgumentError
from .kernels import _check_sample, cross_gram, gram, pairwise_distances
from .model import KernelConfig

_ENERGY_KERNEL = KernelConfig.negative_euclidean()


def _mean_kernel(x: np.ndarray, y: np.ndarray, kernel: KernelConfig) -> float:
    """(1/NM) sum_ij K(x_i, y_j), from the Gram matrix when y is x."""
    k = gram(x, kernel) if x is y else cross_gram(x, y, kernel)
    return float(k.sum()) / (x.shape[0] * y.shape[0])


def _mmd2(x: np.ndarray, y: np.ndarray, kernel: KernelConfig, yy: float) -> float:
    """MMD^2 of x against y, given y's mean kernel term ``yy``."""
    return _mean_kernel(x, x, kernel) - 2.0 * _mean_kernel(x, y, kernel) + yy


def mmd2_two_sample(x, y, kernel: KernelConfig) -> float:
    """Squared kernel discrepancy between two samples (V-statistic):

    (1/N^2) sum K(x_i, x_j) - (2/NM) sum K(x_i, y_j) + (1/M^2) sum K(y_i, y_j)
    """
    x = _check_sample(x, "x")
    y = _check_sample(y, "y")
    return _mmd2(x, y, kernel, _mean_kernel(y, y, kernel))


def energy_distance(x, y) -> float:
    """Energy distance between two samples:

    (2/NM) sum |x_i - y_l| - (1/N^2) sum |x_i - x_j| - (1/M^2) sum |y_l - y_k|

    It is the squared discrepancy of the negative-Euclidean kernel and is
    computed as exactly that by :func:`mmd2_two_sample`.
    """
    return mmd2_two_sample(x, y, _ENERGY_KERNEL)


def mode_occupancy(particles, means) -> np.ndarray:
    """Fraction of particles nearest (Euclidean) to each of K means.

    Ties go to the lowest mean index; the fractions sum to one.
    """
    particles = _check_sample(particles, "particles")
    means = np.asarray(means, dtype=float)
    if means.ndim != 2 or means.shape[0] < 1:
        raise InvalidArgumentError(f"means must be K x d with K >= 1, got {means.shape}")
    dist = pairwise_distances(particles, means)
    nearest = np.argmin(dist, axis=1)  # argmin takes the lowest index on ties
    counts = np.bincount(nearest, minlength=means.shape[0])
    return counts / particles.shape[0]


class RunEvaluator:
    """Repeated two-sample evaluation against a fixed reference set.

    Caches both kernels' reference-reference terms so per-iteration evaluation
    inside a run costs only the particle-particle and particle-reference sums;
    results match :func:`mmd2_two_sample` / :func:`energy_distance` exactly.
    """

    def __init__(self, reference, kernel: KernelConfig):
        self.reference = _check_sample(reference, "reference")
        self.kernel = kernel
        self._yy_kernel = _mean_kernel(self.reference, self.reference, kernel)
        self._yy_energy = _mean_kernel(self.reference, self.reference, _ENERGY_KERNEL)

    def mmd2(self, particles) -> float:
        particles = _check_sample(particles, "particles")
        return _mmd2(particles, self.reference, self.kernel, self._yy_kernel)

    def energy_distance(self, particles) -> float:
        particles = _check_sample(particles, "particles")
        return _mmd2(particles, self.reference, _ENERGY_KERNEL, self._yy_energy)

    def evaluate(self, particles) -> Tuple[float, float]:
        return self.mmd2(particles), self.energy_distance(particles)
