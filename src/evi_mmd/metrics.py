"""Evaluation quantities decoupled from any optimization objective.

Unlike the training free energy, these include every term of the V-statistic
(all double sums, i = j included), so reported values are directly comparable
across methods and runs.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from .errors import InvalidArgumentError
from .kernels import _check_matrix, cross_gram, gram, pairwise_distances
from .model import KernelConfig


def _check_sample(x, name: str) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    if x.size == 0:
        raise InvalidArgumentError(f"{name} must be nonempty")
    return _check_matrix(x, name)


def mmd2_two_sample(x, y, kernel: KernelConfig) -> float:
    """Squared kernel discrepancy between two samples (V-statistic):

    (1/N^2) sum K(x_i, x_j) - (2/NM) sum K(x_i, y_j) + (1/M^2) sum K(y_i, y_j)
    """
    x = _check_sample(x, "x")
    y = _check_sample(y, "y")
    n, m = x.shape[0], y.shape[0]
    xx = float(gram(x, kernel).sum()) / (n * n)
    xy = float(cross_gram(x, y, kernel).sum()) / (n * m)
    yy = float(gram(y, kernel).sum()) / (m * m)
    return xx - 2.0 * xy + yy


def energy_distance(x, y) -> float:
    """Energy distance between two samples:

    (2/NM) sum |x_i - y_l| - (1/N^2) sum |x_i - x_j| - (1/M^2) sum |y_l - y_k|
    """
    x = _check_sample(x, "x")
    y = _check_sample(y, "y")
    n, m = x.shape[0], y.shape[0]
    xy = float(pairwise_distances(x, y).sum()) / (n * m)
    xx = float(pairwise_distances(x, x).sum()) / (n * n)
    yy = float(pairwise_distances(y, y).sum()) / (m * m)
    return 2.0 * xy - xx - yy


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

    Caches the reference-reference terms so per-iteration evaluation inside a
    run costs only the particle-particle and particle-reference sums; results
    match :func:`mmd2_two_sample` / :func:`energy_distance` exactly.
    """

    def __init__(self, reference, kernel: KernelConfig):
        self.reference = _check_sample(reference, "reference")
        self.kernel = kernel
        m = self.reference.shape[0]
        self._yy_kernel = float(gram(self.reference, kernel).sum()) / (m * m)
        self._yy_dist = float(
            pairwise_distances(self.reference, self.reference).sum()
        ) / (m * m)

    def mmd2(self, particles) -> float:
        particles = _check_sample(particles, "particles")
        n, m = particles.shape[0], self.reference.shape[0]
        xx = float(gram(particles, self.kernel).sum()) / (n * n)
        xy = float(cross_gram(particles, self.reference, self.kernel).sum()) / (n * m)
        return xx - 2.0 * xy + self._yy_kernel

    def energy_distance(self, particles) -> float:
        particles = _check_sample(particles, "particles")
        n, m = particles.shape[0], self.reference.shape[0]
        xy = float(pairwise_distances(particles, self.reference).sum()) / (n * m)
        xx = float(pairwise_distances(particles, particles).sum()) / (n * n)
        return 2.0 * xy - xx - self._yy_dist

    def evaluate(self, particles) -> Tuple[float, float]:
        return self.mmd2(particles), self.energy_distance(particles)
