"""Evaluation quantities decoupled from any optimization objective.

Unlike the training free energy, these include every term of the V-statistic
(all double sums, i = j included), so reported values are directly comparable
across methods and runs.  Energy distance is the squared discrepancy of the
negative-Euclidean kernel (:meth:`KernelConfig.negative_euclidean`) and is
computed by the same code as the Gaussian-kernel one; only
:func:`mode_occupancy` uses raw distances.

Every mean kernel term (1/NM) sum_ij K(x_i, y_j) comes from
:func:`_kernel_means`, which never holds the N x M kernel matrix: it sums the
matrix a block of at most ``_LEAF`` entries at a time, with the bytes of
``gram(x, k).sum()`` (or ``cross_gram(x, y, k).sum()``).  numpy sums a
contiguous float64 array by a pairwise tree: an array of n > 128 entries is
split after n2 = n//2 - (n//2) % 8 entries and the two halves' sums are
added.  A subtree is therefore summed exactly as ``np.add.reduce`` sums a
1-d slice of its length, so the blocked sum splits the flattened matrix where
numpy would, sums each leaf with numpy and adds the partial sums in the
tree's order (``tests/test_metrics.py`` checks the bytes and the tree).
"""

from __future__ import annotations

from typing import Callable, Optional, Sequence, Tuple

import numpy as np

from .errors import InvalidArgumentError
from .kernels import (
    _GRAM_DIAGONAL,
    _kernel_from_squared,
    _squared_distances_into,
    pairwise_distances,
)
from .model import KernelConfig, _check_sample

_ENERGY_KERNEL = KernelConfig.negative_euclidean()

# Kernel-matrix entries summed per leaf; each of the three row buffers holds
# about this many floats (31 rows, 0.5 MB, at 2000 reference points).  It must
# exceed numpy's 128-entry pairwise block so that every split below is one
# numpy makes.  The leaf size moves a run's peak RSS through glibc's dynamic
# mmap threshold: a 3-iteration eight-mixture run (numpy 2.4) peaked at
# 40.8 MiB with 20k-60k entries, 42.2 with 150k and 51.1 with 600k; 60k gave
# the fastest evaluations of those.
_LEAF = 60_000


def _kernel_means(
    x: np.ndarray, y: Optional[np.ndarray], kernels: Sequence[KernelConfig]
) -> list:
    """(1/NM) sum_ij K(x_i, y_j) for each kernel, from one squared-distance
    sweep over the pairs; y = None pairs x with itself and sets the Gram
    matrix's diagonal, as :func:`gram` does."""
    if y is not None and x.shape[1] != y.shape[1]:
        raise InvalidArgumentError(
            f"dimension mismatch: x has d={x.shape[1]}, y has d={y.shape[1]}"
        )
    other = x if y is None else y
    n, m = x.shape[0], other.shape[0]
    other_coords = np.ascontiguousarray(other.T)
    # A leaf covers at most this many rows, its first and last ones partly.
    rows = min(n, (_LEAF - 1) // m + 2)
    sq, term = np.empty((rows, m)), np.empty((rows, m))
    spare = np.empty((rows, m)) if len(kernels) > 1 else None

    def leaf(start: int, size: int) -> np.ndarray:
        first = start // m
        block = sq[: (start + size - 1) // m + 1 - first]
        _squared_distances_into(x[first : first + block.shape[0]], other_coords, block, term)
        sums = np.empty(len(kernels))
        for i, kernel in enumerate(kernels):
            # Every kernel but the last writes to the spare buffer, keeping sq.
            out = None if i + 1 == len(kernels) else spare[: block.shape[0]]
            values = _kernel_from_squared(block, kernel, out)
            flat = values.reshape(-1)
            if y is None:
                flat[first :: m + 1] = _GRAM_DIAGONAL[kernel.kind]
            sums[i] = flat[start - first * m :][:size].sum()
        return sums

    return [float(total) / (n * m) for total in _pairwise_sum(0, n * m, leaf)]


def _pairwise_sum(start: int, size: int, leaf: Callable[[int, int], np.ndarray]) -> np.ndarray:
    """Sum of entries [start, start + size) split as numpy's pairwise sum
    splits them, with ``leaf(start, size)`` summing up to ``_LEAF`` entries.

    (A module-level function: a nested recursive one would be a reference
    cycle that keeps the leaf's buffers alive until the next garbage
    collection.)"""
    if size <= _LEAF:
        return leaf(start, size)
    half = size // 2
    half -= half % 8
    return _pairwise_sum(start, half, leaf) + _pairwise_sum(start + half, size - half, leaf)


def _mmd2(
    x: np.ndarray, y: np.ndarray, kernels: Sequence[KernelConfig], yy: Sequence[float]
) -> list:
    """MMD^2 of x against y for each kernel, given y's mean kernel terms ``yy``."""
    xx = _kernel_means(x, None, kernels)
    xy = _kernel_means(x, y, kernels)
    return [a - 2.0 * b + c for a, b, c in zip(xx, xy, yy)]


def mmd2_two_sample(x, y, kernel: KernelConfig) -> float:
    """Squared kernel discrepancy between two samples (V-statistic):

    (1/N^2) sum K(x_i, x_j) - (2/NM) sum K(x_i, y_j) + (1/M^2) sum K(y_i, y_j)
    """
    x = _check_sample(x, "x")
    y = _check_sample(y, "y")
    return _mmd2(x, y, (kernel,), _kernel_means(y, None, (kernel,)))[0]


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
    means = _check_sample(means, "means")
    dist = pairwise_distances(particles, means)
    nearest = np.argmin(dist, axis=1)  # argmin takes the lowest index on ties
    counts = np.bincount(nearest, minlength=means.shape[0])
    return counts / particles.shape[0]


class RunEvaluator:
    """Repeated two-sample evaluation against a fixed reference set.

    Caches both kernels' reference-reference terms, summed block by block in
    numpy's pairwise order (see the module docstring) so that no M x M matrix
    is held, and with the bytes of the full Gram matrix's sum.  An evaluation
    then costs one particle-particle and one particle-reference distance
    sweep, shared by both kernels; results match :func:`mmd2_two_sample` /
    :func:`energy_distance` exactly.
    """

    def __init__(self, reference, kernel: KernelConfig):
        self.reference = _check_sample(reference, "reference")
        self._kernels = (kernel, _ENERGY_KERNEL)
        self._yy = _kernel_means(self.reference, None, self._kernels)

    def evaluate(self, particles) -> Tuple[float, float]:
        particles = _check_sample(particles, "particles")
        mmd2, energy = _mmd2(particles, self.reference, self._kernels, self._yy)
        return mmd2, energy
