"""Evaluation quantities decoupled from any optimization objective.

Unlike the training free energy, these include every term of the V-statistic
(all double sums, i = j included), so reported values are directly comparable
across methods and runs.  Energy distance is the squared discrepancy of the
negative-Euclidean kernel (:meth:`KernelConfig.negative_euclidean`) and is
computed by the same code as the Gaussian-kernel one; only
:func:`mode_occupancy` uses raw distances.

Every mean kernel term (1/NM) sum_ij K(x_i, y_j) comes from
:func:`_kernel_means`, which never holds the N x M kernel matrix: one matrix
product per tile of at most ``_TILE_FLOATS`` pairs gives the tile's squared
distances, every kernel's values come from that one tile, and the tile sums
are added in order.  A self term sweeps only the tiles on and above its
diagonal.  The means are within the bound stated there of the sums of
:func:`gram` and :func:`cross_gram`, not byte for byte, and their bytes do
not depend on the BLAS thread count (``tests/test_metrics.py``).
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

import numpy as np

from .errors import InvalidArgumentError
from .kernels import (
    _SERIAL_PRODUCT,
    _kernel_from_squared,
    _squared_distances_into,
    pairwise_distances,
)
from .model import KernelConfig, _check_sample

_ENERGY_KERNEL = KernelConfig.negative_euclidean()

# Most pairs in one tile.  The tile and the one buffer a second kernel's
# values need hold 2 * 65536 floats (1 MiB).  The buffer sizes move a run's
# peak RSS through glibc's dynamic mmap threshold: a 3-iteration
# eight-mixture run (numpy 2.4) peaked at 40.2 MiB with these, against
# 40.5 MiB with three 60k-float buffers.
_TILE_FLOATS = 1 << 16

# A tile entry whose product-form square is below this many times the
# product form's error bound for the tile's largest norms is recomputed by
# the coordinate formula.
_CLOSE_FACTOR = 2.0**20


def _tiles(n: int, m: int, d: int, self_term: bool):
    """(r0, r1, c0, c1) tiles of an n x m sweep, rows in order: each tile
    has at most ``_TILE_FLOATS`` entries and its product at most
    ``_SERIAL_PRODUCT`` multiply-adds, so one BLAS thread runs it.  A self
    term's row block [r0, r1) covers only columns [r0, m)."""
    cap = max(1, min(_TILE_FLOATS, _SERIAL_PRODUCT // (d + 2)))
    r0 = 0
    while r0 < n:
        first = r0 if self_term else 0
        width = min(m - first, cap)
        r1 = min(n, r0 + cap // width)
        for c0 in range(first, m, width):
            yield r0, r1, c0, min(c0 + width, m)
        r0 = r1


def _kernel_means(
    x: np.ndarray, y: Optional[np.ndarray], kernels: Sequence[KernelConfig]
) -> list:
    """(1/NM) sum_ij K(x_i, y_j) for each kernel; y = None, or a y equal to
    x, pairs x with itself, with K(x_i, x_i) exact.

    With x~ = x - c and y~ = y - c centred on the mean c of y, each tile's
    squared distances come from one product [-2x~ | |x~|^2 | 1] @
    [y~ | 1 | |y~|^2]^T, as :func:`kernels.gaussian_self_sums` takes its
    exponents.  Every tile entry below a threshold, and every entry of a tile
    whose squared norms could overflow the product, is recomputed by the
    coordinate formula of :func:`kernels.squared_distances`, so coincident
    points are exactly 0 apart and a point at 1e200 gives what the
    coordinate sweep gives.  A self term's diagonal is exactly 0, and its
    row block [r0, r1) sums 2 (columns >= r1) + (columns [r0, r1)).  Each
    kernel takes its values from the same tile through
    :func:`kernels._kernel_from_squared`, the function :func:`gram` uses,
    and each distinct kernel is swept once, so a kernel's mean does not
    depend on the others swept with it.

    Declared bound.  Let eps be the float spacing at 1, u = eps/2 the unit
    roundoff, N_ij = |x~_i|^2 + |y~_j|^2, s_ij the coordinate formula's
    square for the pair, P_ij the tile's and delta_ij = (3d + 12) eps N_ij.
    An n-term dot product is within n u of the sum of its terms' magnitudes,
    in any order and with or without fused multiply-adds.  To first order:

    - the product's exact value is |x~_i - y~_j|^2.  The norms in it carry
      d u N_ij, and its d + 2 terms, whose magnitudes sum to at most
      2 N_ij, (d + 2) u 2 N_ij: (1.5d + 2) eps N_ij in all;
    - centring rounds each coordinate of x_i - c and y_j - c once, which
      moves the exact square by at most 2u (|x~_i| + |y~_j|)^2 <= 2 eps N_ij;
    - the coordinate formula rounds each coordinate's difference and square
      and the d - 1 additions, (d + 2) u |x_i - y_j|^2 <= (d + 2) eps N_ij.

    So |P_ij - s_ij| <= (2.5d + 6) eps N_ij.  Dividing by -2h^2 rounds
    P_ij and s_ij once each, by at most (P_ij + s_ij) u / 2h^2 <=
    2 eps N_ij / 2h^2, so the Gaussian exponents differ by at most
    (2.5d + 8) eps N_ij / 2h^2.  The other 0.5d + 4 of delta_ij absorbs the
    second-order terms and the rounding of the threshold, which is 2^20
    delta_ij or more: where s_ij < (2^20 - 1) delta_ij the tile takes s_ij's
    bytes, and its kernel value is exactly that of :func:`gram` /
    :func:`cross_gram`.  Elsewhere the value is within e_ij of it:

    - Gaussian: e_ij = K_ij (expm1(delta_ij / 2h^2) + 4 eps) + 2^-1072, the
      last two terms for two exponentials within 2 ulp each, normal or
      subnormal (spacing 2^-1074);
    - negative Euclidean: e_ij = delta_ij / sqrt(s_ij) + eps sqrt(s_ij),
      as |sqrt(P) - sqrt(s)| <= |P - s| / sqrt(s), plus two roundings.

    The mean is within (sum_ij e_ij + eps (B + 72) sum_ij |K_ij|) / NM of the
    exact mean of those values, B being the number of tiles.  numpy sums at
    most 2^16 values pairwise within 40u of their magnitudes' sum (leaves of
    at most 128 values through eight accumulators, 25 roundings deep, at
    most 10 halvings or 6 halvings and 7 buffer additions), and a diagonal
    tile's own block, summed by rows of at most 256 values, within 54u.  A
    diagonal tile's 2 (whole) - (own block) then comes within 135u = 67.5
    eps of its pairs' magnitudes, the in-order sum over tiles within (B -
    1) u and the division by NM within u: (67.5 + B/2) eps in all, and the
    rest of eps (B + 72) absorbs the second-order terms.
    """
    if y is not None and x.shape[1] != y.shape[1]:
        raise InvalidArgumentError(
            f"dimension mismatch: x has d={x.shape[1]}, y has d={y.shape[1]}"
        )
    self_term = y is None or np.array_equal(x, y)
    other = x if self_term else y
    n, m, d = x.shape[0], other.shape[0], x.shape[1]
    centre = other.mean(axis=0)
    x_c = x - centre
    x_sq = np.einsum("nd,nd->n", x_c, x_c)
    y_c = x_c if self_term else other - centre
    y_sq = x_sq if self_term else np.einsum("nd,nd->n", y_c, y_c)
    left = np.column_stack([-2.0 * x_c, x_sq, np.ones(n)])
    right = np.column_stack([y_c, np.ones(m), y_sq])
    close_scale = _CLOSE_FACTOR * (3 * d + 12) * np.finfo(float).eps

    distinct = list(dict.fromkeys(kernels))
    totals = dict.fromkeys(distinct, 0.0)
    size = min(n * m, _TILE_FLOATS)
    tile_buffer = np.empty(size)
    spare = np.empty(size) if len(distinct) > 1 else None
    # Overflowing norms make the product inf or NaN; such tiles are recomputed.
    with np.errstate(over="ignore", invalid="ignore"):
        for r0, r1, c0, c1 in _tiles(n, m, d, self_term):
            sq = tile_buffer[: (r1 - r0) * (c1 - c0)].reshape(r1 - r0, c1 - c0)
            np.matmul(left[r0:r1], right[c0:c1].T, out=sq)
            # A self term's first tile of a row block holds the diagonal.
            on_diagonal = self_term and c0 == r0
            norms = x_sq[r0:r1].max() + y_sq[c0:c1].max()
            # Where 4 * norms overflows, so may the product's partial sums: an
            # infinite threshold gives the whole tile the coordinate formula.
            threshold = norms * close_scale if 4.0 * norms < np.inf else np.inf
            _mend_close_pairs(sq, x[r0:r1], other[c0:c1], threshold, on_diagonal)
            for i, kernel in enumerate(distinct):
                # Every kernel but the last writes to the spare buffer, keeping sq.
                out = sq if i + 1 == len(distinct) else spare[: sq.size].reshape(sq.shape)
                values = _kernel_from_squared(sq, kernel, out)
                totals[kernel] += _tile_sum(values, self_term, on_diagonal)
    return [float(totals[k]) / (n * m) for k in kernels]


def _mend_close_pairs(
    sq: np.ndarray, a: np.ndarray, b: np.ndarray, threshold: float, on_diagonal: bool
) -> None:
    """Give every entry below ``threshold`` of a tile of product-form squared
    distances between the rows of ``a`` and ``b`` the coordinate formula's
    bytes, and the whole tile when the threshold is not finite, that is when
    its squared norms could overflow the product; set the diagonal of a tile
    that holds one to exactly 0."""
    # Off the diagonal, an empty view.
    diagonal = sq.reshape(-1)[:: sq.shape[1] + 1] if on_diagonal else sq[:0, 0]
    if not threshold < np.inf:
        _squared_distances_into(a, np.ascontiguousarray(b.T), sq, np.empty_like(sq))
    else:
        diagonal[...] = np.inf  # out of the check below
        if sq.min() < threshold:
            rows, cols = np.nonzero(sq < threshold)
            a, b = a[rows], b[cols]
            close = np.square(a[:, 0] - b[:, 0])
            for j in range(1, a.shape[1]):
                close += np.square(a[:, j] - b[:, j])
            sq[rows, cols] = close
    diagonal[...] = 0.0


def _tile_sum(values: np.ndarray, self_term: bool, on_diagonal: bool) -> float:
    """A tile's share of the total: a self term counts each pair off its
    diagonal twice, as (j, i) too."""
    total = values.sum()
    rows, cols = values.shape
    if not self_term or (on_diagonal and cols == rows):
        return total
    if not on_diagonal:
        return 2.0 * total
    return 2.0 * total - values[:, :rows].sum(axis=1).sum()


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

    Caches the reference-reference terms of the given kernel and of the
    negative-Euclidean one, swept tile by tile over the pairs i <= j (see
    :func:`_kernel_means`) so that no M x M matrix is held; a negative-
    Euclidean ``kernel`` is swept once for both.  An evaluation then costs
    one particle-particle and one particle-reference sweep, shared by both
    kernels, and returns the bytes of :func:`mmd2_two_sample` and
    :func:`energy_distance`.
    """

    def __init__(self, reference, kernel: KernelConfig):
        self.reference = _check_sample(reference, "reference")
        self._kernels = (kernel, _ENERGY_KERNEL)
        self._yy = _kernel_means(self.reference, None, self._kernels)

    def evaluate(self, particles) -> Tuple[float, float]:
        particles = _check_sample(particles, "particles")
        mmd2, energy = _mmd2(particles, self.reference, self._kernels, self._yy)
        return mmd2, energy
