"""Kernel evaluations, Gram matrices, and analytic kernel gradients.

Everything here is pure and deterministic.  Squared distances accumulate
one coordinate at a time with in-place ufuncs (no einsum, no BLAS), so
results are bit-identical across runs and thread settings.  At d <= 2 they
also round exactly as the einsum formula ``sum_j (a_j - b_j)**2`` evaluated
by ``np.einsum("ijd,ijd->ij")`` does; at d >= 3 that einsum groups its sum
differently, and the two agree to rtol 1e-13 (``tests/test_kernels.py``).
Gram matrices are materialized in full; particle counts in this package stay
in the hundreds, so O(N^2 d) is fine.  (The evaluation metrics sum the
thousands-row reference Gram a tile at a time instead, with squared
distances from matrix products; see ``metrics._kernel_means``.)

The Gaussian sums over one point cloud are the exception to the coordinate
sweep: :func:`gaussian_self_sums` takes the kernel sum, its gradient rows
and, optionally, kernel-weighted sums of given per-point values from two
matrix products per row block, without an N x N Gram, within the bound
stated there rather than byte for byte.  The free energy's Gaussian square
term and the SVGD step (drift and repulsion) both take this route.  Its row
blocks, like those of the mixtures' shifted sweep, keep every product at
most ``_SERIAL_PRODUCT`` multiply-adds, so its bytes do not depend on the
BLAS thread count, and both drop exponentials below exp(-707).  The
self-sums turn a block of exponents into kernel values in three passes
(min, clamp at 0, exp) where no exponent is below -707, and otherwise in
five (min, mask, one clip to [-707, 0], exp, mask product), with the
diagonal set to exactly 1 (:func:`_self_kernel_block`).  Either way the
bytes are those of a clamp at 0 followed by :func:`_exp_dropping_tiny`,
which the shifted sweep uses.  The negative-Euclidean kernel of
:func:`gram` and :func:`cross_gram` keeps the sweep: its square root would
turn the product form's cancellation into large relative errors at close
pairs.  The evaluation metrics' tiled means take the product form for both
kernels and give the pairs it could not resolve the sweep's bytes.

The exponentials of :func:`gram`, :func:`cross_gram` and the evaluation
metrics' tiled kernel means go through :func:`_exp_inplace`, which
returns the bytes of ``np.exp`` but keeps arguments below -707 out of its
vector loop: below about -707.78 ``np.exp`` takes a scalar path 15-150x
slower per entry, and at small bandwidths most kernel entries land there.
Arguments below -750, where ``np.exp`` is exactly +0.0, become 0.0; the
thin shell in between is exponentiated on its own (``tests/test_kernels.py``
checks the bytes and the +0.0 threshold of the installed numpy).

Every free-energy kernel-sum gradient has the one form
sum_j w_ij (x_i - y_j): from a kernel matrix by :func:`weighted_differences`,
and for the Gaussian square term by :func:`gaussian_self_sums`.
"""

from __future__ import annotations

from typing import Optional, Tuple, Union

import numpy as np

from .errors import InvalidArgumentError, UnsupportedOperationError
from .model import GAUSSIAN, NEGATIVE_EUCLIDEAN, KernelConfig, _check_array, _check_positive

# Floats of the squared-distance sweep's scratch buffer, 128 KiB: a chunk
# of rows of ``a`` has about this many entries.  Sized by rows instead, at
# 256 rows, a 200 x 200 call took twice the time: its 400 KB buffer seems to
# go back to the OS when freed and be page-faulted in again by the next call.
_CHUNK_FLOATS = 1 << 14

# Below about -707.78, where its results near the subnormal range, numpy's
# AVX-512 np.exp leaves its vector loop (about 19 ns an entry there instead
# of 1.2 ns, on constant arrays); _EXP_FAST_MIN sits above that edge.  Below
# _EXP_ZERO_BELOW np.exp returns exactly +0.0 (numpy's own zero threshold is
# -745.13).
_EXP_FAST_MIN = -707.0
_EXP_ZERO_BELOW = -750.0

# Most multiply-adds of one matrix product in a factored sweep (the Gaussian
# square term here, the mixtures' shifted sweep in ``targets``, the tiles of
# the evaluation metrics' kernel means).  OpenBLAS runs a product of at most
# 65536 * GEMM_MULTITHREAD_THRESHOLD (4 by default) of them on one thread; a
# larger one may be split over threads, and its bytes then depend on their
# number.
_SERIAL_PRODUCT = 1 << 18
# The factored sweeps set to 0 each exponential whose exponent is below
# _EXP_KEEP_MIN: such a term is below exp(-707), about 9.1e-308.  Below about
# -707.78 np.exp leaves its vector loop, and its subnormal results slow the
# sums that follow.
_EXP_KEEP_MIN = -707.0


def gauss_eval(x, y, h) -> float:
    """Gaussian kernel exp(-|x - y|^2 / (2 h^2)); value in (0, 1]."""
    x = _check_array(x, "x", 1)
    y = _check_array(y, "y", 1)
    h = _check_positive(h, "bandwidth")
    sq = float(np.sum((x - y) ** 2))
    return float(np.exp(-sq / (2.0 * h * h)))


def gauss_grad_x(x, y, h) -> np.ndarray:
    """Gradient of the Gaussian kernel in its first argument:
    -(x - y) / h^2 * exp(-|x - y|^2 / (2 h^2))."""
    x = _check_array(x, "x", 1)
    y = _check_array(y, "y", 1)
    h = _check_positive(h, "bandwidth")
    diff = x - y
    val = np.exp(-float(np.sum(diff**2)) / (2.0 * h * h))
    return -diff / (h * h) * val


def neg_euclid_eval(x, y) -> float:
    """Energy-distance generator -|x - y|_2 (non-positive, 0 iff x == y)."""
    x = _check_array(x, "x", 1)
    y = _check_array(y, "y", 1)
    sq = float(np.sum((x - y) ** 2))
    return -float(np.sqrt(max(sq, 0.0)))


def squared_distances(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """All pairwise squared Euclidean distances between rows of a and b.

    Accumulates ``(a[:, j] - b[:, j])**2`` over coordinates j in order, a
    chunk of rows of ``a`` at a time so the scratch buffer stays at about
    ``_CHUNK_FLOATS`` floats (at least one row) however many rows ``a`` has.
    Each entry's bytes do not depend on the chunking.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.shape[1] != b.shape[1]:
        # The coordinate loop would otherwise read a short side out of range
        # or drop the extra coordinates of a long one.
        raise InvalidArgumentError(
            f"dimension mismatch: a has d={a.shape[1]}, b has d={b.shape[1]}"
        )
    n, m = a.shape[0], b.shape[0]
    if a.shape[1] == 0:
        return np.zeros((n, m))
    b_coords = np.ascontiguousarray(b.T)
    out = np.empty((n, m))
    chunk = max(1, _CHUNK_FLOATS // max(1, m))
    term = np.empty((min(n, chunk), m))
    for start in range(0, n, chunk):
        rows = slice(start, start + chunk)
        _squared_distances_into(a[rows], b_coords, out[rows], term)
    return out


def _squared_distances_into(
    a: np.ndarray, b_coords: np.ndarray, out: np.ndarray, term: np.ndarray
) -> np.ndarray:
    """Fill ``out`` with the squared distances between the rows of ``a`` and
    the points whose coordinates are the rows of ``b_coords`` (d x M);
    ``term`` is scratch with at least ``out``'s rows and M columns."""
    a_coords = a.T
    buf = term[: out.shape[0]]
    # The first coordinate's square goes straight into ``out``: it is what
    # 0.0 + square gives, since a square is never -0.0.
    _squared_difference(a_coords[0], b_coords[0], out)
    for a_j, b_j in zip(a_coords[1:], b_coords[1:]):
        out += _squared_difference(a_j, b_j, buf)
    return out


def _squared_difference(a_j: np.ndarray, b_j: np.ndarray, out: np.ndarray) -> np.ndarray:
    """out[i, k] = (a_j[i] - b_j[k])**2, in place."""
    np.subtract.outer(a_j, b_j, out=out)
    return np.multiply(out, out, out=out)


def pairwise_distances(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Pairwise Euclidean distances, the square roots of
    :func:`squared_distances`."""
    sq = squared_distances(a, b)
    return np.sqrt(sq, out=sq)


def _exp_inplace(out: np.ndarray) -> np.ndarray:
    """``np.exp(out, out=out)`` for a C-contiguous ``out``, with the same
    bytes, computing only the subnormal shell off numpy's vector loop."""
    lowest = out.min() if out.size else 0.0
    if lowest >= _EXP_FAST_MIN:
        return np.exp(out, out=out)
    flat = out.reshape(-1)
    if lowest == -np.inf:
        # Overflowed squared distances; -inf times the mask below is NaN.
        np.maximum(flat, 2.0 * _EXP_ZERO_BELOW, out=flat)
    fast = flat >= _EXP_FAST_MIN
    shell = flat >= _EXP_ZERO_BELOW
    shell ^= fast
    shell_at = np.flatnonzero(shell)
    shell_values = np.exp(flat[shell_at])
    # Slow arguments become +-0.0 for the vector call and their results 0.0.
    # (A masked assignment in place of these products doubles the run time.)
    flat *= fast
    np.exp(flat, out=flat)
    flat *= fast
    flat[shell_at] = shell_values
    return out


def _kernel_from_squared(
    sq: np.ndarray, kernel: KernelConfig, out: np.ndarray | None = None
) -> np.ndarray:
    """Kernel values from C-contiguous squared distances, written to ``out``
    (in place by default); ``sq`` is left unchanged when ``out`` is another
    buffer.  No entry of ``sq`` is negative: the coordinate sweep sums
    squares, and the metrics' tiles recompute their negative entries, so
    the square root needs no clamp."""
    out = sq if out is None else out
    if kernel.kind == GAUSSIAN:
        # Same bytes as negating first: IEEE division is sign-symmetric.
        np.divide(sq, -2.0 * kernel.bandwidth**2, out=out)
        return _exp_inplace(out)
    if kernel.kind == NEGATIVE_EUCLIDEAN:
        return np.negative(np.sqrt(sq, out=out), out=out)
    raise UnsupportedOperationError(f"unknown kernel kind {kernel.kind!r}")


def _exp_dropping_tiny(z: np.ndarray, keep: Optional[np.ndarray] = None) -> np.ndarray:
    """exp(z) in place, with the entries below _EXP_KEEP_MIN set to 0.

    ``keep``, a boolean array shaped like ``z``, is the scratch for the mask.
    Clamping those entries to _EXP_KEEP_MIN keeps np.exp in its vector loop,
    and a multiply by the mask is branch-free where a masked copy is not."""
    if z.size == 0 or z.min() >= _EXP_KEEP_MIN:
        return np.exp(z, out=z)
    keep = np.greater_equal(z, _EXP_KEEP_MIN, out=keep)
    np.maximum(z, _EXP_KEEP_MIN, out=z)
    np.exp(z, out=z)
    return np.multiply(z, keep, out=z)


def _self_kernel_block(e: np.ndarray, start: int, keep: np.ndarray) -> np.ndarray:
    """Gaussian kernel values in place from the exponents ``e`` of rows
    start, start + 1, ... of a point cloud against all of it: clamped at <= 0,
    the diagonal exactly 0 and so exactly 1, and the entries below
    _EXP_KEEP_MIN set to 0.  ``keep``, a boolean array shaped like ``e``, is
    the scratch for the mask.

    Where no exponent is below _EXP_KEEP_MIN this takes three passes (min,
    clamp, exp); otherwise five (min, mask, one clip to [_EXP_KEEP_MIN, 0],
    exp, mask product).  np.clip is np.minimum then np.maximum entry by
    entry, and exp(+-0.0) is 1, so the bytes are those of clamping at 0,
    zeroing the diagonal and then :func:`_exp_dropping_tiny`."""
    diagonal = slice(start, None, e.shape[1] + 1)
    if e.min() >= _EXP_KEEP_MIN:
        np.minimum(e, 0.0, out=e)
        e.reshape(-1)[diagonal] = 0.0
        return np.exp(e, out=e)
    np.greater_equal(e, _EXP_KEEP_MIN, out=keep)
    np.clip(e, _EXP_KEEP_MIN, 0.0, out=e)
    e.reshape(-1)[diagonal] = 0.0
    keep.reshape(-1)[diagonal] = True
    np.exp(e, out=e)
    return np.multiply(e, keep, out=e)


# K(x, x) as ``gram`` writes it.
_GRAM_DIAGONAL = {GAUSSIAN: 1.0, NEGATIVE_EUCLIDEAN: 0.0}


def gram(points, kernel: KernelConfig) -> np.ndarray:
    """Full kernel matrix K[i, j] = K(x_i, x_j); exactly symmetric, and the
    Gaussian case has a unit diagonal."""
    points = _check_array(points, "points", 2)
    out = _kernel_from_squared(squared_distances(points, points), kernel)
    np.fill_diagonal(out, _GRAM_DIAGONAL[kernel.kind])
    return out


def cross_gram(a, b, kernel: KernelConfig) -> np.ndarray:
    """Rectangular kernel matrix C[i, j] = K(a_i, b_j)."""
    # squared_distances rejects a dimension mismatch
    sq = squared_distances(_check_array(a, "a", 2), _check_array(b, "b", 2))
    return _kernel_from_squared(sq, kernel)


def weighted_differences(x: np.ndarray, y: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Row i is sum_j w_ij (x_i - y_j), computed as
    x_i * sum_j w_ij - sum_j w_ij y_j (einsum without BLAS, so deterministic).

    The free-energy gradients' bytes depend on this summation order."""
    return x * w.sum(axis=1)[:, None] - np.einsum("ij,jd->id", w, y)


def gaussian_self_sums(
    points: np.ndarray, bandwidth: float, values: Optional[np.ndarray] = None
) -> Union[Tuple[float, np.ndarray], Tuple[float, np.ndarray, np.ndarray]]:
    """The Gaussian kernel sum sum_ij K(x_i, x_j) over one point cloud and
    the rows sum_j K(x_i, x_j) (x_i - x_j), without an N x N Gram; given an
    (N, k) array ``values``, also the rows sum_j K(x_i, x_j) v_j, as a third
    result.

    With the points centred on their mean, x~ = x - m, u = x~ / h and s_i =
    |u_i|^2 / 2, the exponent -|x_i - x_j|^2 / 2h^2 is u_i . u_j - s_i - s_j.
    Per row block, one product [u | -s | 1] @ [u | 1 | -s]^T gives the
    exponents, clamped at <= 0 with the diagonal set to exactly 0, one
    exponential per entry gives the kernel values k, those below exp(-707)
    set to 0, and a second product k @ [1 | x~ | v] gives the row sums r_i,
    sum_j k_ij x~_j and sum_j k_ij v_j, so that row i is x~_i r_i - sum_j
    k_ij x~_j.  A single point gives exactly 1.0 and a zero row.  Without
    ``values`` the second product is k @ [1 | x~], and its bytes are those
    of a call that never had the argument.  The free energy's Gaussian
    square term takes the sum and rows; an SVGD step takes all three, the
    rows being h^2 times its repulsion and the third result its drift.

    Declared bound: with S_ij = (|x~_i|^2 + |x~_j|^2) / 2h^2, eps the float
    spacing at 1 and E_ij = eps ((2d + 8)(1 + S_ij) + 2N + 4) K_ij +
    exp(-706), the sum is within sum_ij E_ij of the exact sum over the input
    floats, entry (i, a) of the rows within sum_j E_ij (|x~_ia| + |x~_ja|)
    of the exact one, and entry (i, a) of sum_j K_ij v_j within sum_j E_ij
    |v_ja| (``tests/test_kernels.py``).  The (1 + S_ij) part covers the
    rounding of the exponents, whose terms grow with S_ij while the kernel
    value does not; the 2N part covers the sums over j and i.  Centring
    keeps S_ij at the cloud's own scale wherever it lies.  The bound needs
    S_ij to be finite; points whose |x~| / h overflows when squared give
    NaN.  Row blocks keep each product at most _SERIAL_PRODUCT multiply-adds,
    so the bytes do not depend on the BLAS thread count.
    """
    n, d = points.shape
    centred = points - points.mean(axis=0)
    scaled = centred / bandwidth
    half_sq = 0.5 * np.einsum("nd,nd->n", scaled, scaled)
    ones = np.ones(n)
    left = np.column_stack([scaled, -half_sq, ones])
    right = np.column_stack([scaled, ones, -half_sq])
    weights = np.column_stack([ones, centred] + ([] if values is None else [values]))
    sums = np.empty((n, weights.shape[1]))
    rows = max(1, _SERIAL_PRODUCT // max(1, n * max(d + 2, weights.shape[1])))
    block = np.empty((min(rows, n), n))
    keep = np.empty(block.shape, dtype=bool)
    for start in range(0, n, rows):
        stop = min(start + rows, n)
        e = block[: stop - start]
        np.matmul(left[start:stop], right.T, out=e)
        _self_kernel_block(e, start, keep[: stop - start])
        np.matmul(e, weights, out=sums[start:stop])
    total = float(sums[:, 0].sum())
    differences = centred * sums[:, :1] - sums[:, 1 : d + 1]
    if values is None:
        return total, differences
    return total, differences, sums[:, d + 1 :]
