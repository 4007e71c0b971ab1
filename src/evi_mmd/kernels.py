"""Kernel evaluations, Gram matrices, and analytic kernel gradients.

Everything here is pure and deterministic.  Squared distances accumulate
one coordinate at a time with in-place ufuncs (no einsum, no BLAS), so
results are bit-identical across runs and thread settings.  At d <= 2 they
also round exactly as the einsum formula ``sum_j (a_j - b_j)**2`` evaluated
by ``np.einsum("ijd,ijd->ij")`` does; at d >= 3 that einsum groups its sum
differently, and the two agree to rtol 1e-13 (``tests/test_kernels.py``).
Gram matrices are materialized in full; particle counts in this package stay
in the hundreds, so O(N^2 d) is fine.  (The evaluation metrics sum the
thousands-row reference Gram block by block instead, through
:func:`_squared_distances_into` and :func:`_kernel_from_squared`.)

The Gaussian kernel's exponentials go through :func:`_exp_inplace`, which
returns the bytes of ``np.exp`` but keeps arguments below -708 out of its
vector loop: there ``np.exp`` takes a scalar path 20-150x slower per entry,
and at small bandwidths most Gram entries land there.  Arguments below -750,
where ``np.exp`` is exactly +0.0, become 0.0; the thin shell in between is
exponentiated on its own (``tests/test_kernels.py`` checks the bytes and the
+0.0 threshold of the installed numpy).

Every free-energy kernel-sum gradient has the one form
sum_j w_ij (x_i - y_j), computed by :func:`weighted_differences`.
"""

from __future__ import annotations

import numpy as np

from .errors import InvalidArgumentError, UnsupportedOperationError
from .model import GAUSSIAN, NEGATIVE_EUCLIDEAN, KernelConfig, _check_positive

# Rows of ``a`` per chunk; bounds the scratch buffer at chunk * M floats.
_CHUNK = 256

# Below about _EXP_FAST_MIN, where its results near the subnormal range,
# np.exp leaves its vector loop; below _EXP_ZERO_BELOW it returns exactly
# +0.0 (numpy's own zero threshold is -745.13).
_EXP_FAST_MIN = -708.0
_EXP_ZERO_BELOW = -750.0


def _check_vector(x, name: str) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    if x.ndim != 1:
        raise InvalidArgumentError(f"{name} must be a 1-d vector, got shape {x.shape}")
    if not np.all(np.isfinite(x)):
        raise InvalidArgumentError(f"{name} contains non-finite entries")
    return x


def _check_matrix(x, name: str) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    if x.ndim != 2:
        raise InvalidArgumentError(f"{name} must be a 2-d matrix, got shape {x.shape}")
    if not np.all(np.isfinite(x)):
        raise InvalidArgumentError(f"{name} contains non-finite entries")
    return x


def _check_sample(x, name: str) -> np.ndarray:
    """:func:`_check_matrix` for a sample, which must also be nonempty."""
    x = np.asarray(x, dtype=float)
    if x.size == 0:
        raise InvalidArgumentError(f"{name} must be nonempty")
    return _check_matrix(x, name)


def gauss_eval(x, y, h) -> float:
    """Gaussian kernel exp(-|x - y|^2 / (2 h^2)); value in (0, 1]."""
    x = _check_vector(x, "x")
    y = _check_vector(y, "y")
    h = _check_positive(h, "bandwidth")
    sq = float(np.sum((x - y) ** 2))
    return float(np.exp(-sq / (2.0 * h * h)))


def gauss_grad_x(x, y, h) -> np.ndarray:
    """Gradient of the Gaussian kernel in its first argument:
    -(x - y) / h^2 * exp(-|x - y|^2 / (2 h^2))."""
    x = _check_vector(x, "x")
    y = _check_vector(y, "y")
    h = _check_positive(h, "bandwidth")
    diff = x - y
    val = np.exp(-float(np.sum(diff**2)) / (2.0 * h * h))
    return -diff / (h * h) * val


def neg_euclid_eval(x, y) -> float:
    """Energy-distance generator -|x - y|_2 (non-positive, 0 iff x == y)."""
    x = _check_vector(x, "x")
    y = _check_vector(y, "y")
    sq = float(np.sum((x - y) ** 2))
    return -float(np.sqrt(max(sq, 0.0)))


def squared_distances(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """All pairwise squared Euclidean distances between rows of a and b.

    Accumulates ``(a[:, j] - b[:, j])**2`` over coordinates j in order, a
    chunk of rows of ``a`` at a time so the scratch buffer stays at
    ``_CHUNK * M`` floats however many rows ``a`` has.
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
    term = np.empty((min(n, _CHUNK), m))
    for start in range(0, n, _CHUNK):
        rows = slice(start, start + _CHUNK)
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
    """Pairwise Euclidean distances, computed as sqrt of squared norms
    clamped at zero so round-off cannot leak under the sqrt."""
    return _clamped_sqrt(squared_distances(a, b))


def _clamped_sqrt(sq: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """sqrt(max(sq, 0)) into ``out`` (in place by default)."""
    out = np.maximum(sq, 0.0, out=sq if out is None else out)
    return np.sqrt(out, out=out)


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
    buffer."""
    out = sq if out is None else out
    if kernel.kind == GAUSSIAN:
        # Same bytes as negating first: IEEE division is sign-symmetric.
        np.divide(sq, -2.0 * kernel.bandwidth**2, out=out)
        return _exp_inplace(out)
    if kernel.kind == NEGATIVE_EUCLIDEAN:
        return np.negative(_clamped_sqrt(sq, out), out=out)
    raise UnsupportedOperationError(f"unknown kernel kind {kernel.kind!r}")


# K(x, x) as ``gram`` writes it.
_GRAM_DIAGONAL = {GAUSSIAN: 1.0, NEGATIVE_EUCLIDEAN: 0.0}


def gram(points, kernel: KernelConfig) -> np.ndarray:
    """Full kernel matrix K[i, j] = K(x_i, x_j); exactly symmetric, and the
    Gaussian case has a unit diagonal."""
    points = _check_matrix(points, "points")
    out = _kernel_from_squared(squared_distances(points, points), kernel)
    np.fill_diagonal(out, _GRAM_DIAGONAL[kernel.kind])
    return out


def cross_gram(a, b, kernel: KernelConfig) -> np.ndarray:
    """Rectangular kernel matrix C[i, j] = K(a_i, b_j)."""
    # squared_distances rejects a dimension mismatch
    sq = squared_distances(_check_matrix(a, "a"), _check_matrix(b, "b"))
    return _kernel_from_squared(sq, kernel)


def weighted_differences(x: np.ndarray, y: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Row i is sum_j w_ij (x_i - y_j), computed as
    x_i * sum_j w_ij - sum_j w_ij y_j (einsum without BLAS, so deterministic).

    The free-energy gradients' bytes depend on this summation order."""
    return x * w.sum(axis=1)[:, None] - np.einsum("ij,jd->id", w, y)
