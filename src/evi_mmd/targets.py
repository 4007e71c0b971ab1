"""Built-in target distributions with densities, gradients, and exact samplers.

The three 2-d toys (a star-shaped five-component mixture, an eight-component
ring mixture, and a wave-shaped density) plus an isotropic Gaussian of any
dimension.  Densities and gradients are batched: (n, d) in, (n,) / (n, d) out.
A mixture evaluates points with plain ufunc arithmetic, all components in
one vectorised pass that still sums in component order and coordinate
order, and the N·L probes of the density-branch cross term with two matrix
products and one exponential per probe for each group of components that
share a covariance; the probes' per-particle sums agree with the point
evaluation within a declared bound (:class:`GaussianMixture`).  That sweep
comes in two stages: what depends on the offsets alone is prepared once, and
each sweep of the particles reuses it byte for byte.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

from .errors import InvalidArgumentError
from .kernels import _SERIAL_PRODUCT, _exp_dropping_tiny
from .model import (
    DensityTarget,
    ShiftedSums,
    _check_count,
    _check_offsets,
    _check_particles,
    _check_positive,
    _frozen_array,
)

_WEIGHT_TOL = 1e-12
# Points per pass of the point sweep: as many as keep each of its three
# (d, K, rows) scratch buffers at _SWEEP_FLOATS floats (256 KiB), at most
# _SWEEP_ROWS, so a pass stays in a core's L2 cache.  On a 2 MiB-L2 Xeon
# (one BLAS thread, best of 7-15), 200 eight-ring points took 38 us against
# 95 us one component at a time.  Large batches lose to the per-component
# loop, whose ufunc calls each cover more points: 100k eight-ring points
# took 97 ns a point in these 2048-row passes (92-101 from 1024 to 8192
# rows) against 73 ns one component at a time in 8192-row passes, and a
# four-component mixture in d = 10 took 1.9 times as long.  No sampler
# sweeps such a batch: SVGD and Langevin sweep the N particles each step.
_SWEEP_ROWS = 8192
_SWEEP_FLOATS = 1 << 15
# Bytes of one (rows, L) exponent block of the shifted sweep: its scratch and
# output rows then stay in a core's L2 cache, and its scratch does not grow
# with N·L.  At N = 200, L = 500 on a 2 MiB-L2 Xeon, 256 KiB blocks swept the
# star mixture in about 1.9 ms, 64 KiB blocks in 2.5 ms and 1 MiB blocks (all
# 200 rows) in 2.0 ms.
_BLOCK_BYTES = 1 << 18
# A group's shifted exponentials are at most exp(max_k log norm_k +
# min(a_spread, c_spread)), where a_spread = max_i (max_k a_ik - min_k a_ik)
# and c_spread = max_l (max_k c_kl - min_k c_kl).  Where that bound exceeds
# exp(_SHIFT_SPREAD) the group is swept one component at a time, so that no
# exponential overflows and a term whose factor is dropped is below
# exp(_SHIFT_SPREAD - 707), about 3e-47.  Without the split, particles and
# offsets at scale 10 gave non-finite eight-mixture sums.
_SHIFT_SPREAD = 600.0


def _sweep_rows(n_components: int, dim: int) -> int:
    """Points per pass of a mixture's point sweep."""
    return max(1, min(_SWEEP_ROWS, _SWEEP_FLOATS // (n_components * dim)))


@dataclass(frozen=True)
class GaussianMixture:
    """Mixture of K Gaussians with full covariances.

    Validates that the weights form a probability vector and every covariance
    is symmetric positive definite; precomputed inverses, Cholesky factors,
    and normalizing constants make batched evaluation cheap.

    Point evaluations (:meth:`density`, :meth:`grad_density`,
    :meth:`density_and_grad`) sum over components in component order, and
    every sum over coordinates runs in coordinate order from the j = 0 term,
    with plain ufunc arithmetic (no einsum, no BLAS).  Each pass evaluates
    all K components at once on (d, K, m) arrays and reduces over them in
    order; its bytes are those of a loop over the components that
    accumulates 0 + c_0 + c_1 + ... and 0 - t_0 - t_1 - ...
    (``tests/test_targets.py``).  At d <= 2 the results
    are bit-identical to the einsum formula ``pulled = einsum("nd,de->ne", x
    - mean, inv)``, ``quad = einsum("nd,nd->n", x - mean, pulled)``; at d >= 3
    einsum groups those sums differently, and the two agree to rtol 1e-13
    (``tests/test_targets.py``).

    :meth:`shifted_sweep` is the density-branch cross term's evaluation,
    prepared once for a set of offsets and then called on the particles.  The
    mixture groups the components by bitwise-equal covariance once, at
    construction (a zero-weight component joins no group), and indexes their
    means, precisions and log norms in group order there.  The sweep factors
    each exponent at the probes x_i + o_l into a particle part, a cross part
    and an offset part, the last prepared with the offsets, and sweeps each
    group with two BLAS matrix products and one exponential per probe,
    without building the probes.  It does not return the bytes of
    :meth:`density_and_grad` on the probe matrix followed by sums over l;
    each per-particle density sum and gradient sum v agrees with that
    reference r within |v - r| <= 1e-10 |r| + 1e-11 max|r|, the maximum
    taken over all density sums or over all gradient sums.  Terms
    below exp(-707), about 9.1e-308, are dropped, and so are terms below
    about 3e-47 whose factored parts underflow (``_SHIFT_SPREAD``).  Its
    bytes do not depend on the memory layout of its inputs or on the BLAS
    thread count (``_SERIAL_PRODUCT``; tested at d = 2 and 10).
    """

    weights: np.ndarray
    means: np.ndarray
    covariances: np.ndarray

    def __post_init__(self):
        w = _frozen_array(self.weights, "weights", ndim=1)
        mu = _frozen_array(self.means, "means", ndim=2)
        cov = _frozen_array(self.covariances, "covariances", ndim=3)
        k, d = mu.shape
        if w.shape[0] != k or cov.shape != (k, d, d):
            raise InvalidArgumentError(
                f"inconsistent component shapes: weights {w.shape}, means {mu.shape}, "
                f"covariances {cov.shape}"
            )
        if np.any(w < 0) or abs(float(w.sum()) - 1.0) > _WEIGHT_TOL:
            raise InvalidArgumentError(
                f"weights must be non-negative and sum to 1, got sum {float(w.sum())!r}"
            )
        if not np.allclose(cov, np.swapaxes(cov, 1, 2), rtol=0, atol=1e-12):
            raise InvalidArgumentError("covariances must be symmetric")
        try:
            chol = np.linalg.cholesky(cov)
        except np.linalg.LinAlgError as exc:
            raise InvalidArgumentError("covariances must be positive definite") from exc
        object.__setattr__(self, "covariances", cov)
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "means", mu)
        # Cached factors; dataclass is frozen so attach via object.__setattr__.
        inv = np.linalg.inv(cov)
        dets = np.prod(np.einsum("kii->ki", chol), axis=1) ** 2
        norm = w / ((2.0 * np.pi) ** (d / 2.0) * np.sqrt(dets))
        object.__setattr__(self, "_chol", chol)
        object.__setattr__(self, "_inv", inv)
        object.__setattr__(self, "_norm", norm)
        # Live components grouped by bitwise-equal covariance, in component
        # order; a zero-weight component adds exactly 0 and joins no group.
        groups = {}
        for k in np.flatnonzero(norm > 0.0):
            groups.setdefault(cov[k].tobytes(), []).append(k)
        groups = [np.array(g) for g in groups.values()]
        # The shifted sweep's layout: the live components in group order, the
        # group bounds in it, each group's center m (the mean of its means,
        # so that a group far from the origin keeps its exponents' rounding at
        # the scale of x - m) and each component's (mu_k - m) P.
        # The live components' means, precisions and log norms in that order,
        # and each group's precision, are indexed once here.
        sizes = [g.size for g in groups]
        order = np.concatenate(groups) if groups else np.empty(0, dtype=int)
        bounds = np.cumsum([0] + sizes).tolist()
        centers = np.array([mu[g].mean(axis=0) for g in groups]).reshape(-1, d)
        centered = mu[order] - np.repeat(centers, sizes, axis=0)
        live_inv = inv[order]
        object.__setattr__(self, "_order", order)
        object.__setattr__(self, "_bounds", bounds)
        object.__setattr__(self, "_centers", centers)
        object.__setattr__(self, "_center_pull", np.einsum("kd,kde->ke", centered, live_inv))
        object.__setattr__(self, "_live_means", mu[order])
        object.__setattr__(self, "_live_inv", live_inv)
        object.__setattr__(self, "_live_log_norm", np.log(norm[order]))
        object.__setattr__(self, "_group_inv", live_inv[bounds[:-1]])

    @property
    def n_components(self) -> int:
        return self.means.shape[0]

    @property
    def dim(self) -> int:
        return self.means.shape[1]

    def _sweep(self, coords: np.ndarray, with_grad: bool) -> Tuple[np.ndarray, np.ndarray]:
        """Density (m,) and transposed gradient (d, m) at the m columns of
        ``coords``, all K components at once in scratch buffers of (d, K, m)
        floats."""
        d, m = coords.shape
        if m == 1:
            # With one column numpy would reduce along the components with its
            # pairwise sum; two equal columns keep the sums sequential.
            dens, grad_t = self._sweep(np.repeat(coords, 2, axis=1), with_grad)
            return dens[:1], None if grad_t is None else grad_t[:, :1]
        diff, pulled, prod = np.empty((3, d, self.n_components, m))
        comp = np.empty((self.n_components, m))
        np.subtract(coords[:, None, :], self.means.T[:, :, None], out=diff)
        # pulled[e, k] = sum_j diff[j, k] * inv[k, j, e]
        inv = self._inv.transpose(1, 2, 0)[..., None]
        np.multiply(diff[0], inv[0], out=pulled)
        for j in range(1, d):
            pulled += np.multiply(diff[j], inv[j], out=prod)
        # comp[k] = norm_k * exp(-0.5 * sum_j diff[j, k] * pulled[j, k])
        np.multiply(diff[0], pulled[0], out=comp)
        for j in range(1, d):
            comp += np.multiply(diff[j], pulled[j], out=diff[j])
        comp *= -0.5
        np.exp(comp, out=comp)
        comp *= self._norm[:, None]
        # A reduce over an axis other than the last adds its slices in order,
        # so the sums run in component order.  comp is never -0.0, so c_0 +
        # c_1 + ... has the bytes of 0 + c_0 + c_1 + ..., and 0 - (t_0 + t_1
        # + ...) those of 0 - t_0 - t_1 - ... (+0.0 where the sum is zero).
        dens = np.add.reduce(comp, axis=0)
        if not with_grad:
            return dens, None
        grad_t = np.add.reduce(np.multiply(comp, pulled, out=prod), axis=1)
        return dens, np.subtract(0.0, grad_t, out=grad_t)

    def _at_points(self, x, with_grad: bool) -> Tuple[np.ndarray, np.ndarray]:
        # Each pass hands ``_sweep`` the transposed (d, rows) view, which its
        # first subtraction copies to coordinate-major scratch.  The gradient
        # is laid out like ``x``.
        x = np.atleast_2d(np.asarray(x, dtype=float))
        if x.ndim != 2 or x.shape[1] != self.dim:
            raise InvalidArgumentError(f"probes must be n x {self.dim}, got shape {x.shape}")
        vals = np.empty(x.shape[0])
        grads = np.empty_like(x) if with_grad else None
        rows = _sweep_rows(self.n_components, self.dim)
        for start in range(0, x.shape[0], rows):
            chunk = slice(start, start + rows)
            vals[chunk], grad_t = self._sweep(x[chunk].T, with_grad)
            if with_grad:
                grads[chunk] = grad_t.T
        return vals, grads

    def density(self, x: np.ndarray) -> np.ndarray:
        return self._at_points(x, with_grad=False)[0]

    def grad_density(self, x: np.ndarray) -> np.ndarray:
        return self._at_points(x, with_grad=True)[1]

    def density_and_grad(self, x: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        return self._at_points(x, with_grad=True)

    def shifted_sweep(self, offsets) -> ShiftedSums:
        """The sweep over particles x of the (N,) sums over l of the density
        at the N·L probes x_i + o_l and the (N, d) sums over l of their
        gradients, without an (N·L, d) probe matrix, with the offsets' parts
        prepared here once (:class:`_PreparedShifts`)."""
        return _PreparedShifts(self, _check_offsets(offsets, self.dim))

    def sample(self, rng: np.random.Generator, n: int) -> np.ndarray:
        return mixture_sampler(self, n, rng)


class _PreparedShifts:
    """A mixture's shifted sweep with the offsets' parts prepared once.

    For a group of components with one precision P and center m, the mean of
    their means, component k's log-density at a probe is a_ik + G_il + c_kl,
    where delta_ik = x_i - mu_k, a_ik = -delta_ik P delta_ik / 2 + log
    norm_k, G_il = -(x_i - m) P o_l and c_kl = (mu_k - m) P o_l - o_l P o_l
    / 2.  With alpha_i = max_k a_ik and gamma_l = max_k c_kl, the term is
    E_a,ik e_il E_c,kl, where E_a = exp(a - alpha), E_c = exp(c - gamma) and
    e_il = exp(G_il + alpha_i + gamma_l).  Per row block, one product
    [-(x - m) P | alpha | 1] @ [O | 1 | gamma]^T gives the exponents of e,
    one exponential per probe gives e, and a second product, e @ [E_c^T |
    E_c^T o], gives T_ik = sum_l e_il E_c,kl and U_ik = sum_l e_il E_c,kl
    o_l.  The density sums are sum_k E_a,ik T_ik and the gradient sums
    -sum_k E_a,ik (T_ik delta_ik + U_ik) P.

    A group whose shifts could underflow a factor is swept one component at
    a time (``_SHIFT_SPREAD``); that test reads a, so it is made per sweep.
    The offsets' parts are therefore prepared in both layouts: c and its
    spread per group, and for whole groups gamma, E_c, [O | 1 | gamma] and
    [E_c^T | E_c^T o]; for one component, gamma = c_k and E_c = 1 exactly,
    so [O | 1 | c_k] and [1 | o].  Each sweep returns the bytes of a sweep
    that prepares afresh.
    """

    def __init__(self, mixture: GaussianMixture, offsets: np.ndarray):
        offsets = np.ascontiguousarray(offsets)
        (n_off, d), bounds = offsets.shape, mixture._bounds
        n_live = mixture._order.size
        c = mixture._center_pull @ offsets.T
        c -= 0.5 * np.einsum("kld,ld->kl", offsets @ mixture._live_inv, offsets)
        gamma = np.maximum.reduceat(c, bounds[:-1]) if n_live else c
        e_c = _exp_dropping_tiny(c - gamma.repeat(np.diff(bounds), axis=0))

        def right_with(last: np.ndarray) -> np.ndarray:
            # Row p is [O | 1 | last_p].
            right = np.empty((last.shape[0], n_off, d + 2))
            right[..., :d] = offsets
            right[..., d] = 1.0
            right[..., d + 1] = last
            return right

        # Component k's columns of the weights are k (d+1) to (k+1) (d+1).
        weights = np.empty((n_off, n_live, d + 1))
        weights[..., 0] = e_c.T
        np.multiply(e_c.T[..., None], offsets[:, None, :], out=weights[..., 1:])
        self._mixture = mixture
        self._spread = [np.ptp(c[lo:hi], axis=0).max() for lo, hi in zip(bounds, bounds[1:])]
        # Group g's row of ``_right`` and component k's of ``_right_one``.
        self._right, self._right_one = right_with(gamma), right_with(c)
        self._weights = weights.reshape(n_off, -1)
        self._weights_one = np.tile(np.column_stack([np.ones(n_off), offsets]), n_live)

    def __call__(self, x) -> Tuple[np.ndarray, np.ndarray]:
        mixture = self._mixture
        x = np.ascontiguousarray(_check_particles(x, mixture.dim))
        (n, d), n_off, bounds = x.shape, self._weights.shape[0], mixture._bounds
        n_live, inv, log_norm = mixture._order.size, mixture._live_inv, mixture._live_log_norm
        if n_live == 0:
            return np.zeros(n), np.zeros((n, d))
        diff = x - mixture._live_means[:, None, :]
        a = -0.5 * np.einsum("knd,knd->kn", diff, diff @ inv) + log_norm[:, None]
        # The sweep's parts: whole groups, and each component of a group
        # whose shifted exponentials could exceed exp(_SHIFT_SPREAD).
        parts, part_groups, one = [], [], []
        for g, (lo, hi) in enumerate(zip(bounds, bounds[1:])):
            wide = hi - lo > 1 and log_norm[lo:hi].max() + min(
                np.ptp(a[lo:hi], axis=0).max(initial=0.0), self._spread[g]
            ) > _SHIFT_SPREAD
            starts = range(lo, hi) if wide else [lo]
            parts += starts
            part_groups += [g] * len(starts)
            one += [wide] * len(starts)
        cuts = parts + [n_live]
        alpha = np.maximum.reduceat(a, parts)
        e_a = _exp_dropping_tiny(a - alpha.repeat(np.diff(cuts), axis=0))
        left = np.empty((len(parts), n, d + 2))
        left[..., :d] = ((mixture._centers[:, None, :] - x) @ mixture._group_inv)[part_groups]
        left[..., d] = alpha
        left[..., d + 1] = 1.0
        sums = np.empty((n, n_live * (d + 1)))
        rows = max(1, _BLOCK_BYTES // (8 * n_off))
        block = np.empty((min(rows, n), n_off))
        keep = np.empty(block.shape, dtype=bool)
        for p, (lo, hi) in enumerate(zip(cuts, cuts[1:])):
            right = self._right_one[lo] if one[p] else self._right[part_groups[p]]
            weights = self._weights_one if one[p] else self._weights
            # Components and rows per second product (_SERIAL_PRODUCT): all
            # of the part's components wherever one row of them fits.
            step = max(1, min(hi - lo, _SERIAL_PRODUCT // (n_off * (d + 1))))
            slab = max(1, _SERIAL_PRODUCT // (n_off * step * (d + 1)))
            for start in range(0, n, rows):
                stop = min(start + rows, n)
                e = block[: stop - start]
                np.matmul(left[p, start:stop], right.T, out=e)
                _exp_dropping_tiny(e, keep[: stop - start])
                out = sums[start:stop]
                for r in range(0, stop - start, slab):
                    for k in range(lo, hi, step):
                        cols = slice(k * (d + 1), min(k + step, hi) * (d + 1))
                        np.matmul(e[r : r + slab], weights[:, cols], out=out[r : r + slab, cols])
        sums = sums.reshape(n, n_live, d + 1)
        weighted = e_a.T * sums[..., 0]
        pulled_sums = weighted[..., None] * diff.transpose(1, 0, 2) + e_a.T[..., None] * sums[..., 1:]
        return weighted.sum(axis=1), -np.einsum("nkd,kde->ne", pulled_sums, inv)


def mixture_sampler(target: GaussianMixture, n: int, rng: np.random.Generator) -> np.ndarray:
    """n i.i.d. draws: categorical component choice, then a Cholesky transform
    of standard normals.  Deterministic given the generator state."""
    n = _check_count(n, "n")
    comp = rng.choice(target.n_components, size=n, p=target.weights)
    z = rng.standard_normal((n, target.dim))
    return target.means[comp] + np.einsum("nde,ne->nd", target._chol[comp], z)


def _target_from_mixture(mixture: GaussianMixture, box: Tuple[float, float]) -> DensityTarget:
    lower = np.full(mixture.dim, box[0], dtype=float)
    upper = np.full(mixture.dim, box[1], dtype=float)
    return DensityTarget(
        density=mixture.density,
        grad_density=mixture.grad_density,
        domain_box=(lower, upper),
        exact_sampler=mixture.sample,
        density_and_grad=mixture.density_and_grad,
        shifted_sweep=mixture.shifted_sweep,
    )


def star_mixture() -> DensityTarget:
    """Five-armed star: equally weighted Gaussians whose means and elongated
    covariances are successive rotations (by 2*pi/5) of (1.5, 0) and
    diag(1, 0.01).  Initialization box [-2, 2]^2."""
    theta = 2.0 * np.pi / 5.0
    rot = np.array(
        [[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]]
    )
    base_mean = np.array([1.5, 0.0])
    base_cov = np.diag([1.0, 0.01])
    means, covs = [], []
    r_pow = np.eye(2)
    for _ in range(5):
        means.append(r_pow @ base_mean)
        covs.append(r_pow @ base_cov @ r_pow.T)
        r_pow = rot @ r_pow
    mixture = GaussianMixture(
        weights=np.full(5, 0.2), means=np.array(means), covariances=np.array(covs)
    )
    return _target_from_mixture(mixture, (-2.0, 2.0))


EIGHT_MIXTURE_MEANS = np.array(
    [
        (0.0, 4.0),
        (2.8, 2.8),
        (4.0, 0.0),
        (-2.8, 2.8),
        (-4.0, 0.0),
        (-2.8, -2.8),
        (0.0, -4.0),
        (2.8, -2.8),
    ]
)


def eight_mixture() -> DensityTarget:
    """Eight equally weighted Gaussians on a ring of radius ~4 with shared
    covariance 0.2 * I.  Initialization box [-4, 4]^2."""
    covs = np.repeat(0.2 * np.eye(2)[None, :, :], 8, axis=0)
    mixture = GaussianMixture(
        weights=np.full(8, 0.125), means=EIGHT_MIXTURE_MEANS, covariances=covs
    )
    return _target_from_mixture(mixture, (-4.0, 4.0))


_WAVE_CONST = 9.93  # literal normalizer; the exact value is pi * sqrt(10)


def _wave_terms(x: np.ndarray) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """x1, the residual x2 - sin(pi x1) and the density at each row of x."""
    x = np.atleast_2d(np.asarray(x, dtype=float))
    x1 = x[:, 0]
    resid = x[:, 1] - np.sin(np.pi * x1)
    return x1, resid, np.exp(-0.1 * x1**2 - resid**2) / _WAVE_CONST


def _wave_density(x: np.ndarray) -> np.ndarray:
    return _wave_terms(x)[2]


def _wave_density_and_grad(x: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    x1, resid, rho = _wave_terms(x)
    g1 = rho * (-0.2 * x1 + 2.0 * np.pi * np.cos(np.pi * x1) * resid)
    g2 = rho * (-2.0 * resid)
    return rho, np.stack([g1, g2], axis=1)


def _wave_grad(x: np.ndarray) -> np.ndarray:
    return _wave_density_and_grad(x)[1]


def _wave_sampler(rng: np.random.Generator, n: int) -> np.ndarray:
    # The density factorizes as N(x1; 0, 5) * N(x2; sin(pi x1), 1/2) up to
    # the rounded normalizer, so exact sampling is a two-stage draw.
    n = _check_count(n, "n")
    x1 = rng.normal(0.0, np.sqrt(5.0), size=n)
    x2 = np.sin(np.pi * x1) + rng.normal(0.0, np.sqrt(0.5), size=n)
    return np.stack([x1, x2], axis=1)


def wave_density() -> DensityTarget:
    """Wave-shaped density 9.93^-1 exp(-0.1 x1^2 - (x2 - sin(pi x1))^2) on
    initialization box [-3, 3]^2.  The literal 9.93 normalizer is kept; it is
    ~0.05% away from the exact constant, which the discrepancy estimators
    absorb as a scale factor."""
    lower = np.full(2, -3.0)
    upper = np.full(2, 3.0)
    return DensityTarget(
        density=_wave_density,
        grad_density=_wave_grad,
        domain_box=(lower, upper),
        exact_sampler=_wave_sampler,
        density_and_grad=_wave_density_and_grad,
    )


def isotropic_gaussian(d: int, sigma: float = 1.0) -> DensityTarget:
    """N(0, sigma^2 I_d) with exact sampler; initialization box [-2, 2]^d."""
    d = _check_count(d, "d")
    sigma = _check_positive(sigma, "sigma")
    mixture = GaussianMixture(
        weights=np.ones(1),
        means=np.zeros((1, d)),
        covariances=(sigma**2 * np.eye(d))[None, :, :],
    )
    return _target_from_mixture(mixture, (-2.0, 2.0))
