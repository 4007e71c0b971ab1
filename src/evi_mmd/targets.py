"""Built-in target distributions with densities, gradients, and exact samplers.

The three 2-d toys (a star-shaped five-component mixture, an eight-component
ring mixture, and a wave-shaped density) plus an isotropic Gaussian of any
dimension.  Densities and gradients are batched: (n, d) in, (n,) / (n, d) out.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

from .errors import InvalidArgumentError
from .model import DensityTarget, _check_positive, _check_shifts, _frozen_array

_WEIGHT_TOL = 1e-12
# Probe rows per pass of the mixture sweep: the pass's (d, rows) scratch
# buffers then stay in a core's L2 cache.  On a 2 MiB-L2 Xeon, 100k 2-d probes
# swept at once ran about twice as slow as in 8192-row passes.
_SWEEP_ROWS = 8192


@dataclass(frozen=True)
class GaussianMixture:
    """Mixture of K Gaussians with full covariances.

    Validates that the weights form a probability vector and every covariance
    is symmetric positive definite; precomputed inverses, Cholesky factors,
    and normalizing constants make batched evaluation cheap.

    Densities and gradients are summed over components in component order,
    and every sum over coordinates runs in coordinate order from the j = 0
    term, with plain ufunc arithmetic (no einsum, no BLAS).  At d <= 2 the
    results are bit-identical to the einsum formula ``pulled =
    einsum("nd,de->ne", x - mean, inv)``, ``quad = einsum("nd,nd->n", x -
    mean, pulled)``; at d >= 3 einsum groups those sums differently, and the
    two agree to rtol 1e-13 (``tests/test_targets.py``).

    :meth:`shifted_density_and_grad` is the density-branch cross term's
    evaluation: it sweeps the probes x_i + o_l of whole particles per pass,
    built coordinate by coordinate in one reused buffer, and sums each
    particle's gradients over l inside the pass.  Its output bytes equal
    :meth:`density_and_grad` on the probe matrix followed by
    ``reshape(N, L, d).sum(axis=1)``.  Point evaluations run the same
    passes with the one offset 0.
    """

    weights: np.ndarray
    means: np.ndarray
    covariances: np.ndarray

    def __post_init__(self):
        w = _frozen_array(self.weights, "weights", ndim=1)
        mu = _frozen_array(self.means, "means", ndim=2)
        cov = np.array(self.covariances, dtype=float)
        if cov.ndim != 3:
            raise InvalidArgumentError(f"covariances must be K x d x d, got {cov.shape}")
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
        cov.setflags(write=False)
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

    @property
    def n_components(self) -> int:
        return self.means.shape[0]

    @property
    def dim(self) -> int:
        return self.means.shape[1]

    def _sweep(self, coords: np.ndarray, with_grad: bool) -> Tuple[np.ndarray, np.ndarray]:
        """Density (m,) and transposed gradient (d, m) at the m columns of
        ``coords``, in place in scratch buffers of (d, m) floats."""
        d, m = coords.shape
        diff, pulled, prod = np.empty((3, d, m))
        comp = np.empty(m)
        dens = np.zeros(m)
        grad_t = np.zeros((d, m)) if with_grad else None
        for k in range(self.n_components):
            inv = self._inv[k]
            np.subtract(coords, self.means[k][:, None], out=diff)
            # pulled[e] = sum_j diff[j] * inv[j, e]
            np.multiply(diff[0], inv[0][:, None], out=pulled)
            for j in range(1, d):
                np.multiply(diff[j], inv[j][:, None], out=prod)
                pulled += prod
            # comp = norm * exp(-0.5 * sum_j diff[j] * pulled[j])
            np.multiply(diff[0], pulled[0], out=comp)
            for j in range(1, d):
                comp += np.multiply(diff[j], pulled[j], out=prod[0])
            comp *= -0.5
            np.exp(comp, out=comp)
            comp *= self._norm[k]
            dens += comp
            if with_grad:
                grad_t -= np.multiply(comp, pulled, out=prod)
        return dens, grad_t

    def _at_points(self, x, with_grad: bool) -> Tuple[np.ndarray, np.ndarray]:
        # The points are probes with one zero offset: x + 0.0 is x except at
        # -0.0, which only ever meets zero products.
        x = np.atleast_2d(np.asarray(x, dtype=float))
        if x.ndim != 2 or x.shape[1] != self.dim:
            raise InvalidArgumentError(f"probes must be n x {self.dim}, got shape {x.shape}")
        return self._shifted(x, np.zeros((1, self.dim)), with_grad)

    def density(self, x: np.ndarray) -> np.ndarray:
        return self._at_points(x, with_grad=False)[0]

    def grad_density(self, x: np.ndarray) -> np.ndarray:
        return self._at_points(x, with_grad=True)[1]

    def density_and_grad(self, x: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        return self._at_points(x, with_grad=True)

    def shifted_density_and_grad(self, x, offsets) -> Tuple[np.ndarray, np.ndarray]:
        """Density at the N·L probes x_i + o_l, i-major, and the (N, d) sums
        over l of their gradients, without an (N·L, d) probe matrix."""
        x, offsets = _check_shifts(x, offsets, self.dim)
        return self._shifted(x, offsets, with_grad=True)

    def _shifted(self, x, offsets, with_grad: bool) -> Tuple[np.ndarray, np.ndarray]:
        # Each pass sweeps the probes of whole particles on a coordinate-major
        # (d, rows) copy, so every ufunc runs on contiguous rows of one
        # coordinate.  The gradient sums are laid out like ``x``.
        (n, d), n_off = x.shape, offsets.shape[0]
        per_pass = max(1, _SWEEP_ROWS // n_off)
        vals = np.empty(n * n_off)
        grad_sums = np.empty_like(x) if with_grad else None
        coords = np.empty((d, min(per_pass, n), n_off))
        for start in range(0, n, per_pass):
            stop = min(start + per_pass, n)
            block = coords[:, : stop - start]
            for j in range(d):
                np.add.outer(x[start:stop, j], offsets[:, j], out=block[j])
            dens, grad_t = self._sweep(block.reshape(d, -1), with_grad)
            vals[start * n_off : stop * n_off] = dens
            if not with_grad:
                continue
            grad_t = grad_t.reshape(block.shape)
            # The summation order of reshape(N, L, d).sum(axis=1): sequential
            # over l for d >= 2; at d = 1 numpy drops the unit axis and sums
            # each contiguous row pairwise.
            if d == 1:
                sums = grad_t.sum(axis=-1)
            else:
                sums = np.add.accumulate(grad_t, axis=-1)[..., -1]
            grad_sums[start:stop] = sums.T
        return vals, grad_sums

    def sample(self, rng: np.random.Generator, n: int) -> np.ndarray:
        return mixture_sampler(self, n, rng)


def mixture_sampler(target: GaussianMixture, n: int, rng: np.random.Generator) -> np.ndarray:
    """n i.i.d. draws: categorical component choice, then a Cholesky transform
    of standard normals.  Deterministic given the generator state."""
    if int(n) != n or n < 1:
        raise InvalidArgumentError(f"sample count must be >= 1, got {n!r}")
    comp = rng.choice(target.n_components, size=int(n), p=target.weights)
    z = rng.standard_normal((int(n), target.dim))
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
        shifted_density_and_grad=mixture.shifted_density_and_grad,
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


def _wave_density(x: np.ndarray) -> np.ndarray:
    x = np.atleast_2d(np.asarray(x, dtype=float))
    x1, x2 = x[:, 0], x[:, 1]
    return np.exp(-0.1 * x1**2 - (x2 - np.sin(np.pi * x1)) ** 2) / _WAVE_CONST


def _wave_grad(x: np.ndarray) -> np.ndarray:
    x = np.atleast_2d(np.asarray(x, dtype=float))
    x1, x2 = x[:, 0], x[:, 1]
    rho = _wave_density(x)
    resid = x2 - np.sin(np.pi * x1)
    g1 = rho * (-0.2 * x1 + 2.0 * np.pi * np.cos(np.pi * x1) * resid)
    g2 = rho * (-2.0 * resid)
    return np.stack([g1, g2], axis=1)


def _wave_density_and_grad(x: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    return _wave_density(x), _wave_grad(x)


def _wave_sampler(rng: np.random.Generator, n: int) -> np.ndarray:
    # The density factorizes as N(x1; 0, 5) * N(x2; sin(pi x1), 1/2) up to
    # the rounded normalizer, so exact sampling is a two-stage draw.
    x1 = rng.normal(0.0, np.sqrt(5.0), size=int(n))
    x2 = np.sin(np.pi * x1) + rng.normal(0.0, np.sqrt(0.5), size=int(n))
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
    if int(d) != d or d < 1:
        raise InvalidArgumentError(f"dimension must be a positive integer, got {d!r}")
    sigma = _check_positive(sigma, "sigma")
    d = int(d)
    mixture = GaussianMixture(
        weights=np.ones(1),
        means=np.zeros((1, d)),
        covariances=(sigma**2 * np.eye(d))[None, :, :],
    )
    return _target_from_mixture(mixture, (-2.0, 2.0))
