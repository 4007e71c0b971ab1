"""Domain types shared by every other module.

All types are immutable value objects: arrays are copied on construction and
marked read-only, and invariant violations raise
:class:`~evi_mmd.errors.InvalidArgumentError` rather than being clamped.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Tuple

import numpy as np

from .errors import InvalidArgumentError

GAUSSIAN = "gaussian"
NEGATIVE_EUCLIDEAN = "negative_euclidean"

_KERNEL_KINDS = (GAUSSIAN, NEGATIVE_EUCLIDEAN)


def _frozen_array(values, name: str, ndim: int, dtype=float) -> np.ndarray:
    """Copy ``values`` into a read-only float array of the given rank."""
    arr = np.array(values, dtype=dtype)
    if arr.ndim != ndim:
        raise InvalidArgumentError(
            f"{name} must be a rank-{ndim} array, got rank {arr.ndim}"
        )
    if not np.all(np.isfinite(arr)):
        raise InvalidArgumentError(f"{name} contains non-finite entries")
    arr.setflags(write=False)
    return arr


def _check_positive(value, name: str, *, allow_zero: bool = False) -> float:
    """``value`` as a float, once finite and > 0 (>= 0 with ``allow_zero``)."""
    value = float(value)
    if not np.isfinite(value) or value < 0 or (value == 0 and not allow_zero):
        bound = ">=" if allow_zero else ">"
        raise InvalidArgumentError(f"{name} must be {bound} 0, got {value!r}")
    return value


@dataclass(frozen=True)
class ParticleSet:
    """N particle positions in d dimensions at outer-iteration ``iteration``.

    The (N, d) shape is fixed for the lifetime of a run; the positions array
    is read-only.
    """

    positions: np.ndarray
    iteration: int = 0

    def __post_init__(self):
        pos = _frozen_array(self.positions, "positions", ndim=2)
        if pos.shape[0] < 1 or pos.shape[1] < 1:
            raise InvalidArgumentError(
                f"positions must be at least 1x1, got {pos.shape}"
            )
        object.__setattr__(self, "positions", pos)
        if int(self.iteration) != self.iteration or self.iteration < 0:
            raise InvalidArgumentError(
                f"iteration must be a non-negative integer, got {self.iteration!r}"
            )
        object.__setattr__(self, "iteration", int(self.iteration))

    @property
    def n_particles(self) -> int:
        return self.positions.shape[0]

    @property
    def dim(self) -> int:
        return self.positions.shape[1]


@dataclass(frozen=True)
class DensityTarget:
    """A fully specified target distribution.

    ``density`` and ``grad_density`` are batched callables: they accept an
    (n, d) array and return (n,) / (n, d) arrays.  ``domain_box`` is the
    (lower, upper) box used only for particle initialization, never as a hard
    constraint.  ``exact_sampler`` (rng, n) -> (n, d), when present, provides
    validation data for evaluation metrics.  ``density_and_grad`` is the
    fused evaluation the samplers call; it must agree with the two separate
    callables, and when it is not given it calls them one after the other.

    ``shifted_density_and_grad`` (x, offsets) -> (vals, grad_sums) is the
    density-branch cross term's evaluation: for N particles x (N, d) and L
    offsets (L, d) it returns the density at the N·L probes x_i + o_l, in
    i-major order, and the (N, d) sums over l of their gradients.  When it is
    not given it builds the (N·L, d) probe matrix, calls ``density_and_grad``
    on it and sums the gradients with ``reshape(N, L, d).sum(axis=1)``; a
    given one must agree with that (the mixtures' returns the same bytes).
    Both reject offsets that are not L x d with L >= 1 and particles whose d
    is not the target's.
    """

    density: Callable[[np.ndarray], np.ndarray]
    grad_density: Callable[[np.ndarray], np.ndarray]
    domain_box: Tuple[np.ndarray, np.ndarray]
    exact_sampler: Optional[Callable[[np.random.Generator, int], np.ndarray]] = None
    density_and_grad: Optional[
        Callable[[np.ndarray], Tuple[np.ndarray, np.ndarray]]
    ] = None
    shifted_density_and_grad: Optional[
        Callable[[np.ndarray, np.ndarray], Tuple[np.ndarray, np.ndarray]]
    ] = None

    def __post_init__(self):
        lower = _frozen_array(self.domain_box[0], "domain_box lower", ndim=1)
        upper = _frozen_array(self.domain_box[1], "domain_box upper", ndim=1)
        if lower.shape != upper.shape:
            raise InvalidArgumentError(
                "domain_box lower/upper must have equal length, got "
                f"{lower.shape} vs {upper.shape}"
            )
        if not np.all(lower < upper):
            raise InvalidArgumentError("domain_box requires lower < upper per coordinate")
        object.__setattr__(self, "domain_box", (lower, upper))
        # The fallbacks are rebuilt when copied with ``dataclasses.replace``,
        # so that they call the copy's own callables.
        if self.density_and_grad is None or isinstance(self.density_and_grad, _Separate):
            fused = _Separate(self.density, self.grad_density)
            object.__setattr__(self, "density_and_grad", fused)
        shifted = self.shifted_density_and_grad
        if shifted is None or isinstance(shifted, _ProbeSweep):
            shifted = _ProbeSweep(self.density_and_grad, self.dim)
            object.__setattr__(self, "shifted_density_and_grad", shifted)

    @property
    def dim(self) -> int:
        return self.domain_box[0].shape[0]


@dataclass(frozen=True)
class _Separate:
    """A density-and-gradient evaluation made of the two separate callables."""

    density: Callable[[np.ndarray], np.ndarray]
    grad_density: Callable[[np.ndarray], np.ndarray]

    def __call__(self, x: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        return self.density(x), self.grad_density(x)


def _check_shifts(x, offsets, dim: int) -> Tuple[np.ndarray, np.ndarray]:
    """Particles (N, dim) and offsets (L, dim), L >= 1, as float arrays."""
    x = np.asarray(x, dtype=float)
    offsets = np.asarray(offsets, dtype=float)
    if offsets.ndim != 2 or offsets.shape[0] < 1 or offsets.shape[1] != dim:
        raise InvalidArgumentError(
            f"offsets must be L x {dim} with L >= 1, got shape {offsets.shape}"
        )
    if x.ndim != 2 or x.shape[1] != dim:
        raise InvalidArgumentError(f"particles must be n x {dim}, got shape {x.shape}")
    return x, offsets


def _shifted_probes(x: np.ndarray, offsets: np.ndarray) -> np.ndarray:
    """The N·L probes x_i + o_l as an (N·L, d) matrix in i-major order."""
    return (x[:, None, :] + offsets[None, :, :]).reshape(-1, x.shape[1])


@dataclass(frozen=True)
class _ProbeSweep:
    """A shifted density-and-gradient evaluation made of ``density_and_grad``
    on the probe matrix."""

    density_and_grad: Callable[[np.ndarray], Tuple[np.ndarray, np.ndarray]]
    dim: int

    def __call__(self, x, offsets) -> Tuple[np.ndarray, np.ndarray]:
        x, offsets = _check_shifts(x, offsets, self.dim)
        n, d = x.shape
        vals, grads = self.density_and_grad(_shifted_probes(x, offsets))
        # C order first: a strided reshape of a Fortran-ordered gradient would
        # sum over l in another order.
        grads = np.ascontiguousarray(grads, dtype=float)
        grad_sums = grads.reshape(n, offsets.shape[0], d).sum(axis=1)
        return np.asarray(vals, dtype=float), grad_sums


@dataclass(frozen=True)
class EmpiricalTarget:
    """A two-sample target: M training rows plus a mini-batch size."""

    data: np.ndarray
    minibatch_size: int

    def __post_init__(self):
        data = _frozen_array(self.data, "data", ndim=2)
        if data.shape[0] < 1 or data.shape[1] < 1:
            raise InvalidArgumentError(f"data must be at least 1x1, got {data.shape}")
        object.__setattr__(self, "data", data)
        size = self.minibatch_size
        if int(size) != size or not 1 <= size <= data.shape[0]:
            raise InvalidArgumentError(
                f"minibatch_size must be an integer in [1, {data.shape[0]}], got {size!r}"
            )
        object.__setattr__(self, "minibatch_size", int(size))

    @property
    def n_rows(self) -> int:
        return self.data.shape[0]

    @property
    def dim(self) -> int:
        return self.data.shape[1]


@dataclass(frozen=True)
class KernelConfig:
    """Kernel selector: Gaussian exp(-|x-y|^2 / 2h^2) or -|x-y| (the
    energy-distance generator).  ``bandwidth`` applies to the Gaussian kind
    only and is ignored otherwise."""

    kind: str
    bandwidth: float = 1.0

    def __post_init__(self):
        if self.kind not in _KERNEL_KINDS:
            raise InvalidArgumentError(
                f"kernel kind must be one of {_KERNEL_KINDS}, got {self.kind!r}"
            )
        if self.kind == GAUSSIAN:
            h = float(self.bandwidth)
            if not np.isfinite(h) or h <= 0:
                raise InvalidArgumentError(
                    f"Gaussian kernel requires bandwidth > 0, got {self.bandwidth!r}"
                )
            object.__setattr__(self, "bandwidth", h)

    @classmethod
    def gaussian(cls, bandwidth: float) -> "KernelConfig":
        return cls(kind=GAUSSIAN, bandwidth=bandwidth)

    @classmethod
    def negative_euclidean(cls) -> "KernelConfig":
        return cls(kind=NEGATIVE_EUCLIDEAN)

    @property
    def is_gaussian(self) -> bool:
        return self.kind == GAUSSIAN


@dataclass(frozen=True)
class BandwidthSchedule:
    """Decaying bandwidth h(n) = a / n^c + b, strictly decreasing toward b."""

    a: float
    b: float
    c: float

    def __post_init__(self):
        for name in ("a", "b", "c"):
            v = _check_positive(getattr(self, name), f"schedule parameter {name}")
            object.__setattr__(self, name, v)


@dataclass(frozen=True)
class SolverConfig:
    """Knobs for the implicit-Euler outer loop and its inner L-BFGS solver.

    ``tau_star`` is the proximal step ratio (step size over dissipation
    constant); ``mc_samples`` is both the Monte-Carlo sample count of the
    density-branch cross-term estimator and, via the targets' own
    ``minibatch_size``, the scale L used throughout.
    """

    tau_star: float
    mc_samples: int = 100
    max_iter: int = 1000
    lbfgs_memory: int = 10
    lbfgs_max_inner: int = 50
    lbfgs_grad_tol: float = 1e-6

    def __post_init__(self):
        _check_positive(self.tau_star, "tau_star")
        if int(self.mc_samples) != self.mc_samples or self.mc_samples < 1:
            raise InvalidArgumentError(f"mc_samples must be >= 1, got {self.mc_samples!r}")
        if int(self.max_iter) != self.max_iter or self.max_iter < 1:
            raise InvalidArgumentError(f"max_iter must be >= 1, got {self.max_iter!r}")
        if self.lbfgs_memory < 1:
            raise InvalidArgumentError(f"lbfgs_memory must be >= 1, got {self.lbfgs_memory!r}")
        if self.lbfgs_max_inner < 1:
            raise InvalidArgumentError(
                f"lbfgs_max_inner must be >= 1, got {self.lbfgs_max_inner!r}"
            )
        _check_positive(self.lbfgs_grad_tol, "lbfgs_grad_tol")
        object.__setattr__(self, "mc_samples", int(self.mc_samples))
        object.__setattr__(self, "max_iter", int(self.max_iter))


@dataclass(frozen=True)
class IterationRow:
    """One completed outer iteration of any run."""

    n: int
    h_n: float
    free_energy: float
    mmd2_eval: float
    energy_dist_eval: float
    inner_iters: int
    displacement: float


@dataclass(frozen=True)
class RunRecord:
    """Per-iteration trace of a run; iteration indices strictly increase.

    Evaluation columns hold NaN when no evaluator was attached (or the method
    has no matching notion, e.g. the bandwidth column of Langevin runs).
    """

    rows: Tuple[IterationRow, ...] = ()

    def __post_init__(self):
        rows = tuple(self.rows)
        for prev, cur in zip(rows, rows[1:]):
            if cur.n <= prev.n:
                raise InvalidArgumentError(
                    f"iteration indices must strictly increase, got {prev.n} then {cur.n}"
                )
        object.__setattr__(self, "rows", rows)

    def __len__(self) -> int:
        return len(self.rows)

    def column(self, name: str) -> np.ndarray:
        """Return one field across all rows as an array (floats or ints)."""
        return np.array([getattr(r, name) for r in self.rows])


def uniform_box_init(
    lower: np.ndarray, upper: np.ndarray, n_particles: int, rng: np.random.Generator
) -> np.ndarray:
    """Draw initial particles uniformly from a box."""
    lower = np.asarray(lower, dtype=float)
    upper = np.asarray(upper, dtype=float)
    return rng.uniform(lower, upper, size=(n_particles, lower.shape[0]))


def data_bounding_box(data: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Per-coordinate min/max of a dataset, the default init box for
    empirical targets.  Degenerate coordinates are widened slightly so the
    box stays valid."""
    lower = np.min(data, axis=0)
    upper = np.max(data, axis=0)
    flat = upper <= lower
    if np.any(flat):
        pad = np.where(flat, 0.5, 0.0)
        lower = lower - pad
        upper = upper + pad
    return lower, upper


def initial_particles(
    target, n_particles: int, rng: np.random.Generator
) -> np.ndarray:
    """Default initialization: uniform on the target's box.

    Density targets carry their own ``domain_box``; empirical targets default
    to the bounding box of the training rows.
    """
    if isinstance(target, DensityTarget):
        lower, upper = target.domain_box
    elif isinstance(target, EmpiricalTarget):
        lower, upper = data_bounding_box(target.data)
    else:
        raise InvalidArgumentError(f"unknown target type: {type(target).__name__}")
    return uniform_box_init(lower, upper, n_particles, rng)
