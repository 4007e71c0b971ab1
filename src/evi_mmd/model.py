"""Domain types shared by every other module.

All types are immutable value objects: arrays are copied on construction and
marked read-only, and invariant violations raise
:class:`~evi_mmd.errors.InvalidArgumentError` rather than being clamped.

Counts, finite arrays, nonempty matrices and positive reals pass
:func:`_check_count`, :func:`_check_array`, :func:`_check_sample` and
:func:`_check_positive` throughout the package and the config file; a checked
field keeps the value its check returns, an ``int``, a ``float`` or an array.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from numbers import Real
from typing import Callable, Optional, Tuple

import numpy as np

from .errors import InvalidArgumentError

GAUSSIAN = "gaussian"
NEGATIVE_EUCLIDEAN = "negative_euclidean"

_KERNEL_KINDS = (GAUSSIAN, NEGATIVE_EUCLIDEAN)


def _check_array(values, name: str, ndim: int) -> np.ndarray:
    """``values`` as a float array (a copy only when they are not one), once
    it holds only real numbers, has rank ``ndim`` and only finite entries."""
    try:
        arr = np.asarray(values)
        # numpy would parse "1.5" as a float, in a string or an object array
        real = arr.dtype.kind not in "SU" and not (
            arr.dtype.kind == "O" and any(isinstance(v, (str, bytes)) for v in arr.flat)
        )
        arr = np.asarray(arr, dtype=float)
    except (TypeError, ValueError):  # ragged nesting, other objects
        real = False
    if not real:
        raise InvalidArgumentError(f"{name} must be an array of real numbers")
    if arr.ndim != ndim:
        raise InvalidArgumentError(f"{name} must be a rank-{ndim} array, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise InvalidArgumentError(f"{name} contains non-finite entries")
    return arr


def _check_sample(values, name: str) -> np.ndarray:
    """A rank-2 array that :func:`_check_array` accepts and that has at least
    one row and one column."""
    arr = _check_array(values, name, 2)
    if arr.size == 0:
        raise InvalidArgumentError(f"{name} must be nonempty, got shape {arr.shape}")
    return arr


def _frozen_array(values, name: str, ndim: int) -> np.ndarray:
    """A read-only copy of ``values`` once :func:`_check_array` accepts it;
    every matrix a value object holds is a sample, checked by
    :func:`_check_sample`."""
    arr = np.array(_check_sample(values, name) if ndim == 2 else _check_array(values, name, ndim))
    arr.setflags(write=False)
    return arr


def _check_count(value, name: str, minimum: int = 1, maximum: Optional[int] = None) -> int:
    """``value`` as an int, once it is a number (not a bool) with an integral
    value in [minimum, maximum] (no upper bound when ``maximum`` is None)."""
    try:
        count = int(value) if isinstance(value, Real) and not isinstance(value, bool) else None
    except (ValueError, OverflowError):  # NaN and the infinities
        count = None
    upper = count if maximum is None else maximum
    if count is None or count != value or not minimum <= count <= upper:
        bounds = f">= {minimum}" if maximum is None else f"in [{minimum}, {maximum}]"
        raise InvalidArgumentError(f"{name} must be an integer {bounds}, got {value!r}")
    return count


def _check_positive(value, name: str, *, allow_zero: bool = False) -> float:
    """``value`` as a float, once it is a real number (not a bool) that is
    finite and > 0 (>= 0 with ``allow_zero``)."""
    try:
        real = float(value) if isinstance(value, Real) and not isinstance(value, bool) else None
    except OverflowError:  # an int too large for a float
        real = None
    if real is None or not math.isfinite(real) or real < 0 or (real == 0 and not allow_zero):
        bound = ">=" if allow_zero else ">"
        raise InvalidArgumentError(f"{name} must be a finite real {bound} 0, got {value!r}")
    return real


@dataclass(frozen=True)
class ParticleSet:
    """N particle positions in d dimensions at outer-iteration ``iteration``.

    The (N, d) shape is fixed for the lifetime of a run; the positions array
    is read-only.
    """

    positions: np.ndarray
    iteration: int = 0

    def __post_init__(self):
        object.__setattr__(self, "positions", _frozen_array(self.positions, "positions", ndim=2))
        object.__setattr__(self, "iteration", _check_count(self.iteration, "iteration", 0))

    @property
    def n_particles(self) -> int:
        return self.positions.shape[0]

    @property
    def dim(self) -> int:
        return self.positions.shape[1]


# The particles' sweep of a prepared shifted evaluation: (N, d) particles to
# (N,) density sums and (N, d) gradient sums over the offsets.
ShiftedSums = Callable[[np.ndarray], Tuple[np.ndarray, np.ndarray]]


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

    ``shifted_sweep`` is the density-branch cross term's evaluation, in two
    stages: ``shifted_sweep(offsets)``, for L offsets (L, d), prepares what
    depends on the offsets alone and returns ``sweep``; ``sweep(x)``, for N
    particles x (N, d), returns for each particle the sum over l of the
    density at the probes x_i + o_l, (N,), and the sum over l of their
    gradients, (N, d).  The objective prepares once per closure and sweeps
    once per evaluation.  When it is not given, ``sweep`` builds the (N·L, d)
    probe matrix in i-major order, calls ``density_and_grad`` on it and sums
    both outputs over l with ``reshape(N, L, ...).sum(axis=1)``; a given one
    must agree with that (the mixtures' within the bound stated on
    :class:`evi_mmd.targets.GaussianMixture`).  Preparing rejects offsets
    that are not L x d with L >= 1, and sweeping particles whose d is not the
    target's.
    """

    density: Callable[[np.ndarray], np.ndarray]
    grad_density: Callable[[np.ndarray], np.ndarray]
    domain_box: Tuple[np.ndarray, np.ndarray]
    exact_sampler: Optional[Callable[[np.random.Generator, int], np.ndarray]] = None
    density_and_grad: Optional[
        Callable[[np.ndarray], Tuple[np.ndarray, np.ndarray]]
    ] = None
    shifted_sweep: Optional[Callable[[np.ndarray], ShiftedSums]] = None

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
        if self.shifted_sweep is None or isinstance(self.shifted_sweep, _ProbeSweep):
            object.__setattr__(self, "shifted_sweep", _ProbeSweep(self.density_and_grad, self.dim))

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


def _check_offsets(offsets, dim: int) -> np.ndarray:
    """A float copy of ``offsets``, in their memory order, once they are
    L x dim with L >= 1."""
    offsets = np.array(offsets, dtype=float)
    if offsets.ndim != 2 or offsets.shape[0] < 1 or offsets.shape[1] != dim:
        raise InvalidArgumentError(
            f"offsets must be L x {dim} with L >= 1, got shape {offsets.shape}"
        )
    return offsets


def _check_particles(x, dim: int) -> np.ndarray:
    """Particles (N, dim) as a float array."""
    x = np.asarray(x, dtype=float)
    if x.ndim != 2 or x.shape[1] != dim:
        raise InvalidArgumentError(f"particles must be n x {dim}, got shape {x.shape}")
    return x


def _shifted_probes(x: np.ndarray, offsets: np.ndarray) -> np.ndarray:
    """The N·L probes x_i + o_l as an (N·L, d) matrix in i-major order."""
    return (x[:, None, :] + offsets[None, :, :]).reshape(-1, x.shape[1])


@dataclass(frozen=True)
class _ProbeSweep:
    """A shifted sweep made of ``density_and_grad`` on the probe matrix; it
    prepares only its checked copy of the offsets."""

    density_and_grad: Callable[[np.ndarray], Tuple[np.ndarray, np.ndarray]]
    dim: int

    def __call__(self, offsets) -> ShiftedSums:
        return partial(self._sums, _check_offsets(offsets, self.dim))

    def _sums(self, offsets: np.ndarray, x) -> Tuple[np.ndarray, np.ndarray]:
        x = _check_particles(x, self.dim)
        (n, d), n_off = x.shape, offsets.shape[0]
        vals, grads = self.density_and_grad(_shifted_probes(x, offsets))
        # C order first: a strided reshape of a Fortran-ordered gradient would
        # sum over l in another order.
        grads = np.ascontiguousarray(grads, dtype=float)
        val_sums = np.asarray(vals, dtype=float).reshape(n, n_off).sum(axis=1)
        return val_sums, grads.reshape(n, n_off, d).sum(axis=1)


@dataclass(frozen=True)
class EmpiricalTarget:
    """A two-sample target: M training rows plus a mini-batch size."""

    data: np.ndarray
    minibatch_size: int

    def __post_init__(self):
        data = _frozen_array(self.data, "data", ndim=2)
        object.__setattr__(self, "data", data)
        size = _check_count(self.minibatch_size, "minibatch_size", maximum=data.shape[0])
        object.__setattr__(self, "minibatch_size", size)

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
            h = _check_positive(self.bandwidth, "bandwidth")
            # h^2 divides every exponent and gradient: it must not underflow.
            if h * h < np.finfo(float).tiny:
                raise InvalidArgumentError(
                    f"bandwidth must have a square that is a normal float, got {h!r}"
                )
            object.__setattr__(self, "bandwidth", h)

    @classmethod
    def gaussian(cls, bandwidth: float) -> "KernelConfig":
        return cls(kind=GAUSSIAN, bandwidth=bandwidth)

    @classmethod
    def negative_euclidean(cls) -> "KernelConfig":
        return cls(kind=NEGATIVE_EUCLIDEAN)


@dataclass(frozen=True)
class BandwidthSchedule:
    """Decaying bandwidth h(n) = a / n^c + b, non-increasing toward b: it is b
    once a / n^c is below half of b's float spacing (every n for a = 1e-300)."""

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
        for name, check in (
            ("tau_star", _check_positive),
            ("mc_samples", _check_count),
            ("max_iter", _check_count),
            ("lbfgs_memory", _check_count),
            ("lbfgs_max_inner", _check_count),
            ("lbfgs_grad_tol", _check_positive),
        ):
            object.__setattr__(self, name, check(getattr(self, name), name))


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
    n_particles = _check_count(n_particles, "n_particles")
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
