import dataclasses
import importlib
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from numpy.polynomial.hermite_e import hermegauss

from evi_mmd import (
    BandwidthSchedule,
    DensityTarget,
    EmpiricalTarget,
    InvalidArgumentError,
    KernelConfig,
    McNoise,
    SolverConfig,
    UnsupportedOperationError,
    cross_term_density,
    cross_term_empirical,
    eight_mixture,
    evi_mmd_run,
    explicit_euler_mmd_run,
    free_energy,
    gauss_eval,
    grad_free_energy,
    isotropic_gaussian,
    square_term,
    star_mixture,
    wave_density,
)
from evi_mmd.free_energy import (
    _kernel_sum_and_grad,
    _square_term_and_grad,
    density_closures,
    empirical_closures,
    gaussian_normalizer,
)
from evi_mmd.kernels import cross_gram, gram, pairwise_distances
from evi_mmd.model import _shifted_probes

GAUSS1 = KernelConfig.gaussian(1.0)


def convolution_value(h, sigma, d, x_sqnorm=0.0):
    """Closed-form oracle: integral of exp(-|y-x|^2/2h^2) against N(0, sigma^2 I)
    equals (h^2/(h^2+sigma^2))^(d/2) * exp(-|x|^2 / (2(h^2+sigma^2)))."""
    s = h * h + sigma * sigma
    return (h * h / s) ** (d / 2.0) * np.exp(-x_sqnorm / (2.0 * s))


def fd_grad_matrix(f, x, step=1e-6):
    g = np.zeros_like(x)
    for i in range(x.shape[0]):
        for j in range(x.shape[1]):
            e = np.zeros_like(x)
            e[i, j] = step
            g[i, j] = (f(x + e) - f(x - e)) / (2 * step)
    return g


class TestSquareTerm:
    def test_single_particle_gaussian(self):
        assert square_term(np.zeros((1, 2)), GAUSS1) == 1.0

    def test_two_identical_points(self):
        assert square_term(np.array([[1.0], [1.0]]), GAUSS1) == 1.0

    def test_two_points_at_h_sqrt2(self):
        pts = np.array([[0.0], [np.sqrt(2.0)]])
        expect = (1 + np.exp(-1.0)) / 2
        assert square_term(pts, GAUSS1) == pytest.approx(expect, rel=1e-14)


class TestCrossTermDensity:
    def test_zero_density_gives_zero(self):
        target = DensityTarget(
            density=lambda x: np.zeros(len(x)),
            grad_density=lambda x: np.zeros_like(x),
            domain_box=(np.zeros(2), np.ones(2)),
        )
        noise = McNoise.draw(np.random.default_rng(0), 50, 2)
        assert cross_term_density(np.zeros((3, 2)), target, 1.0, noise) == 0.0

    def test_converges_to_closed_form_1d(self):
        # single particle at 0, h=1, target N(0,1): limit is 1/sqrt(2)
        target = isotropic_gaussian(1, 1.0)
        noise = McNoise.draw(np.random.default_rng(5), 100_000, 1)
        got = cross_term_density(np.zeros((1, 1)), target, 1.0, noise)
        assert got == pytest.approx(1 / np.sqrt(2.0), rel=0.02)

    def test_monte_carlo_error_decreases_with_l(self):
        target = isotropic_gaussian(2, 1.0)
        exact = convolution_value(1.0, 1.0, 2)
        assert exact == 0.5
        rng = np.random.default_rng(11)
        errors = []
        for L in (10**2, 10**4, 10**6):
            noise = McNoise.draw(rng, L, 2)
            got = cross_term_density(np.zeros((1, 2)), target, 1.0, noise)
            errors.append(abs(got - exact) / exact)
        assert errors[0] > errors[1] > errors[2]

    def test_rejects_dimension_mismatch(self):
        target = isotropic_gaussian(2, 1.0)
        noise = McNoise.draw(np.random.default_rng(0), 10, 3)
        with pytest.raises(InvalidArgumentError):
            cross_term_density(np.zeros((1, 2)), target, 1.0, noise)

    @pytest.mark.parametrize("shape", [(0, 2), (3, 0)])
    def test_empty_noise_is_rejected(self, shape):
        with pytest.raises(InvalidArgumentError, match=r"^xi must be nonempty"):
            McNoise(np.zeros(shape))


class TestCrossTermEmpirical:
    def test_single_matching_point(self):
        x = np.array([[0.5, 0.5]])
        assert cross_term_empirical(x, x, GAUSS1) == 1.0

    def test_two_identical_batch_copies(self):
        x = np.array([[0.2, -0.2]])
        batch = np.vstack([x, x])
        assert cross_term_empirical(x, batch, GAUSS1) == pytest.approx(1.0, rel=1e-15)

    def test_matches_double_loop_oracle(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=(2, 2))
        batch = rng.normal(size=(3, 2))
        expect = sum(
            gauss_eval(x[i], batch[j], 1.0) for i in range(2) for j in range(3)
        ) / 3
        assert cross_term_empirical(x, batch, GAUSS1) == pytest.approx(expect, rel=1e-13)

    def test_empty_batch_rejected(self):
        with pytest.raises(InvalidArgumentError):
            cross_term_empirical(np.zeros((1, 2)), np.zeros((0, 2)), GAUSS1)


class TestFreeEnergy:
    def test_single_point_two_sample_value(self):
        x = np.array([[1.0, 2.0]])
        target = EmpiricalTarget(x, minibatch_size=1)
        assert free_energy(x, target, GAUSS1) == pytest.approx(-1.0, rel=1e-15)

    def test_zero_density_leaves_square_term(self):
        target = DensityTarget(
            density=lambda x: np.zeros(len(x)),
            grad_density=lambda x: np.zeros_like(x),
            domain_box=(np.zeros(1), np.ones(1)),
        )
        noise = McNoise.draw(np.random.default_rng(0), 20, 1)
        pts = np.array([[0.0], [1.0]])
        assert free_energy(pts, target, GAUSS1, noise=noise) == square_term(pts, GAUSS1)

    def test_particles_equal_batch_gives_minus_mean_gram(self):
        rng = np.random.default_rng(9)
        pts = rng.normal(size=(3, 2))
        target = EmpiricalTarget(pts, minibatch_size=3)
        from evi_mmd import gram

        mean_gram = gram(pts, GAUSS1).mean()
        got = free_energy(pts, target, GAUSS1, batch=pts)
        assert got == pytest.approx(-mean_gram, rel=1e-13)

    def test_density_branch_rejects_energy_kernel(self):
        target = isotropic_gaussian(1, 1.0)
        noise = McNoise.draw(np.random.default_rng(0), 10, 1)
        with pytest.raises(UnsupportedOperationError):
            free_energy(
                np.zeros((1, 1)), target, KernelConfig.negative_euclidean(), noise=noise
            )

    def test_determinism_with_frozen_noise(self):
        target = isotropic_gaussian(2, 1.0)
        noise = McNoise.draw(np.random.default_rng(1), 100, 2)
        pts = np.random.default_rng(2).normal(size=(5, 2))
        a = free_energy(pts, target, GAUSS1, noise=noise)
        b = free_energy(pts, target, GAUSS1, noise=noise)
        assert a == b
        ga = grad_free_energy(pts, target, GAUSS1, noise=noise)
        gb = grad_free_energy(pts, target, GAUSS1, noise=noise)
        np.testing.assert_array_equal(ga, gb)

    @given(
        shift=arrays(
            float,
            (2,),
            elements=st.floats(min_value=-20, max_value=20, allow_nan=False),
        )
    )
    @settings(max_examples=25, deadline=None)
    def test_translation_covariance_empirical(self, shift):
        rng = np.random.default_rng(12)
        pts = rng.normal(size=(4, 2))
        batch = rng.normal(size=(6, 2))
        target = EmpiricalTarget(batch, minibatch_size=6)
        base = free_energy(pts, target, GAUSS1, batch=batch)
        target2 = EmpiricalTarget(batch + shift, minibatch_size=6)
        moved = free_energy(pts + shift, target2, GAUSS1, batch=batch + shift)
        assert moved == pytest.approx(base, abs=1e-12)

    def test_perfect_match_beats_perturbations(self):
        rng = np.random.default_rng(21)
        batch = rng.normal(size=(4, 2))
        target = EmpiricalTarget(batch, minibatch_size=4)
        matched = free_energy(batch, target, GAUSS1, batch=batch)
        for k in range(30):
            perm = rng.permutation(4)
            perturbed = batch[perm] + rng.normal(scale=0.3, size=(4, 2))
            assert matched <= free_energy(perturbed, target, GAUSS1, batch=batch)


class TestGradients:
    def test_single_particle_square_term_gradient_vanishes(self):
        # self-interaction only: the square term contributes no gradient
        target = DensityTarget(
            density=lambda x: np.zeros(len(x)),
            grad_density=lambda x: np.zeros_like(x),
            domain_box=(np.zeros(2) - 1, np.ones(2)),
        )
        noise = McNoise.draw(np.random.default_rng(0), 10, 2)
        g = grad_free_energy(np.array([[0.4, -0.7]]), target, GAUSS1, noise=noise)
        np.testing.assert_array_equal(g, 0.0)

    @pytest.mark.parametrize("kernel", [GAUSS1, KernelConfig.negative_euclidean()])
    def test_empirical_gradient_matches_finite_differences(self, kernel):
        rng = np.random.default_rng(31)
        for trial in range(20):
            pts = rng.normal(size=(3, 2))
            batch = rng.normal(size=(4, 2))
            target = EmpiricalTarget(batch, minibatch_size=4)
            analytic = grad_free_energy(pts, target, kernel, batch=batch)
            numeric = fd_grad_matrix(
                lambda x: free_energy(x, target, kernel, batch=batch), pts
            )
            scale = max(np.max(np.abs(analytic)), 1e-8)
            assert np.max(np.abs(analytic - numeric)) / scale < 1e-5

    def test_density_gradient_matches_finite_differences(self):
        target = isotropic_gaussian(2, 1.0)
        rng = np.random.default_rng(17)
        for trial in range(20):
            pts = rng.normal(size=(3, 2))
            noise = McNoise.draw(rng, 64, 2)
            h = rng.uniform(0.5, 2.0)
            kernel = KernelConfig.gaussian(h)
            analytic = grad_free_energy(pts, target, kernel, noise=noise)
            numeric = fd_grad_matrix(
                lambda x: free_energy(x, target, kernel, noise=noise), pts
            )
            scale = max(np.max(np.abs(analytic)), 1e-8)
            assert np.max(np.abs(analytic - numeric)) / scale < 1e-5

    def test_empirical_gradient_matches_brute_force_loop(self):
        from evi_mmd import gauss_grad_x

        rng = np.random.default_rng(41)
        pts = rng.normal(size=(3, 2))
        target = EmpiricalTarget(pts, minibatch_size=3)
        n = 3
        expect = np.zeros_like(pts)
        for i in range(n):
            for j in range(n):
                expect[i] += -2.0 / (n * n) * gauss_grad_x(pts[i], pts[j], 1.0)
                expect[i] += 2.0 / (n * n) * gauss_grad_x(pts[i], pts[j], 1.0)
        # cross and square cancel when particles == batch and N == L:
        # -2/(N L) sum_j dK(x_i, y_j) + 2/N^2 sum_j dK(x_i, x_j) = 0
        got = grad_free_energy(pts, target, GAUSS1, batch=pts)
        np.testing.assert_allclose(got, expect, atol=1e-12)


class TestClosures:
    def test_density_closures_match_op_functions(self):
        target = isotropic_gaussian(2, 1.0)
        noise = McNoise.draw(np.random.default_rng(2), 128, 2)
        kernel = KernelConfig.gaussian(0.8)
        pts = np.random.default_rng(3).normal(size=(6, 2))
        _, vg_fn = density_closures(target, kernel, noise)
        v, g = vg_fn(pts)
        assert_within_declared_bound(v, g, pts, target, kernel, noise)
        np.testing.assert_array_equal(g, grad_free_energy(pts, target, kernel, noise=noise))

    def test_empirical_closures_match_op_functions(self):
        rng = np.random.default_rng(4)
        pts = rng.normal(size=(5, 3))
        batch = rng.normal(size=(7, 3))
        target = EmpiricalTarget(batch, minibatch_size=7)
        kernel = KernelConfig.gaussian(1.2)
        value_fn, vg_fn = empirical_closures(batch, kernel)
        v, g = vg_fn(pts)
        assert v == pytest.approx(free_energy(pts, target, kernel, batch=batch), rel=1e-14)
        np.testing.assert_allclose(
            g, grad_free_energy(pts, target, kernel, batch=batch), atol=1e-14
        )


def _raising_density(x):
    raise AssertionError("the objective called DensityTarget.density")


SINGLE_PATH_TARGETS = {
    "star": star_mixture,
    "eight": eight_mixture,
    "gaussian": lambda: isotropic_gaussian(2, 0.8),
}


class TestSingleValuePath:
    """Every objective value comes from the branch's value-and-gradient
    closure: on the density branch, from the target's
    ``shifted_sweep``, never from ``density``."""

    @pytest.mark.parametrize(
        "call",
        [
            lambda t, x, n: density_closures(t, GAUSS1, n),
            lambda t, x, n: free_energy(x, t, GAUSS1, noise=n),
            lambda t, x, n: grad_free_energy(x, t, GAUSS1, noise=n),
            lambda t, x, n: cross_term_density(x, t, 1.0, n),
        ],
        ids=["density_closures", "free_energy", "grad_free_energy", "cross_term_density"],
    )
    def test_noise_dimension_is_checked_by_name(self, call):
        noise = McNoise.draw(np.random.default_rng(0), 10, 3)
        with pytest.raises(InvalidArgumentError, match="noise dimension 3"):
            call(isotropic_gaussian(2, 1.0), np.zeros((4, 2)), noise)

    @pytest.mark.parametrize("name", SINGLE_PATH_TARGETS)
    def test_density_is_never_called(self, name):
        target = dataclasses.replace(SINGLE_PATH_TARGETS[name](), density=_raising_density)
        rng = np.random.default_rng(5)
        x = target.exact_sampler(rng, 12)
        noise = McNoise.draw(rng, 40, 2)
        assert np.isfinite(free_energy(x, target, KernelConfig.gaussian(0.6), noise=noise))
        assert np.isfinite(cross_term_density(x, target, 0.6, noise))
        _, record = explicit_euler_mmd_run(
            target, BandwidthSchedule(1.0, 0.3, 0.5), 0.05, 3, rng, x, mc_samples=40
        )
        assert len(record.rows) == 3
        assert all(np.isfinite(row.free_energy) for row in record.rows)

    @pytest.mark.parametrize("name", SINGLE_PATH_TARGETS)
    def test_explicit_euler_records_the_objective(self, name):
        target = SINGLE_PATH_TARGETS[name]()
        x = target.exact_sampler(np.random.default_rng(6), 15)
        steps = []
        _, record = explicit_euler_mmd_run(
            target, BandwidthSchedule(1.0, 0.3, 0.5), 0.05, 4, np.random.default_rng(7), x,
            mc_samples=30, on_iteration=steps.append,
        )
        # objective_source draws the noise from the first of two spawned streams
        noise = McNoise.draw(np.random.default_rng(7).spawn(2)[0], 30, target.dim)
        assert [row.n for row in record.rows] == [info.n for info in steps] == [1, 2, 3, 4]
        for row, info in zip(record.rows, steps):
            kernel = KernelConfig.gaussian(info.h_n)
            expect = free_energy(info.particles, target, kernel, noise=noise)
            assert row.free_energy.hex() == expect.hex()

    @pytest.mark.parametrize(
        "make",
        [
            lambda rng: density_closures(eight_mixture(), GAUSS1, McNoise.draw(rng, 50, 2)),
            lambda rng: density_closures(wave_density(), GAUSS1, McNoise.draw(rng, 50, 2)),
            lambda rng: empirical_closures(rng.normal(size=(30, 2)), GAUSS1),
            lambda rng: empirical_closures(rng.normal(size=(30, 2)), ENERGY),
        ],
        ids=["eight", "wave", "empirical-gaussian", "empirical-energy"],
    )
    def test_value_closure_is_the_value_of_value_and_grad(self, make):
        rng = np.random.default_rng(8)
        value_fn, vg_fn = make(rng)
        x = rng.uniform(-3.0, 3.0, size=(20, 2))
        assert value_fn(x).hex() == vg_fn(x)[0].hex()


class TestPreparedSweep:
    """The density objective prepares the target's shifted sweep once per
    closure pair, that is once per outer iteration, however many
    evaluations follow."""

    @staticmethod
    def _counting(target):
        prepared = []

        def shifted_sweep(offsets):
            prepared.append(offsets)
            return target.shifted_sweep(offsets)

        return dataclasses.replace(target, shifted_sweep=shifted_sweep), prepared

    @pytest.mark.parametrize("make", [eight_mixture, wave_density], ids=["mixture", "fallback"])
    def test_one_prepare_per_closure(self, make):
        target, prepared = self._counting(make())
        rng = np.random.default_rng(13)
        value_fn, vg_fn = density_closures(target, GAUSS1, McNoise.draw(rng, 40, 2))
        for scale in (1.0, 3.0, 10.0, 1.0):
            x = rng.normal(scale=scale, size=(15, 2))
            assert value_fn(x).hex() == vg_fn(x)[0].hex()
        assert len(prepared) == 1

    def test_one_prepare_per_outer_iteration(self):
        target, prepared = self._counting(eight_mixture())
        rng = np.random.default_rng(14)
        init = rng.uniform(-4.0, 4.0, size=(20, 2))
        config = SolverConfig(tau_star=2.0, mc_samples=30, max_iter=3)
        _, record = evi_mmd_run(target, BandwidthSchedule(1.0, 0.3, 0.5), config, rng, init)
        assert len(prepared) == 3
        assert sum(row.inner_iters for row in record.rows) > 3


class TestKernelMatrixCounts:
    """One value-and-gradient call builds each kernel matrix it uses once;
    the Gaussian square term uses none."""

    @staticmethod
    def _count(monkeypatch, name, module_name="evi_mmd.free_energy"):
        # the package attribute evi_mmd.free_energy is the function; patch the module
        module = importlib.import_module(module_name)
        calls = []
        original = getattr(module, name)

        def counted(*args, **kwargs):
            calls.append(name)
            return original(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)
        return calls

    def test_density_value_and_grad_builds_no_gram(self, monkeypatch):
        # The Gaussian square term comes from gaussian_self_sums.
        target = isotropic_gaussian(2, 1.0)
        noise = McNoise.draw(np.random.default_rng(2), 16, 2)
        _, vg_fn = density_closures(target, KernelConfig.gaussian(0.8), noise)
        grams = self._count(monkeypatch, "gram")
        vg_fn(np.random.default_rng(3).normal(size=(6, 2)))
        assert grams == []

    @pytest.mark.parametrize(
        "kernel,n_grams",
        [(KernelConfig.gaussian(1.2), 0), (KernelConfig.negative_euclidean(), 1)],
        ids=["gaussian", "energy"],
    )
    def test_empirical_value_and_grad_builds_each_matrix_once(self, monkeypatch, kernel, n_grams):
        rng = np.random.default_rng(4)
        _, vg_fn = empirical_closures(rng.normal(size=(7, 3)), kernel)
        grams = self._count(monkeypatch, "gram")
        cross_grams = self._count(monkeypatch, "cross_gram")
        vg_fn(rng.normal(size=(5, 3)))
        assert len(grams) == n_grams
        assert len(cross_grams) == 1

    def test_energy_distance_value_and_grad_sweeps_each_distance_matrix_once(
        self, monkeypatch
    ):
        rng = np.random.default_rng(6)
        _, vg_fn = empirical_closures(
            rng.normal(size=(50, 2)), KernelConfig.negative_euclidean()
        )
        sweeps = self._count(monkeypatch, "squared_distances", "evi_mmd.kernels")
        vg_fn(rng.normal(size=(40, 2)))
        # one particle-particle and one particle-batch sweep
        assert len(sweeps) == 2


def einsum_gaussian_sum_and_grad(x, y, kernel, square):
    """The Gaussian kernel sum and its weighted differences by the explicit
    formula the free-energy terms once wrote out, kept as their reference."""
    w = gram(x, kernel) if square else cross_gram(x, y, kernel)
    weighted = x * w.sum(axis=1)[:, None] - np.einsum("ij,jd->id", w, y)
    return float(w.sum()), weighted


def einsum_gaussian_empirical(x, batch, kernel):
    """The empirical Gaussian closure with its cross term by the explicit
    formula and its square term from the closures' own square-term pass."""
    n, m = x.shape[0], batch.shape[0]
    h2 = kernel.bandwidth**2
    cr, cr_w = einsum_gaussian_sum_and_grad(x, batch, kernel, square=False)
    square, square_grad = _square_term_and_grad(x, kernel)
    cross, cross_grad = cr / m, -cr_w / (h2 * m)
    return -2.0 / n * cross + square, -2.0 / n * cross_grad + square_grad


def einsum_gaussian_density(x, target, kernel, noise):
    n, d = x.shape
    h = kernel.bandwidth
    vals, grads = target.density_and_grad(_shifted_probes(x, h * noise.xi))
    scale = gaussian_normalizer(d, h) / noise.n_samples
    cross = scale * float(vals.reshape(n, -1).sum(axis=1).sum())
    cross_grad = scale * grads.reshape(n, -1, d).sum(axis=1)
    sq, sq_w = einsum_gaussian_sum_and_grad(x, x, kernel, square=True)
    square, square_grad = sq / (n * n), -2.0 / (n * n * h**2) * sq_w
    return -2.0 / n * cross + square, -2.0 / n * cross_grad + square_grad


def square_term_slack(x, h):
    """The declared bound of gaussian_self_sums on the square term and its
    gradient: E_ij = eps ((2d + 8)(1 + S_ij) + 2N + 4) K_ij + exp(-706),
    scaled by 1/N^2 and 2/(N^2 h^2) (see tests/test_kernels.py)."""
    n, d = x.shape
    centred = x - x.mean(axis=0)
    half_sq = np.sum(centred * centred, axis=1) / (2 * h * h)
    k = gram(x, KernelConfig.gaussian(h))
    e = np.finfo(float).eps * ((2 * d + 8) * (1 + half_sq[:, None] + half_sq) + 2 * n + 4) * k
    e += np.exp(-706.0)
    rows = e.sum(axis=1)[:, None] * np.abs(centred) + e @ np.abs(centred)
    return e.sum() / (n * n), 2.0 / (n * n * h * h) * rows


def assert_within_declared_bound(value, grad, x, target, kernel, noise):
    """The density closure's value and gradient against the probe-matrix and
    Gram formula.  The cross term's per-particle density sums r and gradient
    sums of the probe matrix may move by 1e-10 |r| + 1e-11 max|r|, times the
    closure's factor 2 C_h / (N L); the square term by the bound of
    gaussian_self_sums, twice over, since the Gram reference rounds its
    exponents too; plus a few ulps of the assembly."""
    (n, d), h = x.shape, kernel.bandwidth
    ref_value, ref_grad = einsum_gaussian_density(x, target, kernel, noise)
    vals, grads = target.density_and_grad(_shifted_probes(x, h * noise.xi))
    sums = np.abs(grads.reshape(n, -1, d).sum(axis=1))
    vals = np.abs(vals.reshape(n, -1).sum(axis=1))
    factor = 2.0 / n * gaussian_normalizer(d, h) / noise.n_samples
    eps = np.finfo(float).eps
    square_value_slack, square_grad_slack = square_term_slack(x, h)
    value_bound = factor * np.sum(1e-10 * vals + 1e-11 * vals.max()) + 2 * square_value_slack
    value_bound += 4 * eps * (abs(ref_value) + 2 * factor * vals.sum())
    grad_bound = factor * (1e-10 * sums + 1e-11 * sums.max()) + 2 * square_grad_slack
    grad_bound += 4 * eps * (np.abs(ref_grad) + 2 * factor * sums)
    assert abs(value - ref_value) <= value_bound
    assert np.all(np.abs(grad - ref_grad) <= grad_bound)


def unit_differences(a, b):
    """(x_i - y_j)/|x_i - y_j| with coincident pairs mapped to 0, and the
    distances: the N x M x d energy-distance formula, kept as its reference."""
    diff = a[:, None, :] - b[None, :, :]
    dist = pairwise_distances(a, b)
    safe = np.where(dist > 0.0, dist, 1.0)
    units = diff / safe[:, :, None]
    units[dist == 0.0] = 0.0
    return units, dist


def unit_difference_energy(x, batch):
    """Energy-distance closure value and gradient from the unit vectors."""
    n, m = x.shape[0], batch.shape[0]
    sq_units, sq_dist = unit_differences(x, x)
    cr_units, cr_dist = unit_differences(x, batch)
    square, square_grad = -float(sq_dist.sum()) / (n * n), -2.0 / (n * n) * sq_units.sum(axis=1)
    cross, cross_grad = -float(cr_dist.sum()) / m, -cr_units.sum(axis=1) / m
    return -2.0 / n * cross + square, -2.0 / n * cross_grad + square_grad


def energy_term_scale(x, batch):
    """Size of the terms the product form sums for each gradient entry:
    2/(NM) sum_j w_ij (|x_i| + |y_j|) + 2/N^2 sum_k w_ik (|x_i| + |x_k|),
    with w = 1/|x_i - y_j| and 0 on coincident pairs.  It bounds the
    entry's sum_j |unit vector| component from above."""
    n, m = x.shape[0], batch.shape[0]

    def part(y):
        dist = pairwise_distances(x, y)
        w = np.divide(1.0, dist, out=np.zeros_like(dist), where=dist > 0.0)
        return w.sum(axis=1)[:, None] * np.abs(x) + w @ np.abs(y)

    return 2.0 / (n * m) * part(batch) + 2.0 / (n * n) * part(x)


ENERGY = KernelConfig.negative_euclidean()
# Energy-distance gradient entries agree with the unit-vector sum to this
# fraction of energy_term_scale.
ENERGY_GRAD_RTOL = 1e-13


def assert_energy_matches_unit_vectors(x, batch):
    _, vg_fn = empirical_closures(batch, ENERGY)
    value, grad = vg_fn(x)
    ref_value, ref_grad = unit_difference_energy(x, batch)
    assert np.isfinite(value) and np.all(np.isfinite(grad))
    assert value == ref_value
    bound = ENERGY_GRAD_RTOL * energy_term_scale(x, batch)
    assert np.all(np.abs(grad - ref_grad) <= bound)


class TestOneGradientForm:
    """Every kernel cross sum, and the energy distance's square sum, takes
    its gradient from weighted_differences.  The empirical Gaussian
    closure's cross term is bitwise equal to the explicit formula, and its
    square term is the square-term pass within its declared bound
    (tests/test_kernels.py); the density closure is within the mixtures'
    declared bound on its cross term and that bound on its square term; the
    energy distance matches the unit-vector formula, its value bitwise and
    its gradient within ENERGY_GRAD_RTOL of the summed terms' size."""

    @pytest.mark.parametrize("d", [1, 2, 10])
    def test_gaussian_empirical_closure_bitwise(self, d):
        rng = np.random.default_rng(d)
        x = rng.normal(size=(40, d))
        batch = rng.normal(size=(33, d))
        kernel = KernelConfig.gaussian(0.7)
        _, vg_fn = empirical_closures(batch, kernel)
        value, grad = vg_fn(x)
        ref_value, ref_grad = einsum_gaussian_empirical(x, batch, kernel)
        assert value == ref_value
        np.testing.assert_array_equal(grad, ref_grad)

    @pytest.mark.parametrize("d,sigma", [(1, 0.8), (2, 1.0), (3, 0.5)])
    def test_gaussian_density_closure_within_declared_bound(self, d, sigma):
        target = isotropic_gaussian(d, sigma)
        rng = np.random.default_rng(target.dim)
        x = rng.normal(size=(25, target.dim))
        noise = McNoise.draw(rng, 30, target.dim)
        kernel = KernelConfig.gaussian(0.9)
        _, vg_fn = density_closures(target, kernel, noise)
        value, grad = vg_fn(x)
        assert_within_declared_bound(value, grad, x, target, kernel, noise)

    @pytest.mark.parametrize("n,m", [(30, 45), (200, 150)])
    @pytest.mark.parametrize("d", [1, 2, 10])
    def test_energy_closure_against_unit_vectors(self, d, n, m):
        rng = np.random.default_rng(100 * d + n)
        assert_energy_matches_unit_vectors(rng.normal(size=(n, d)), rng.normal(size=(m, d)))

    @pytest.mark.parametrize("gap", [1e-6, 1e-10])
    def test_energy_close_pairs_within_term_scale(self, gap):
        # w = 1/gap makes the cancelling terms large; the bound follows them.
        rng = np.random.default_rng(11)
        x = rng.normal(loc=3.0, size=(20, 2))
        batch = rng.normal(size=(25, 2))
        x[5] = x[4] + gap
        batch[7] = x[2] - gap
        assert_energy_matches_unit_vectors(x, batch)

    def test_energy_coincident_points_contribute_zero(self):
        rng = np.random.default_rng(8)
        x = rng.normal(size=(6, 2))
        x[3] = x[1]  # two coincident particles
        batch = np.vstack([rng.normal(size=(4, 2)), x[1], x[0]])
        assert_energy_matches_unit_vectors(x, batch)
        # Appending a batch row equal to particle 0 leaves its row unchanged
        # (the sums are sequential below 8 terms, so adding 0 is exact).
        def weighted(y):
            return _kernel_sum_and_grad(x[:1], y, cross_gram(x[:1], y, ENERGY), ENERGY)[1]

        np.testing.assert_array_equal(weighted(np.vstack([batch[:4], x[0]])), weighted(batch[:4]))

    @pytest.mark.parametrize("d", [1, 3])
    def test_energy_single_point_on_its_batch_has_zero_gradient(self, d):
        point = np.full((1, d), 0.4)
        _, vg_fn = empirical_closures(point.copy(), ENERGY)
        value, grad = vg_fn(point)
        assert value == 0.0
        np.testing.assert_array_equal(grad, 0.0)


def test_gaussian_normalizer_values():
    assert gaussian_normalizer(1, 1.0) == pytest.approx(np.sqrt(2 * np.pi), rel=1e-15)
    assert gaussian_normalizer(2, 0.5) == pytest.approx(2 * np.pi * 0.25, rel=1e-15)


def mixture_of(target):
    return target.density_and_grad.__self__


def convolved_mixture(mixture, x, h):
    """Closed form of the cross term's expectation per particle for a
    Gaussian mixture rho: E_xi C_h rho(x + h xi) = E_{y~rho} exp(-|x-y|^2/2h^2)
    = C_h sum_k w_k N(x; mu_k, Sigma_k + h^2 I), and its gradient in x,
    -C_h sum_k w_k N(x; mu_k, S_k) S_k^-1 (x - mu_k) with S_k = Sigma_k + h^2 I."""
    d = mixture.dim
    vals, grads = np.zeros(len(x)), np.zeros_like(x)
    for w, mu, cov in zip(mixture.weights, mixture.means, mixture.covariances):
        s = cov + h * h * np.eye(d)
        inv = np.linalg.inv(s)
        diff = x - mu
        dens = w * np.exp(-0.5 * np.einsum("nd,de,ne->n", diff, inv, diff))
        dens /= np.sqrt(np.linalg.det(2.0 * np.pi * s))
        vals += dens
        grads -= dens[:, None] * (diff @ inv)
    c_h = gaussian_normalizer(d, h)
    return c_h * vals, c_h * grads


def gauss_hermite_convolution(mixture, x, h, n_nodes=80):
    """The same expectation by tensor Gauss-Hermite quadrature, component by
    component, in the variable in which the integrand is smoother: over xi
    in C_h E_xi N(x + h xi; mu, Sigma) when h^2 < sigma_min sigma_max, else
    over z in E_z exp(-|x - mu - chol z|^2 / 2h^2), y = mu + chol z."""
    d = mixture.dim
    t, w = hermegauss(n_nodes)
    nodes = np.stack([g.ravel() for g in np.meshgrid(*([t] * d), indexing="ij")], axis=1)
    weights = np.prod(np.meshgrid(*([w] * d), indexing="ij"), axis=0).ravel()
    weights /= (2.0 * np.pi) ** (d / 2.0)
    c_h = gaussian_normalizer(d, h)
    vals, grads = np.zeros(len(x)), np.zeros_like(x)
    for wk, mu, cov in zip(mixture.weights, mixture.means, mixture.covariances):
        eig = np.linalg.eigvalsh(cov)
        for i, xi in enumerate(x):
            if h * h < np.sqrt(eig[0] * eig[-1]):
                diff = xi + h * nodes - mu
                inv = np.linalg.inv(cov)
                dens = np.exp(-0.5 * np.einsum("nd,de,ne->n", diff, inv, diff))
                dens *= c_h / np.sqrt(np.linalg.det(2.0 * np.pi * cov))
                vals[i] += wk * (weights @ dens)
                grads[i] -= wk * (weights @ (dens[:, None] * (diff @ inv)))
            else:
                diff = xi - (mu + nodes @ np.linalg.cholesky(cov).T)
                k = np.exp(-0.5 * np.sum(diff * diff, axis=1) / (h * h))
                vals[i] += wk * (weights @ k)
                grads[i] -= wk * (weights @ (k[:, None] * diff)) / (h * h)
    return vals, grads


ORACLE_BANDWIDTHS = [2.0, 0.7, 0.15]


class TestConvolutionOracle:
    """The density-branch cross term of a mixture target against its exact
    expectation: the closed form is checked by quadrature, then the
    Monte-Carlo estimate and its gradient against the closed form."""

    @pytest.mark.parametrize("h", ORACLE_BANDWIDTHS)
    @pytest.mark.parametrize(
        "make",
        [lambda: isotropic_gaussian(1, 1.0), lambda: isotropic_gaussian(2, 0.6), star_mixture, eight_mixture],
        ids=["gaussian1", "gaussian2", "star", "eight"],
    )
    def test_closed_form_matches_gauss_hermite(self, make, h):
        target = make()
        mixture = mixture_of(target)
        rng = np.random.default_rng(0)
        lower, upper = target.domain_box
        x = np.vstack([target.exact_sampler(rng, 4), rng.uniform(lower, upper, size=(4, target.dim))])
        vals, grads = convolved_mixture(mixture, x, h)
        q_vals, q_grads = gauss_hermite_convolution(mixture, x, h)
        np.testing.assert_allclose(q_vals, vals, rtol=1e-12, atol=0)
        assert np.all(np.abs(q_grads - grads) <= 1e-12 * np.abs(grads).max())

    @pytest.mark.parametrize("h", ORACLE_BANDWIDTHS)
    @pytest.mark.parametrize(
        "make", [star_mixture, eight_mixture, lambda: isotropic_gaussian(3, 1.0)],
        ids=["star", "eight", "gaussian3"],
    )
    def test_monte_carlo_within_clt_bound(self, make, h):
        target = make()
        rng = np.random.default_rng(0)
        x = target.exact_sampler(rng, 12)
        noise = McNoise.draw(rng, 2000, target.dim)
        (n, d), n_mc = x.shape, noise.n_samples
        c_h = gaussian_normalizer(d, h)
        val_sums, grad_sums = target.shifted_sweep(h * noise.xi)(x)
        est_vals = c_h / n_mc * val_sums
        est_grads = c_h / n_mc * grad_sums
        # per-probe sample standard deviations give the CLT standard errors
        probe_vals, probe_grads = target.density_and_grad(_shifted_probes(x, h * noise.xi))
        se_vals = c_h * probe_vals.reshape(n, n_mc).std(axis=1, ddof=1) / np.sqrt(n_mc)
        se_grads = c_h * probe_grads.reshape(n, n_mc, d).std(axis=1, ddof=1) / np.sqrt(n_mc)
        exact_vals, exact_grads = convolved_mixture(mixture_of(target), x, h)
        assert np.all(np.abs(est_vals - exact_vals) <= 5.0 * se_vals)
        assert np.all(np.abs(est_grads - exact_grads) <= 5.0 * se_grads)
        # the public cross term is the particles' sum of the same estimate
        cross = cross_term_density(x, target, h, noise)
        assert cross == pytest.approx(est_vals.sum(), rel=1e-12)


def test_density_value_and_grad_builds_no_probe_matrix():
    # At N = 200, L = 500, d = 2 an (N·L, d) float array alone is 1.5 MiB.
    target = eight_mixture()
    rng = np.random.default_rng(0)
    x = rng.uniform(-4.0, 4.0, size=(200, 2))
    noise = McNoise.draw(rng, 500, 2)
    _, vg_fn = density_closures(target, KernelConfig.gaussian(0.7), noise)
    vg_fn(x)
    tracemalloc.start()
    try:
        vg_fn(x)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3 * 2**20
