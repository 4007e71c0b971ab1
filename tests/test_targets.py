import numpy as np
import pytest
from scipy.integrate import simpson

from evi_mmd import (
    DensityTarget,
    GaussianMixture,
    InvalidArgumentError,
    eight_mixture,
    isotropic_gaussian,
    mixture_sampler,
    star_mixture,
    wave_density,
)
from evi_mmd.model import _ProbeSweep
from evi_mmd.targets import _SWEEP_ROWS, EIGHT_MIXTURE_MEANS


def integrate_2d(density, box, n_nodes=801):
    """Tensor-grid Simpson quadrature oracle for 2-d densities."""
    xs = np.linspace(box[0], box[1], n_nodes)
    ys = np.linspace(box[0], box[1], n_nodes)
    gx, gy = np.meshgrid(xs, ys, indexing="ij")
    pts = np.stack([gx.ravel(), gy.ravel()], axis=1)
    vals = density(pts).reshape(n_nodes, n_nodes)
    return simpson(simpson(vals, x=ys, axis=1), x=xs)


def finite_diff_rows(density, pts, step=1e-6):
    out = np.zeros_like(pts)
    for j in range(pts.shape[1]):
        e = np.zeros(pts.shape[1])
        e[j] = step
        out[:, j] = (density(pts + e) - density(pts - e)) / (2 * step)
    return out


def einsum_accumulate(mixture, x):
    """The einsum formula of the mixture sweep, kept as its reference."""
    x = np.atleast_2d(np.asarray(x, dtype=float))
    dens = np.zeros(x.shape[0])
    grad = np.zeros_like(x)
    for k in range(mixture.n_components):
        diff = x - mixture.means[k]
        pulled = np.einsum("nd,de->ne", diff, mixture._inv[k])
        quad = np.einsum("nd,nd->n", diff, pulled)
        comp = mixture._norm[k] * np.exp(-0.5 * quad)
        dens += comp
        grad -= comp[:, None] * pulled
    return dens, grad


def gradient_term_scale(mixture, x):
    """Sum over components of comp_k * (|diff| @ |inv_k|): the size of the
    terms each gradient entry sums, so a relative bound on it holds where the
    terms cancel."""
    x = np.atleast_2d(np.asarray(x, dtype=float))
    scale = np.zeros_like(x)
    for k in range(mixture.n_components):
        diff = x - mixture.means[k]
        quad = np.einsum("nd,de,ne->n", diff, mixture._inv[k], diff)
        comp = mixture._norm[k] * np.exp(-0.5 * quad)
        scale += comp[:, None] * (np.abs(diff) @ np.abs(mixture._inv[k]))
    return scale


def random_mixture(d, seed, k=4):
    """K-component mixture with random weights, means and full covariances."""
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(k, d, d))
    cov = a @ np.swapaxes(a, 1, 2) / d + 0.5 * np.eye(d)
    cov = 0.5 * (cov + np.swapaxes(cov, 1, 2))
    w = rng.uniform(0.5, 1.5, size=k)
    return GaussianMixture(
        weights=w / w.sum(), means=rng.normal(size=(k, d)), covariances=cov
    )


def mixture_of(target):
    return target.density_and_grad.__self__


ALL_BUILTINS = {
    "star": star_mixture,
    "eight": eight_mixture,
    "wave": wave_density,
    "gaussian3": lambda: isotropic_gaussian(3, 1.0),
}


class TestGaussianMixtureType:
    def test_rejects_unnormalized_weights(self):
        with pytest.raises(InvalidArgumentError):
            GaussianMixture(
                weights=[0.5, 0.6],
                means=np.zeros((2, 1)),
                covariances=np.ones((2, 1, 1)),
            )

    def test_rejects_negative_weight(self):
        with pytest.raises(InvalidArgumentError):
            GaussianMixture(
                weights=[1.5, -0.5],
                means=np.zeros((2, 1)),
                covariances=np.ones((2, 1, 1)),
            )

    def test_rejects_asymmetric_covariance(self):
        cov = np.array([[[1.0, 0.5], [0.0, 1.0]]])
        with pytest.raises(InvalidArgumentError):
            GaussianMixture(weights=[1.0], means=np.zeros((1, 2)), covariances=cov)

    def test_rejects_indefinite_covariance(self):
        cov = np.array([[[1.0, 2.0], [2.0, 1.0]]])  # eigenvalues 3, -1
        with pytest.raises(InvalidArgumentError):
            GaussianMixture(weights=[1.0], means=np.zeros((1, 2)), covariances=cov)


class TestStarMixture:
    def test_first_component(self):
        theta = 2 * np.pi / 5
        rot = np.array([[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]])
        target = star_mixture()
        # recover components through density evaluations at the known means
        mean1 = np.array([1.5, 0.0])
        mean2 = rot @ mean1
        d1 = target.density(mean1[None])[0]
        d2 = target.density(mean2[None])[0]
        assert d1 == pytest.approx(d2, rel=1e-12)  # five-fold symmetry

    def test_density_integrates_to_one(self):
        target = star_mixture()
        total = integrate_2d(target.density, (-8.0, 8.0))
        assert total == pytest.approx(1.0, abs=1e-3)

    def test_domain_box(self):
        target = star_mixture()
        np.testing.assert_array_equal(target.domain_box[0], [-2.0, -2.0])
        np.testing.assert_array_equal(target.domain_box[1], [2.0, 2.0])


class TestEightMixture:
    def test_second_mean(self):
        np.testing.assert_array_equal(EIGHT_MIXTURE_MEANS[1], [2.8, 2.8])

    def test_mode_dominates_center_by_1000x(self):
        target = eight_mixture()
        at_mode = target.density(np.array([[0.0, 4.0]]))[0]
        at_center = target.density(np.array([[0.0, 0.0]]))[0]
        assert at_mode > 1e3 * at_center

    def test_density_integrates_to_one(self):
        target = eight_mixture()
        total = integrate_2d(target.density, (-9.0, 9.0))
        assert total == pytest.approx(1.0, abs=1e-3)


class TestWaveDensity:
    def test_value_at_origin(self):
        target = wave_density()
        assert target.density(np.zeros((1, 2)))[0] == pytest.approx(1 / 9.93, rel=1e-12)

    def test_gradient_stationary_in_x2_at_origin(self):
        target = wave_density()
        g = target.grad_density(np.zeros((1, 2)))[0]
        assert g[1] == pytest.approx(0.0, abs=1e-15)

    def test_integrates_to_one_within_two_percent(self):
        # the 9.93 constant is a rounding of pi*sqrt(10); quadrature absorbs it
        target = wave_density()
        total = integrate_2d(target.density, (-10.0, 10.0), n_nodes=1201)
        assert abs(total - 1.0) < 0.02

    def test_exact_sampler_matches_density_moments(self):
        target = wave_density()
        rng = np.random.default_rng(0)
        samples = target.exact_sampler(rng, 200_000)
        # x1 ~ N(0, 5): sd of the mean estimate is sqrt(5/n)
        assert abs(samples[:, 0].mean()) < 3 * np.sqrt(5 / 2e5)
        assert samples[:, 0].var() == pytest.approx(5.0, rel=0.03)
        resid = samples[:, 1] - np.sin(np.pi * samples[:, 0])
        assert resid.var() == pytest.approx(0.5, rel=0.03)


class TestIsotropicGaussian:
    def test_standard_normal_density_at_zero(self):
        target = isotropic_gaussian(1, 1.0)
        assert target.density(np.zeros((1, 1)))[0] == pytest.approx(
            (2 * np.pi) ** -0.5, rel=1e-12
        )

    def test_gradient_zero_at_mean(self):
        target = isotropic_gaussian(4, 2.0)
        np.testing.assert_allclose(
            target.grad_density(np.zeros((1, 4))), 0.0, atol=1e-18
        )

    def test_sampler_mean_within_clt_bound(self):
        target = isotropic_gaussian(3, 1.0)
        samples = target.exact_sampler(np.random.default_rng(42), 100_000)
        assert np.all(np.abs(samples.mean(axis=0)) < 0.02)

    @pytest.mark.parametrize("d,sigma", [(0, 1.0), (2, 0.0), (2, -1.0)])
    def test_rejects_bad_parameters(self, d, sigma):
        with pytest.raises(InvalidArgumentError):
            isotropic_gaussian(d, sigma)


class TestMixtureSampler:
    def test_degenerate_weights_hit_single_component(self):
        gm = GaussianMixture(
            weights=[1.0, 0.0],
            means=np.array([[0.0], [100.0]]),
            covariances=np.full((2, 1, 1), 0.01),
        )
        samples = mixture_sampler(gm, 500, np.random.default_rng(1))
        assert np.all(np.abs(samples) < 10.0)

    def test_eight_mixture_occupancy(self):
        target = eight_mixture()
        samples = target.exact_sampler(np.random.default_rng(2), 100_000)
        from evi_mmd import mode_occupancy

        occ = mode_occupancy(samples, EIGHT_MIXTURE_MEANS)
        np.testing.assert_allclose(occ, 0.125, atol=0.005)

    def test_fixed_seed_reproducible(self):
        target = star_mixture()
        a = target.exact_sampler(np.random.default_rng(7), 100)
        b = target.exact_sampler(np.random.default_rng(7), 100)
        np.testing.assert_array_equal(a, b)


@pytest.mark.parametrize("name", sorted(ALL_BUILTINS))
def test_gradients_match_finite_differences(name):
    target = ALL_BUILTINS[name]()
    rng = np.random.default_rng(13)
    lower, upper = target.domain_box
    pts = rng.uniform(lower, upper, size=(100, target.dim))
    analytic = target.grad_density(pts)
    numeric = finite_diff_rows(target.density, pts)
    scale = np.maximum(np.abs(analytic), np.max(np.abs(analytic)) * 1e-3)
    assert np.max(np.abs(analytic - numeric) / scale) < 1e-5


@pytest.mark.parametrize("name", sorted(ALL_BUILTINS))
def test_density_positive_on_domain_box(name):
    target = ALL_BUILTINS[name]()
    rng = np.random.default_rng(4)
    lower, upper = target.domain_box
    pts = rng.uniform(lower, upper, size=(500, target.dim))
    assert np.all(target.density(pts) > 0.0)


@pytest.mark.parametrize("name", sorted(ALL_BUILTINS))
def test_fused_density_and_grad_agrees(name):
    target = ALL_BUILTINS[name]()
    rng = np.random.default_rng(8)
    lower, upper = target.domain_box
    pts = rng.uniform(lower, upper, size=(50, target.dim))
    vals, grads = target.density_and_grad(pts)
    np.testing.assert_array_equal(vals, target.density(pts))
    np.testing.assert_array_equal(grads, target.grad_density(pts))


SWEEP_BUILTINS = {
    "star": star_mixture,
    "eight": eight_mixture,
    "gaussian1": lambda: isotropic_gaussian(1, 1.0),
    "gaussian2": lambda: isotropic_gaussian(2, 0.7),
}


class TestMixtureSweep:
    """The per-coordinate sweep against the einsum formula: bitwise at
    d <= 2, within rtol 1e-13 at d >= 3 where einsum groups its sums
    differently."""

    @pytest.mark.parametrize("name", sorted(SWEEP_BUILTINS))
    def test_bitwise_equal_to_einsum_on_builtins(self, name):
        mixture = mixture_of(SWEEP_BUILTINS[name]())
        # Rows enough for three passes of the sweep, the last one short.
        rows = 2 * _SWEEP_ROWS + 5
        pts = np.random.default_rng(17).normal(scale=3.0, size=(rows, mixture.dim))
        vals, grads = mixture.density_and_grad(pts)
        ref_vals, ref_grads = einsum_accumulate(mixture, pts)
        np.testing.assert_array_equal(vals, ref_vals)
        np.testing.assert_array_equal(grads, ref_grads)

    @pytest.mark.parametrize("d", [3, 5, 10])
    def test_close_to_einsum_in_higher_dimension(self, d):
        mixture = random_mixture(d, seed=d)
        rng = np.random.default_rng(100 + d)
        comp = rng.integers(mixture.n_components, size=2000)
        pts = mixture.means[comp] + rng.normal(size=(2000, d))
        vals, grads = mixture.density_and_grad(pts)
        ref_vals, ref_grads = einsum_accumulate(mixture, pts)
        np.testing.assert_allclose(vals, ref_vals, rtol=1e-13, atol=0)
        # Entries whose terms cancel are held to rtol against the terms' size.
        bound = 1e-13 * gradient_term_scale(mixture, pts)
        assert np.all(np.abs(grads - ref_grads) <= bound)

    @pytest.mark.parametrize(
        "mixture",
        [mixture_of(eight_mixture()), mixture_of(isotropic_gaussian(3, 1.0))]
        + [random_mixture(d, seed=d) for d in (5, 10)],
        ids=["eight", "gaussian3", "random5", "random10"],
    )
    def test_density_bitwise_equal_to_fused_value(self, mixture):
        pts = np.random.default_rng(3).normal(size=(500, mixture.dim))
        np.testing.assert_array_equal(
            mixture.density(pts), mixture.density_and_grad(pts)[0]
        )

    @pytest.mark.parametrize(
        "make,point",
        [(lambda: isotropic_gaussian(1, 1.0), [0.3]), (eight_mixture, [0.1, 3.7])],
        ids=["gaussian1", "eight"],
    )
    def test_single_unbatched_point(self, make, point):
        mixture = mixture_of(make())
        vals, grads = mixture.density_and_grad(np.array(point))
        ref_vals, ref_grads = einsum_accumulate(mixture, np.array(point))
        assert vals.shape == (1,) and grads.shape == (1, len(point))
        np.testing.assert_array_equal(vals, ref_vals)
        np.testing.assert_array_equal(grads, ref_grads)
        np.testing.assert_array_equal(mixture.density(np.array(point)), ref_vals)

    @pytest.mark.parametrize("method", ["density", "density_and_grad"])
    @pytest.mark.parametrize(
        "make,cols",
        [(lambda: isotropic_gaussian(1, 1.0), 2), (eight_mixture, 1), (eight_mixture, 3)],
        ids=["1d-mixture-2-columns", "eight-1-column", "eight-3-columns"],
    )
    def test_probe_dimension_mismatch_rejected(self, make, cols, method):
        mixture = mixture_of(make())
        with pytest.raises(InvalidArgumentError, match="probes"):
            getattr(mixture, method)(np.zeros((4, cols)))

    def test_zero_rows(self):
        mixture = mixture_of(eight_mixture())
        vals, grads = mixture.density_and_grad(np.empty((0, 2)))
        assert vals.shape == (0,) and grads.shape == (0, 2)
        assert mixture.density(np.empty((0, 2))).shape == (0,)

    @pytest.mark.parametrize(
        "layout",
        [lambda x: x[::2], np.asfortranarray, lambda x: np.asfortranarray(x)[::3]],
        ids=["strided", "fortran", "fortran-strided"],
    )
    def test_non_contiguous_input(self, layout):
        mixture = mixture_of(star_mixture())
        pts = layout(np.random.default_rng(5).normal(size=(301, 2)))
        vals, grads = mixture.density_and_grad(pts)
        ref_vals, ref_grads = einsum_accumulate(mixture, pts)
        np.testing.assert_array_equal(vals, ref_vals)
        np.testing.assert_array_equal(grads, ref_grads)
        assert grads.flags.c_contiguous == ref_grads.flags.c_contiguous


def point_mixtures(d):
    """Mixtures in d dimensions, each with a mean coordinate at exactly 0.0,
    where a -0.0 point coordinate and a +0.0 one give differently signed
    differences."""
    random = random_mixture(d, seed=30 + d)
    means = random.means.copy()
    means[0] = 0.0
    zero_mean = GaussianMixture(random.weights, means, random.covariances)
    builtins = [star_mixture(), eight_mixture()] if d == 2 else []
    return [mixture_of(isotropic_gaussian(d, 1.5)), zero_mean] + [
        mixture_of(t) for t in builtins
    ]


class TestPointSweep:
    """Point evaluations are the shifted sweep with the one offset 0: their
    bytes are those of a single ``_sweep`` over the transposed points."""

    @pytest.mark.parametrize("layout", ["C", "F"])
    @pytest.mark.parametrize(
        "n", [0, 1, _SWEEP_ROWS - 1, _SWEEP_ROWS, _SWEEP_ROWS + 1, 20000]
    )
    @pytest.mark.parametrize("d", [1, 2, 3, 10])
    def test_bitwise_equal_to_one_sweep(self, d, n, layout):
        rng = np.random.default_rng(1000 * d + n)
        x = rng.normal(scale=3.0, size=(n, d))
        x[rng.random((n, d)) < 0.1] = -0.0
        x[::7] = -0.0
        x = np.array(x, order=layout)
        for mixture in point_mixtures(d):
            ref_dens, ref_grad_t = mixture._sweep(np.ascontiguousarray(x.T), with_grad=True)
            dens, grads = mixture.density_and_grad(x)
            assert dens.tobytes() == ref_dens.tobytes()
            assert grads.tobytes() == ref_grad_t.T.tobytes()
            assert grads.flags.c_contiguous == x.flags.c_contiguous
            assert grads.flags.f_contiguous == x.flags.f_contiguous
            assert mixture.density(x).tobytes() == ref_dens.tobytes()
            assert mixture.grad_density(x).tobytes() == ref_grad_t.T.tobytes()


def probe_path(target, x, offsets):
    """Density and L-summed gradient through ``density_and_grad`` on the
    (N·L, d) probe matrix: the reference of ``shifted_density_and_grad``."""
    n, d = x.shape
    probes = (x[:, None, :] + offsets[None, :, :]).reshape(-1, d)
    vals, grads = target.density_and_grad(probes)
    return vals, grads.reshape(n, -1, d).sum(axis=1)


SHIFTED_TARGETS = {
    "star": star_mixture,
    "eight": eight_mixture,
    "wave": wave_density,
    "gaussian1": lambda: isotropic_gaussian(1, 1.0),
    "gaussian2": lambda: isotropic_gaussian(2, 1.0),
    "gaussian3": lambda: isotropic_gaussian(3, 1.0),
    "random3": lambda: random_mixture(3, seed=3),
    "random5": lambda: random_mixture(5, seed=5),
    "random10": lambda: random_mixture(10, seed=10),
}


class TestShiftedSweep:
    """``shifted_density_and_grad`` returns the bytes of the probe path:
    the mixtures' probe-free sweep and the fallback of other targets."""

    # N = 200 with L = 20000 is left out: its reference probe matrix alone
    # takes 32-320 MB.  L = 20000 > _SWEEP_ROWS still runs at N = 1 and 17.
    @pytest.mark.parametrize(
        "n,n_off",
        [(1, 1), (1, 500), (1, 20000), (17, 1), (17, 500), (17, 20000), (200, 1), (200, 500)],
    )
    @pytest.mark.parametrize("name", sorted(SHIFTED_TARGETS))
    def test_bitwise_equal_to_probe_path(self, name, n, n_off):
        target = SHIFTED_TARGETS[name]()
        d = target.dim
        rng = np.random.default_rng(n + n_off + d)
        x = rng.normal(scale=2.0, size=(n, d))
        offsets = 0.7 * rng.normal(size=(n_off, d))
        vals, grad_sums = target.shifted_density_and_grad(x, offsets)
        ref_vals, ref_sums = probe_path(target, x, offsets)
        assert vals.shape == (n * n_off,) and grad_sums.shape == (n, d)
        assert vals.tobytes() == ref_vals.tobytes()
        assert grad_sums.tobytes() == ref_sums.tobytes()

    def test_particles_per_pass_boundary(self):
        # _SWEEP_ROWS // L particles per pass, with a short last pass.
        mixture = mixture_of(eight_mixture())
        n_off = 1000
        per_pass = _SWEEP_ROWS // n_off
        rng = np.random.default_rng(9)
        x = rng.normal(scale=3.0, size=(2 * per_pass + 3, 2))
        offsets = rng.normal(size=(n_off, 2))
        vals, grad_sums = mixture.shifted_density_and_grad(x, offsets)
        ref_vals, ref_sums = probe_path(mixture, x, offsets)
        assert vals.tobytes() == ref_vals.tobytes()
        assert grad_sums.tobytes() == ref_sums.tobytes()

    def test_non_contiguous_inputs(self):
        # The reference's own sum order follows its input layout, so it runs
        # on C-ordered copies: the layout the density closure passes.
        target = star_mixture()
        rng = np.random.default_rng(4)
        x = np.asfortranarray(rng.normal(size=(41, 2)))[::2]
        offsets = np.asfortranarray(rng.normal(size=(300, 2)))[::3]
        vals, grad_sums = target.shifted_density_and_grad(x, offsets)
        ref_vals, ref_sums = probe_path(
            target, np.ascontiguousarray(x), np.ascontiguousarray(offsets)
        )
        assert vals.tobytes() == ref_vals.tobytes()
        assert grad_sums.tobytes() == ref_sums.tobytes()

    def test_probe_path_is_layout_independent(self):
        # Fortran-ordered particles and offsets keep their layout through the
        # probe matrix into the mixture's gradient; the sum over l must not
        # follow it.
        target = star_mixture()
        sweep = _ProbeSweep(target.density_and_grad, target.dim)
        rng = np.random.default_rng(21)
        x = rng.normal(scale=2.0, size=(21, 2))
        offsets = 0.7 * rng.normal(size=(100, 2))
        vals, grad_sums = sweep(np.asfortranarray(x), np.asfortranarray(offsets))
        ref_vals, ref_sums = sweep(x, offsets)
        assert vals.tobytes() == ref_vals.tobytes()
        assert grad_sums.tobytes() == ref_sums.tobytes()

    def test_fortran_ordered_user_gradient(self):
        star = star_mixture()

        def fortran_density_and_grad(probes):
            vals, grads = star.density_and_grad(probes)
            return vals, np.asfortranarray(grads)

        user = DensityTarget(
            density=star.density,
            grad_density=star.grad_density,
            domain_box=star.domain_box,
            density_and_grad=fortran_density_and_grad,
        )
        rng = np.random.default_rng(22)
        x = rng.normal(scale=2.0, size=(21, 2))
        offsets = 0.7 * rng.normal(size=(100, 2))
        vals, grad_sums = user.shifted_density_and_grad(x, offsets)
        ref_vals, ref_sums = probe_path(star, x, offsets)
        assert vals.tobytes() == ref_vals.tobytes()
        assert grad_sums.tobytes() == ref_sums.tobytes()

    def test_zero_particles(self):
        for target in (eight_mixture(), wave_density()):
            vals, grad_sums = target.shifted_density_and_grad(np.empty((0, 2)), np.ones((5, 2)))
            assert vals.shape == (0,) and grad_sums.shape == (0, 2)

    @pytest.mark.parametrize(
        "x_shape,offsets_shape,match",
        [
            ((4, 2), (5,), "offsets"),
            ((4, 2), (1, 5, 2), "offsets"),
            ((4, 2), (0, 2), "offsets"),
            ((4, 2), (5, 1), "offsets"),
            ((4, 2), (5, 3), "offsets"),
            ((4, 1), (5, 2), "particles"),
            ((4, 3), (5, 2), "particles"),
            ((8,), (5, 2), "particles"),
        ],
        ids=[
            "offsets-vector", "offsets-rank-3", "no-offsets", "offsets-d1", "offsets-d3",
            "particles-d1", "particles-d3", "particles-vector",
        ],
    )
    @pytest.mark.parametrize("name", ["eight", "wave"], ids=["mixture", "fallback"])
    def test_rejects_bad_shapes(self, name, x_shape, offsets_shape, match):
        target = SHIFTED_TARGETS[name]()
        with pytest.raises(InvalidArgumentError, match=match):
            target.shifted_density_and_grad(np.zeros(x_shape), np.zeros(offsets_shape))

    def test_mixture_targets_bind_the_probe_free_sweep(self):
        target = eight_mixture()
        assert target.shifted_density_and_grad.__self__ is mixture_of(target)
        assert target.shifted_density_and_grad.__func__ is GaussianMixture.shifted_density_and_grad
