import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from evi_mmd import InvalidArgumentError, KernelConfig, eight_mixture
from evi_mmd import kernels
from evi_mmd.kernels import (
    cross_gram,
    gauss_eval,
    gauss_grad_x,
    gram,
    neg_euclid_eval,
    pairwise_distances,
    squared_distances,
    weighted_differences,
)

coords = st.floats(min_value=-10, max_value=10, allow_nan=False, allow_infinity=False)


def vectors(dim):
    return arrays(float, (dim,), elements=coords)


def finite_diff_grad(f, x, step=1e-5):
    """Central-difference gradient, the independent oracle for analytic grads."""
    g = np.zeros_like(x, dtype=float)
    for i in range(x.size):
        e = np.zeros_like(x, dtype=float)
        e[i] = step
        g[i] = (f(x + e) - f(x - e)) / (2 * step)
    return g


class TestGaussEval:
    def test_identity_case(self):
        assert gauss_eval([0.3, -1.2], [0.3, -1.2], 1.0) == 1.0

    def test_hand_value_1d(self):
        assert gauss_eval([0.0], [1.0], 1.0) == pytest.approx(np.exp(-0.5), rel=1e-12)

    @pytest.mark.parametrize("h", [0.3, 1.0, 2.5])
    def test_distance_h_sqrt2_gives_exp_minus_one(self, h):
        x = np.zeros(2)
        y = np.array([h * np.sqrt(2.0), 0.0])
        assert gauss_eval(x, y, h) == pytest.approx(np.exp(-1.0), rel=1e-12)

    @pytest.mark.parametrize("bad_h", [0.0, -1.0, np.nan])
    def test_rejects_bad_bandwidth(self, bad_h):
        with pytest.raises(InvalidArgumentError):
            gauss_eval([0.0], [1.0], bad_h)

    def test_rejects_non_finite_input(self):
        with pytest.raises(InvalidArgumentError):
            gauss_eval([np.inf], [1.0], 1.0)

    @given(st.data())
    def test_in_unit_interval_and_symmetric(self, data):
        d = data.draw(st.integers(1, 4))
        x = data.draw(vectors(d))
        y = data.draw(vectors(d))
        h = data.draw(st.floats(min_value=0.05, max_value=5.0))
        v = gauss_eval(x, y, h)
        assert 0.0 <= v <= 1.0
        if np.sum((x - y) ** 2) / (2 * h * h) < 700:  # exp not underflowed
            assert v > 0.0
        assert v == gauss_eval(y, x, h)


class TestGaussGrad:
    def test_zero_at_coincident_points(self):
        g = gauss_grad_x([1.0, 2.0], [1.0, 2.0], 0.7)
        assert np.all(g == 0.0)

    def test_hand_value_1d(self):
        g = gauss_grad_x([1.0], [0.0], 1.0)
        assert g[0] == pytest.approx(-np.exp(-0.5), rel=1e-12)

    def test_antisymmetry(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            x, y = rng.normal(size=(2, 3))
            h = rng.uniform(0.2, 3.0)
            np.testing.assert_allclose(
                gauss_grad_x(x, y, h), -gauss_grad_x(y, x, h), rtol=0, atol=0
            )

    def test_matches_finite_differences_at_100_probes(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            d = rng.integers(1, 5)
            x = rng.normal(size=d)
            y = rng.normal(size=d)
            h = rng.uniform(0.3, 3.0)
            analytic = gauss_grad_x(x, y, h)
            numeric = finite_diff_grad(lambda z: gauss_eval(z, y, h), x)
            np.testing.assert_allclose(analytic, numeric, rtol=1e-6, atol=1e-9)


class TestNegEuclid:
    def test_identity_case(self):
        assert neg_euclid_eval([2.0, 2.0], [2.0, 2.0]) == 0.0

    def test_direct_norm_1d(self):
        assert neg_euclid_eval([0.0], [3.0]) == -3.0

    def test_three_four_five(self):
        assert neg_euclid_eval([0.0, 0.0], [3.0, 4.0]) == pytest.approx(-5.0, rel=1e-15)

    @given(st.data())
    def test_non_positive(self, data):
        d = data.draw(st.integers(1, 4))
        x = data.draw(vectors(d))
        y = data.draw(vectors(d))
        assert neg_euclid_eval(x, y) <= 0.0


class TestGramMatrices:
    def test_single_point_gaussian(self):
        np.testing.assert_array_equal(
            gram(np.zeros((1, 3)), KernelConfig.gaussian(1.0)), [[1.0]]
        )

    def test_two_identical_points(self):
        pts = np.array([[0.5, -0.5], [0.5, -0.5]])
        np.testing.assert_array_equal(
            gram(pts, KernelConfig.gaussian(2.0)), np.ones((2, 2))
        )

    @pytest.mark.parametrize(
        "kernel",
        [KernelConfig.gaussian(0.8), KernelConfig.negative_euclidean()],
        ids=["gaussian", "negative_euclidean"],
    )
    def test_matches_entrywise_loop_oracle(self, kernel):
        rng = np.random.default_rng(11)
        pts = rng.normal(size=(3, 2))
        got = gram(pts, kernel)
        for i in range(3):
            for j in range(3):
                if kernel.is_gaussian:
                    expect = gauss_eval(pts[i], pts[j], kernel.bandwidth)
                else:
                    expect = neg_euclid_eval(pts[i], pts[j])
                assert got[i, j] == pytest.approx(expect, rel=1e-14, abs=1e-15)

    def test_exact_symmetry_and_unit_diagonal(self):
        rng = np.random.default_rng(5)
        pts = rng.normal(size=(40, 3))
        k = gram(pts, KernelConfig.gaussian(1.3))
        assert np.array_equal(k, k.T)
        assert np.all(np.diag(k) == 1.0)
        assert np.all((k > 0.0) & (k <= 1.0))

    def test_cross_gram_on_same_set_equals_gram_off_diagonal(self):
        rng = np.random.default_rng(9)
        pts = rng.normal(size=(6, 2))
        kernel = KernelConfig.gaussian(1.0)
        full = gram(pts, kernel)
        cross = cross_gram(pts, pts, kernel)
        np.testing.assert_allclose(cross, full, rtol=0, atol=1e-15)

    def test_cross_gram_single_pair(self):
        a = np.array([[1.0, 0.0]])
        b = np.array([[0.0, 0.0]])
        kernel = KernelConfig.gaussian(1.0)
        got = cross_gram(a, b, kernel)
        assert got.shape == (1, 1)
        assert got[0, 0] == pytest.approx(gauss_eval(a[0], b[0], 1.0), rel=1e-15)

    def test_cross_gram_matches_loop_oracle(self):
        rng = np.random.default_rng(21)
        a = rng.normal(size=(2, 3))
        b = rng.normal(size=(3, 3))
        kernel = KernelConfig.gaussian(0.6)
        got = cross_gram(a, b, kernel)
        for i in range(2):
            for j in range(3):
                assert got[i, j] == pytest.approx(
                    gauss_eval(a[i], b[j], 0.6), rel=1e-14
                )

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(InvalidArgumentError):
            cross_gram(np.zeros((2, 2)), np.zeros((2, 3)), KernelConfig.gaussian(1.0))

    def test_chunking_boundary_consistency(self):
        # exercise the >256-row chunked path against the small-path result
        rng = np.random.default_rng(2)
        pts = rng.normal(size=(300, 2))
        dist = pairwise_distances(pts, pts)
        sub = pairwise_distances(pts[250:], pts)
        np.testing.assert_array_equal(dist[250:], sub)


def einsum_squared_distances(a, b):
    """The einsum formula of the squared-distance kernel, kept as its
    reference."""
    diff = a[:, None, :] - b[None, :, :]
    return np.einsum("ijd,ijd->ij", diff, diff)


def einsum_kernel_matrices(a, b, h):
    """Squared distances, distances, and Gaussian and energy kernel matrices
    by the einsum formula."""
    sq = einsum_squared_distances(a, b)
    dist = np.sqrt(np.maximum(sq, 0.0))
    return sq, dist, np.exp(-sq / (2.0 * h**2)), -dist


def kernel_matrices(a, b, h, square):
    """The same four matrices from the package; ``square`` builds the kernel
    matrices with ``gram`` (diagonal set exactly), else with ``cross_gram``."""
    if square:
        gauss = gram(a, KernelConfig.gaussian(h))
        energy = gram(a, KernelConfig.negative_euclidean())
    else:
        gauss = cross_gram(a, b, KernelConfig.gaussian(h))
        energy = cross_gram(a, b, KernelConfig.negative_euclidean())
    return squared_distances(a, b), pairwise_distances(a, b), gauss, energy


class TestCoordinateAccumulation:
    """Squared distances summed one coordinate at a time against the einsum
    formula: bitwise at d <= 2, within rtol 1e-13 at d >= 3 where einsum
    groups its sum differently."""

    @pytest.mark.parametrize("square", [False, True], ids=["cross", "gram"])
    @pytest.mark.parametrize("d", [1, 2, 10])
    def test_matches_einsum(self, d, square):
        rng = np.random.default_rng(d)
        a = rng.normal(scale=2.0, size=(300, d))
        b = a if square else rng.normal(size=(70, d))
        got = kernel_matrices(a, b, 1.3, square)
        ref = list(einsum_kernel_matrices(a, b, 1.3))
        if square:
            np.fill_diagonal(ref[2], 1.0)
            np.fill_diagonal(ref[3], 0.0)
        for g, r in zip(got, ref):
            if d <= 2:
                np.testing.assert_array_equal(g, r)
            else:
                np.testing.assert_allclose(g, r, rtol=1e-13, atol=0)

    @pytest.mark.parametrize("rows", [255, 256, 257, 513])
    def test_chunked_equals_unchunked(self, rows, monkeypatch):
        rng = np.random.default_rng(rows)
        a = rng.normal(size=(rows, 3))
        b = rng.normal(size=(40, 3))
        chunked = [squared_distances(a, b), gram(a, KernelConfig.gaussian(0.9))]
        monkeypatch.setattr(kernels, "_CHUNK", 10**6)
        unchunked = [squared_distances(a, b), gram(a, KernelConfig.gaussian(0.9))]
        for c, u in zip(chunked, unchunked):
            np.testing.assert_array_equal(c, u)

    @pytest.mark.parametrize(
        "kernel,diagonal",
        [(KernelConfig.gaussian(0.7), 1.0), (KernelConfig.negative_euclidean(), 0.0)],
        ids=["gaussian", "negative_euclidean"],
    )
    def test_gram_exactly_symmetric_with_fixed_diagonal(self, kernel, diagonal):
        pts = np.random.default_rng(4).normal(size=(300, 5))
        k = gram(pts, kernel)
        np.testing.assert_array_equal(k, k.T)
        assert np.all(np.diag(k) == diagonal)

    def test_empty_sides_and_zero_dimension(self):
        assert squared_distances(np.empty((0, 2)), np.ones((3, 2))).shape == (0, 3)
        assert squared_distances(np.ones((3, 2)), np.empty((0, 2))).shape == (3, 0)
        np.testing.assert_array_equal(
            squared_distances(np.empty((2, 0)), np.empty((3, 0))), np.zeros((2, 3))
        )

    @pytest.mark.parametrize("da,db", [(2, 3), (3, 2), (1, 2), (2, 1)])
    def test_dimension_mismatch_rejected(self, da, db):
        with pytest.raises(InvalidArgumentError):
            pairwise_distances(np.zeros((2, da)), np.zeros((4, db)))


def loop_weighted_differences(x, y, w):
    """sum_j w_ij (x_i - y_j) by a double loop over the pairs."""
    out = np.zeros_like(x)
    for i in range(x.shape[0]):
        for j in range(y.shape[0]):
            out[i] += w[i, j] * (x[i] - y[j])
    return out


class TestWeightedDifferences:
    """The one pairwise-gradient form against a double loop.  The loop sums
    each difference and the helper sums x_i * sum_j w_ij and sum_j w_ij y_j
    separately, so they agree to rtol 1e-13 of the summed terms' size."""

    @staticmethod
    def _assert_close(got, x, y, w):
        ref = loop_weighted_differences(x, y, w)
        scale = np.abs(w) @ np.abs(y) + np.abs(w).sum(axis=1)[:, None] * np.abs(x)
        assert np.all(np.abs(got - ref) <= 1e-13 * scale)

    @pytest.mark.parametrize("m", [1, 7, 40])
    @pytest.mark.parametrize("d", [1, 2, 10])
    def test_matches_double_loop(self, d, m):
        rng = np.random.default_rng(10 * d + m)
        x = rng.normal(size=(30, d))
        y = rng.normal(size=(m, d))
        w = rng.uniform(-1.0, 2.0, size=(30, m))
        got = weighted_differences(x, y, w)
        assert got.shape == (30, d)
        self._assert_close(got, x, y, w)

    @pytest.mark.parametrize("d", [1, 2, 10])
    def test_zero_weight_rows_give_exact_zero(self, d):
        rng = np.random.default_rng(d)
        x = rng.normal(size=(6, d))
        y = rng.normal(size=(9, d))
        w = rng.uniform(size=(6, 9))
        w[[1, 4]] = 0.0
        got = weighted_differences(x, y, w)
        np.testing.assert_array_equal(got[[1, 4]], 0.0)
        self._assert_close(got, x, y, w)

    def test_single_pair_is_scaled_difference(self):
        x = np.array([[1.5, -2.0, 0.25]])
        y = np.array([[0.5, 1.0, 0.25]])
        np.testing.assert_array_equal(
            weighted_differences(x, y, np.array([[2.0]])), [[2.0, -6.0, 0.0]]
        )


FAST_MIN = -708.0
CUTOFF = kernels._EXP_ZERO_BELOW


def split_exp(args):
    return kernels._exp_inplace(np.array(args, dtype=float))


def gaussian_exponents(a, b, h):
    """The arguments the Gaussian kernel exponentiates, -d^2 / (2 h^2), by
    negating first (the kernel divides by -2 h^2, which gives the same bytes)."""
    out = squared_distances(a, b)
    np.negative(out, out=out)
    out /= 2.0 * h**2
    return out


def slow_range_points(source, n=200):
    """Eight-ring draws or uniform draws from the [-4, 4]^2 initialization
    box: at h = 0.1 most of their Gram exponents fall below -708."""
    rng = np.random.default_rng(n)
    if source == "eight":
        return eight_mixture().exact_sampler(rng, n)
    return rng.uniform(-4.0, 4.0, size=(n, 2))


class TestExpSplit:
    """The Gaussian kernel's exp split returns the bytes of ``np.exp``."""

    LISTED = [
        -707.9, FAST_MIN, -708.1, -745.13, CUTOFF,
        np.nextafter(CUTOFF, -np.inf), -1e4, -np.inf, 0.0,
    ]

    def test_listed_arguments(self):
        args = np.array(self.LISTED)
        assert split_exp(args).tobytes() == np.exp(args).tobytes()
        for a in self.LISTED:
            one = np.array([[a]])
            assert split_exp(one).tobytes() == np.exp(one).tobytes()

    @pytest.mark.parametrize(
        "args",
        [
            np.linspace(-707.9, 0.0, 3000).reshape(3, -1),
            np.linspace(CUTOFF - 1e4, np.nextafter(CUTOFF, -np.inf), 3000).reshape(-1, 3),
            np.linspace(-708.1, CUTOFF, 3000).reshape(3, -1),
            np.empty((0, 5)),
            np.empty((4, 0)),
            np.array([[-3.0]]),
            np.array([[-720.0]]),
            np.array([[-800.0]]),
        ],
        ids=["all-fast", "all-zero", "all-shell", "empty-rows", "empty-cols",
             "1x1-fast", "1x1-shell", "1x1-zero"],
    )
    def test_uniform_arrays(self, args):
        got = split_exp(args)
        assert got.shape == args.shape
        assert got.tobytes() == np.exp(args).tobytes()

    def test_mixed_ranges_shuffled(self):
        rng = np.random.default_rng(3)
        args = -rng.uniform(0.0, 900.0, size=(300, 170))
        assert split_exp(args).tobytes() == np.exp(args).tobytes()

    @pytest.mark.parametrize("square", [False, True], ids=["cross_gram", "gram"])
    @pytest.mark.parametrize("source", ["eight", "box"])
    def test_kernel_matrices_at_small_bandwidth(self, source, square):
        h = 0.1
        a = slow_range_points(source)
        b = a if square else slow_range_points(source, n=137)
        expect = np.exp(gaussian_exponents(a, b, h))
        if square:
            np.fill_diagonal(expect, 1.0)
            got = gram(a, KernelConfig.gaussian(h))
        else:
            got = cross_gram(a, b, KernelConfig.gaussian(h))
        assert got.tobytes() == expect.tobytes()

    @pytest.mark.filterwarnings("ignore:overflow")
    @pytest.mark.parametrize("h", [0.1, 1.0, 1e100])
    def test_overflowed_squared_distances(self, h):
        # Points 1e200 apart overflow their squared distance to inf, so the
        # exponent is -inf, where np.exp gives 0.0 (and a product with a
        # 0/1 mask would give NaN).
        a = np.array([[0.0, 0.0], [1e200, 0.0], [1.0, 0.0], [0.0, -3e199]])
        b = np.array([[-1e200, 1.0], [0.5, 0.5], [1e200, 1e200]])
        exponents = gaussian_exponents(a, b, h)
        assert np.any(np.isneginf(exponents))
        expect = np.exp(exponents)
        assert cross_gram(a, b, KernelConfig.gaussian(h)).tobytes() == expect.tobytes()
        expect = np.exp(gaussian_exponents(a, a, h))
        np.fill_diagonal(expect, 1.0)
        assert gram(a, KernelConfig.gaussian(h)).tobytes() == expect.tobytes()

    def test_numpy_exp_is_exactly_zero_below_the_cutoff(self):
        # The split writes 0.0 below the cutoff without calling exp.  A numpy
        # whose exp rounds differently there must fail here, not change
        # output bytes silently.
        grid = np.concatenate([
            np.linspace(CUTOFF, CUTOFF - 50.0, 200001),
            np.nextafter(CUTOFF, -np.inf) - np.arange(1000) * 1e-12,
            [-1e4, -1e300, -np.finfo(float).max],
        ])
        got = np.exp(grid)
        assert np.all(got == 0.0) and not np.any(np.signbit(got))
        assert np.exp(-745.13) > 0.0  # numpy's own zero threshold is above CUTOFF


class _RecordingNumpy:
    """numpy, except that every ``exp`` call's argument is copied first."""

    def __init__(self):
        self.exp_args = []

    def __getattr__(self, name):
        return getattr(np, name)

    def exp(self, x, *args, **kwargs):
        self.exp_args.append(np.array(x, dtype=float))
        return np.exp(x, *args, **kwargs)


def test_only_the_shell_leaves_the_vector_loop(monkeypatch):
    # The mechanism: on an h = 0.1 eight-ring Gram, the exponents below -708
    # reach np.exp only through one compacted call on the subnormal shell.
    pts = slow_range_points("eight")
    exponents = gaussian_exponents(pts, pts, 0.1)
    shell = (exponents < FAST_MIN) & (exponents >= CUTOFF)
    assert np.any(exponents < CUTOFF) and np.any(shell)
    recorder = _RecordingNumpy()
    monkeypatch.setattr(kernels, "np", recorder)
    gram(pts, KernelConfig.gaussian(0.1))
    slow_calls = [a for a in recorder.exp_args if np.any(a < FAST_MIN)]
    assert len(slow_calls) == 1
    assert slow_calls[0].size == np.count_nonzero(shell)
    assert np.all(slow_calls[0] >= CUTOFF)
