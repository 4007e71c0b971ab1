import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from evi_mmd import (
    InvalidArgumentError,
    KernelConfig,
    energy_distance,
    gauss_eval,
    mmd2_two_sample,
    mode_occupancy,
    neg_euclid_eval,
)
from evi_mmd import metrics
from evi_mmd.kernels import cross_gram, gram, pairwise_distances
from evi_mmd.metrics import RunEvaluator
from evi_mmd.model import GAUSSIAN
from evi_mmd.targets import eight_mixture

GAUSS1 = KernelConfig.gaussian(1.0)


def mmd2_triple_loop(x, y, kernel):
    """Brute-force V-statistic oracle."""
    n, m = len(x), len(y)
    k = (
        (lambda a, b: gauss_eval(a, b, kernel.bandwidth))
        if kernel.kind == GAUSSIAN
        else neg_euclid_eval
    )
    xx = sum(k(x[i], x[j]) for i in range(n) for j in range(n)) / n**2
    xy = sum(k(x[i], y[j]) for i in range(n) for j in range(m)) / (n * m)
    yy = sum(k(y[i], y[j]) for i in range(m) for j in range(m)) / m**2
    return xx - 2 * xy + yy


def energy_double_loop(x, y):
    n, m = len(x), len(y)
    d = lambda a, b: float(np.linalg.norm(a - b))
    xy = sum(d(x[i], y[j]) for i in range(n) for j in range(m)) / (n * m)
    xx = sum(d(x[i], x[j]) for i in range(n) for j in range(n)) / n**2
    yy = sum(d(y[i], y[j]) for i in range(m) for j in range(m)) / m**2
    return 2 * xy - xx - yy


def pairwise_energy_distance(x, y):
    """Energy distance summed straight from pairwise distances, the formula
    it had before it became the negative-Euclidean MMD^2; its bytes are the
    reference."""
    n, m = x.shape[0], y.shape[0]
    xy = float(pairwise_distances(x, y).sum()) / (n * m)
    xx = float(pairwise_distances(x, x).sum()) / (n * n)
    yy = float(pairwise_distances(y, y).sum()) / (m * m)
    return 2.0 * xy - xx - yy


def gram_mmd2(x, y, kernel):
    """MMD^2 from the full kernel matrices' numpy sums: the bytes the
    evaluator's blocked sums must keep."""
    n, m = x.shape[0], y.shape[0]
    xx = float(gram(x, kernel).sum()) / (n * n)
    xy = float(cross_gram(x, y, kernel).sum()) / (n * m)
    yy = float(gram(y, kernel).sum()) / (m * m)
    return xx - 2.0 * xy + yy


def energy_cases(count=240, seed=11):
    """(x, y) pairs with n, m in [1, 60] and d in {1, 2, 3, 10}: independent
    draws, identical multisets (y a shuffled copy of x, or x itself), and
    samples with all-zero rows."""
    rng = np.random.default_rng(seed)
    for i in range(count):
        d = (1, 2, 3, 10)[i % 4]
        n, m = rng.integers(1, 61, size=2)
        x = rng.normal(scale=rng.choice([0.1, 1.0, 30.0]), size=(n, d))
        kind = (i // 4) % 4
        if kind == 0:
            y = rng.normal(size=(m, d))
        elif kind == 1:
            y = x[rng.permutation(n)]
        elif kind == 2:
            y = x
        else:
            y = rng.normal(size=(m, d))
            x[rng.random(n) < 0.5] = 0.0
            y[rng.random(m) < 0.5] = 0.0
            if i % 8 == 7:
                x[:] = 0.0
        yield x, y


def float_bytes(value):
    return float(value).hex()


class TestMmd2:
    def test_identical_multisets_zero(self):
        x = np.random.default_rng(0).normal(size=(7, 2))
        assert abs(mmd2_two_sample(x, x.copy(), GAUSS1)) < 1e-12

    def test_hand_value_singletons(self):
        got = mmd2_two_sample(np.array([[0.0]]), np.array([[1.0]]), GAUSS1)
        assert got == pytest.approx(2 - 2 * np.exp(-0.5), rel=1e-12)
        assert got == pytest.approx(0.7869387, abs=1e-7)

    def test_matches_triple_loop_oracle_on_50_instances(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            n, m, d = rng.integers(1, 11), rng.integers(1, 11), rng.integers(1, 4)
            x = rng.normal(size=(n, d))
            y = rng.normal(size=(m, d))
            expect = mmd2_triple_loop(x, y, GAUSS1)
            assert mmd2_two_sample(x, y, GAUSS1) == pytest.approx(expect, abs=1e-12)

    def test_symmetry_and_nonnegativity(self):
        rng = np.random.default_rng(2)
        for _ in range(25):
            x = rng.normal(size=(rng.integers(1, 8), 2))
            y = rng.normal(size=(rng.integers(1, 8), 2))
            ab = mmd2_two_sample(x, y, GAUSS1)
            ba = mmd2_two_sample(y, x, GAUSS1)
            assert ab == pytest.approx(ba, abs=1e-12)
            assert ab >= -1e-12

    def test_empty_set_rejected(self):
        with pytest.raises(InvalidArgumentError):
            mmd2_two_sample(np.zeros((0, 2)), np.zeros((2, 2)), GAUSS1)

    def test_energy_kernel_reproduces_energy_distance(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=(5, 2))
        y = rng.normal(size=(6, 2))
        via_kernel = mmd2_two_sample(x, y, KernelConfig.negative_euclidean())
        assert via_kernel == pytest.approx(energy_distance(x, y), abs=1e-12)


class TestEnergyDistance:
    def test_identical_sets_zero(self):
        x = np.random.default_rng(4).normal(size=(5, 3))
        assert energy_distance(x, x.copy()) == 0.0

    def test_hand_value(self):
        assert energy_distance(np.array([[0.0]]), np.array([[1.0]])) == pytest.approx(2.0)

    def test_matches_double_loop_oracle_on_50_instances(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            n, m = rng.integers(1, 11), rng.integers(1, 11)
            x = rng.normal(size=(n, 2))
            y = rng.normal(size=(m, 2))
            assert energy_distance(x, y) == pytest.approx(
                energy_double_loop(x, y), abs=1e-12
            )

    def test_nonnegative_on_random_pairs(self):
        rng = np.random.default_rng(6)
        for _ in range(50):
            x = rng.normal(size=(rng.integers(1, 9), 2))
            y = rng.normal(size=(rng.integers(1, 9), 2)) + rng.normal()
            assert energy_distance(x, y) >= -1e-12

    def test_zero_iff_equal_multisets_small_enumeration(self):
        # all 1-d multisets over {0, 1} of size 2: zero exactly on equal pairs
        values = [np.array([[a], [b]], dtype=float) for a in (0.0, 1.0) for b in (0.0, 1.0)]
        for x, y in itertools.product(values, values):
            e = energy_distance(x, y)
            if sorted(x.ravel()) == sorted(y.ravel()):
                assert abs(e) < 1e-12
            else:
                assert e > 1e-6

    @given(st.integers(0, 10_000))
    @settings(max_examples=20, deadline=None)
    def test_symmetry(self, seed):
        rng = np.random.default_rng(seed)
        x = rng.normal(size=(rng.integers(1, 6), 2))
        y = rng.normal(size=(rng.integers(1, 6), 2))
        assert energy_distance(x, y) == pytest.approx(energy_distance(y, x), abs=1e-12)


class TestEnergyDistanceBitwise:
    """Energy distance as the negative-Euclidean MMD^2 keeps the bytes of the
    pairwise-distance formula."""

    def test_energy_distance(self):
        for x, y in energy_cases():
            got = energy_distance(x, y)
            assert float_bytes(got) == float_bytes(pairwise_energy_distance(x, y))

    def test_run_evaluator(self):
        kernel = KernelConfig.gaussian(0.7)
        for x, y in energy_cases(seed=12):
            evaluator = RunEvaluator(y, kernel)
            expect = pairwise_energy_distance(x, y)
            mmd2, energy = evaluator.evaluate(x)
            assert float_bytes(energy) == float_bytes(expect)
            assert float_bytes(mmd2) == float_bytes(gram_mmd2(x, y, kernel))


class TestModeOccupancy:
    def test_all_at_first_mean(self):
        means = np.array([[0.0, 0.0], [5.0, 5.0], [9.0, 0.0]])
        particles = np.zeros((10, 2))
        np.testing.assert_array_equal(
            mode_occupancy(particles, means), [1.0, 0.0, 0.0]
        )

    def test_tie_goes_to_lowest_index(self):
        means = np.array([[0.0], [2.0]])
        particles = np.array([[1.0]])  # equidistant
        np.testing.assert_array_equal(mode_occupancy(particles, means), [1.0, 0.0])

    def test_fractions_sum_to_one(self):
        rng = np.random.default_rng(7)
        particles = rng.normal(size=(101, 2))
        means = rng.normal(size=(4, 2))
        occ = mode_occupancy(particles, means)
        assert occ.sum() == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_non_finite_means(self, bad):
        means = np.array([[0.0, 0.0], [bad, 1.0]])
        with pytest.raises(InvalidArgumentError, match="^means contains non-finite entries$"):
            mode_occupancy(np.zeros((3, 2)), means)

    @pytest.mark.parametrize("means", [np.zeros((0, 2)), np.zeros(2)])
    def test_rejects_means_that_are_not_a_nonempty_matrix(self, means):
        with pytest.raises(InvalidArgumentError, match="^means must be "):
            mode_occupancy(np.zeros((3, 2)), means)


class TestRunEvaluator:
    def test_matches_standalone_metrics(self):
        rng = np.random.default_rng(8)
        ref = rng.normal(size=(50, 2))
        particles = rng.normal(size=(20, 2))
        kernel = KernelConfig.gaussian(0.5)
        ev = RunEvaluator(ref, kernel)
        m, e = ev.evaluate(particles)
        assert m == pytest.approx(mmd2_two_sample(particles, ref, kernel), abs=1e-14)
        assert e == pytest.approx(energy_distance(particles, ref), abs=1e-14)


def pairwise_tree_leaves(size):
    """(start, size) of the leaves :func:`metrics._pairwise_sum` visits."""
    leaves = []
    metrics._pairwise_sum(0, size, lambda start, n: leaves.append((start, n)) or 0.0)
    return leaves


class TestBlockedMeans:
    """The reference-reference term is summed block by block, never as a full
    M x M matrix, and keeps the bytes of that matrix's numpy sum."""

    # 1999-2001 straddle the 2000-point reference of a run; at 1234 points
    # most leaf boundaries fall inside a row.
    @pytest.mark.parametrize("m", [1234, 1999, 2000, 2001])
    @pytest.mark.parametrize("d", [1, 2, 10])
    @pytest.mark.parametrize("h", [0.5, 0.05], ids=["h0.5", "h0.05-subnormal-shell"])
    def test_bitwise_equal_to_the_full_gram_sum(self, m, d, h):
        rng = np.random.default_rng(m * 100 + d)
        y = rng.normal(scale=2.0, size=(m, d))
        x = rng.normal(scale=2.0, size=(150, d))
        kernel = KernelConfig.gaussian(h)
        energy_kernel = KernelConfig.negative_euclidean()
        assert len(pairwise_tree_leaves(m * m)) > 1
        gauss_expect = float_bytes(gram_mmd2(x, y, kernel))
        energy_expect = float_bytes(gram_mmd2(x, y, energy_kernel))

        mmd2, energy = RunEvaluator(y, kernel).evaluate(x)
        assert float_bytes(mmd2) == gauss_expect
        assert float_bytes(energy) == energy_expect
        assert float_bytes(mmd2_two_sample(x, y, kernel)) == gauss_expect
        assert float_bytes(energy_distance(x, y)) == energy_expect

    def test_leaves_cut_rows_mid_row(self):
        leaves = pairwise_tree_leaves(1234 * 1234)
        assert any(start % 1234 for start, _ in leaves)
        assert all(size <= metrics._LEAF for _, size in leaves)

    @pytest.mark.parametrize("size", [129, 1000, 8191, 8193, 65537, 1234**2, 2000**2])
    def test_numpy_sums_by_the_pairwise_tree(self, size):
        # The blocked sums rely on this: numpy's sum of a contiguous float64
        # array is the sum of its two halves' sums, split after
        # n//2 - (n//2) % 8 entries.  A numpy that sums otherwise must fail
        # here, not change output bytes silently.
        rng = np.random.default_rng(size)
        a = rng.normal(size=size) * rng.choice([1e-3, 1.0, 1e5], size=size)
        half = size // 2 - (size // 2) % 8
        assert float_bytes(a.sum()) == float_bytes(a[:half].sum() + a[half:].sum())
        leaf_sums = lambda start, n: a[start : start + n].sum()
        assert float_bytes(metrics._pairwise_sum(0, size, leaf_sums)) == float_bytes(a.sum())
        if size == 2000**2:
            assert float_bytes(a.reshape(2000, 2000).sum()) == float_bytes(a.sum())

    @pytest.mark.parametrize("h", [0.5, 0.05])
    def test_evaluator_memory_peak(self, h):
        # The full Gram matrices took 34.6 MiB here; the blocked sums hold
        # three 31 x 2000 buffers (1.5 MiB) and the per-block temporaries.
        reference = eight_mixture().exact_sampler(np.random.default_rng(0), 2000)
        particles = reference[:200].copy()
        tracemalloc.start()
        try:
            evaluator = RunEvaluator(reference, KernelConfig.gaussian(h))
            init_peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.reset_peak()
            evaluator.evaluate(particles)
            evaluate_peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert init_peak < 4 * 2**20
        assert evaluate_peak < 4 * 2**20

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(InvalidArgumentError):
            RunEvaluator(np.zeros((3, 2)), GAUSS1).evaluate(np.zeros((2, 3)))
        with pytest.raises(InvalidArgumentError):
            mmd2_two_sample(np.zeros((2, 3)), np.zeros((3, 2)), GAUSS1)
