import itertools
import os
import subprocess
import sys
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
from evi_mmd.kernels import cross_gram, squared_distances
from evi_mmd.metrics import RunEvaluator
from evi_mmd.model import GAUSSIAN
from evi_mmd.targets import eight_mixture

GAUSS1 = KernelConfig.gaussian(1.0)
EVAL_KERNELS = (KernelConfig.gaussian(0.5), KernelConfig.negative_euclidean())


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


EPS = np.finfo(float).eps


def declared_mean(x, y, kernel, rows=256):
    """(exact, bound) for ``metrics._kernel_means(x, y, (kernel,))``: the mean
    of the coordinate formula's kernel values (the entries of ``gram`` /
    ``cross_gram``) summed in extended precision, and the bound that
    ``_kernel_means`` declares on its distance from it.  Built a block of
    rows at a time, so no N x M matrix is held."""
    self_term = y is None or np.array_equal(x, y)
    other = x if self_term else y
    n, m, d = x.shape[0], other.shape[0], x.shape[1]
    centre = other.mean(axis=0)
    with np.errstate(over="ignore", invalid="ignore"):
        x_sq = np.sum((x - centre) ** 2, axis=1)
        y_sq = np.sum((other - centre) ** 2, axis=1)
    total = np.longdouble(0.0)
    entry_bound = magnitude = 0.0
    for start in range(0, n, rows):
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            s = squared_distances(x[start : start + rows], other)
            k = cross_gram(x[start : start + rows], other, kernel)
            delta = (3 * d + 12) * EPS * (x_sq[start : start + rows, None] + y_sq[None, :])
            # Entries that take the coordinate formula's bytes.
            taken = (s < (2.0**20 - 1) * delta) | ~np.isfinite(delta)
            if kernel.kind == GAUSSIAN:
                z = np.minimum(delta / 2 / kernel.bandwidth**2, 700.0)
                e = np.where(taken, 0.0, k * (np.expm1(z) + 4 * EPS) + 2.0**-1072)
            else:
                root = np.sqrt(s)
                e = np.where(taken | (delta == 0), 0.0, delta / root + EPS * root)
        total += k.astype(np.longdouble).sum()
        entry_bound += e.sum()
        magnitude += np.abs(k).sum()
    tiles = len(list(metrics._tiles(n, m, d, self_term)))
    return total / (n * m), (entry_bound + EPS * (tiles + 72) * magnitude) / (n * m)


def assert_mean_within_bound(got, x, y, kernel):
    exact, bound = declared_mean(x, y, kernel)
    assert abs(np.longdouble(got) - exact) <= bound, (got, float(exact), bound)


def assert_terms_within_bound(terms, kernels):
    """Each (x, y) mean term of ``terms``, for every kernel, within its
    declared bound."""
    for x, y in terms:
        for kernel, got in zip(kernels, metrics._kernel_means(x, y, kernels)):
            assert_mean_within_bound(got, x, y, kernel)


def declared_mmd2(x, y, kernel):
    """(exact, bound) for ``mmd2_two_sample(x, y, kernel)``: the three mean
    terms' declared bounds plus the rounding of xx - 2 xy + yy."""
    (xx, bxx), (xy, bxy), (yy, byy) = (
        declared_mean(x, None, kernel),
        declared_mean(x, y, kernel),
        declared_mean(y, None, kernel),
    )
    spread = abs(float(xx)) + 2 * abs(float(xy)) + abs(float(yy))
    return xx - 2 * xy + yy, bxx + 2 * bxy + byy + 2 * EPS * spread


def assert_mmd2_within_bound(got, x, y, kernel):
    exact, bound = declared_mmd2(x, y, kernel)
    assert abs(np.longdouble(got) - exact) <= bound, (got, float(exact), bound)


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


class TestEnergyDistanceBound:
    """Energy distance as the negative-Euclidean MMD^2 is within the declared
    bound of the pairwise-distance formula, and the evaluator returns the
    bytes of the standalone functions."""

    def test_energy_distance(self):
        energy_kernel = KernelConfig.negative_euclidean()
        for x, y in energy_cases():
            assert_mmd2_within_bound(energy_distance(x, y), x, y, energy_kernel)

    def test_run_evaluator(self):
        kernel = KernelConfig.gaussian(0.7)
        energy_kernel = KernelConfig.negative_euclidean()
        for x, y in energy_cases(seed=12):
            mmd2, energy = RunEvaluator(y, kernel).evaluate(x)
            assert_mmd2_within_bound(energy, x, y, energy_kernel)
            assert_mmd2_within_bound(mmd2, x, y, kernel)
            assert float_bytes(energy) == float_bytes(energy_distance(x, y))
            assert float_bytes(mmd2) == float_bytes(mmd2_two_sample(x, y, kernel))


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


def close_pair_cases():
    """(name, x, y) with exact duplicates, duplicates 1e-9 to 1e-3 apart and
    clusters 1e8 from the centre, in d = 2, 3 and 10."""
    for d in (2, 3, 10):
        rng = np.random.default_rng(40 + d)
        y = rng.normal(size=(700, d))
        x = rng.normal(size=(120, d))
        y[350:] = y[:350]
        x[:60] = y[rng.choice(700, 60)]
        yield f"duplicates-d{d}", x, y
        for gap in (1e-9, 1e-6, 1e-3):
            near_y = y.copy()
            near_y[350:] += gap * rng.normal(size=(350, d))
            near_x = x.copy()
            near_x[:60] += gap * rng.normal(size=(60, d))
            yield f"gap{gap:g}-d{d}", near_x, near_y
        axis = rng.normal(size=d)
        axis *= 1e8 / np.linalg.norm(axis)
        sides = np.where(rng.random(700) < 0.5, -1.0, 1.0)
        far_y = rng.normal(size=(700, d)) + sides[:, None] * axis
        far_x = rng.normal(size=(120, d)) + axis
        far_x[:20] = far_y[:20]
        yield f"clusters-1e8-d{d}", far_x, far_y


CLOSE_PAIR_CASES = list(close_pair_cases())


class TestBlockedMeans:
    """Every mean kernel term is swept tile by tile, never as a full M x M
    matrix, and is within the declared bound of that matrix's exact sum."""

    # 1999-2001 straddle the 2000-point reference of a run; at 1234 points
    # the tiles cut the self term's rows unevenly.
    @pytest.mark.parametrize("m", [1234, 1999, 2000, 2001])
    @pytest.mark.parametrize("d", [1, 2, 10])
    @pytest.mark.parametrize("h", [0.5, 0.05], ids=["h0.5", "h0.05-subnormal-shell"])
    def test_within_the_declared_bound_of_the_full_gram_sum(self, m, d, h):
        rng = np.random.default_rng(m * 100 + d)
        y = rng.normal(scale=2.0, size=(m, d))
        x = rng.normal(scale=2.0, size=(150, d))
        kernels = (KernelConfig.gaussian(h), KernelConfig.negative_euclidean())
        assert len(list(metrics._tiles(m, m, d, True))) > 1
        assert_terms_within_bound(((y, None), (x, y), (x, None)), kernels)

        mmd2, energy = RunEvaluator(y, kernels[0]).evaluate(x)
        assert float_bytes(mmd2) == float_bytes(mmd2_two_sample(x, y, kernels[0]))
        assert float_bytes(energy) == float_bytes(energy_distance(x, y))

    @pytest.mark.parametrize("scale", [0.1, 1.0, 30.0])
    def test_bound_at_small_and_large_scales(self, scale):
        rng = np.random.default_rng(int(scale * 10))
        y = rng.normal(scale=scale, size=(1500, 3))
        x = rng.normal(scale=scale, size=(300, 3))
        assert_terms_within_bound(((y, None), (x, y)), EVAL_KERNELS)

    @pytest.mark.parametrize("case", CLOSE_PAIR_CASES, ids=[c[0] for c in CLOSE_PAIR_CASES])
    def test_close_pairs_within_the_bound(self, case):
        _, x, y = case
        assert_terms_within_bound(((y, None), (x, y), (x, None)), EVAL_KERNELS)

    def test_far_particle_keeps_a_finite_mmd2(self):
        # A particle at 1e200 has a squared norm that overflows; its tiles take
        # the coordinate formula, whose Gaussian values there are exactly 0.
        rng = np.random.default_rng(9)
        x = rng.normal(size=(50, 3))
        x[7] = 1e200
        y = rng.normal(size=(400, 3))
        kernel = KernelConfig.gaussian(1.0)
        with np.errstate(over="ignore"):
            got = mmd2_two_sample(x, y, kernel)
            assert np.isfinite(got)
            assert_mmd2_within_bound(got, x, y, kernel)
            assert float_bytes(RunEvaluator(y, kernel).evaluate(x)[0]) == float_bytes(got)

    @pytest.mark.parametrize("duplicates", [False, True])
    def test_energy_distance_of_a_copy_is_exactly_zero(self, duplicates):
        rng = np.random.default_rng(10)
        x = rng.normal(scale=3.0, size=(900, 2))
        if duplicates:
            x[450:] = x[:450]
        assert energy_distance(x, x.copy()) == 0.0
        assert mmd2_two_sample(x, x.copy(), KernelConfig.gaussian(0.3)) == 0.0

    @pytest.mark.parametrize("d", [2, 10])
    def test_evaluator_bitwise_equal_to_standalone_metrics(self, d):
        rng = np.random.default_rng(20 + d)
        reference = rng.normal(size=(2000, d))
        particles = rng.normal(size=(200, d)) + 0.3
        kernel = KernelConfig.gaussian(0.5)
        mmd2, energy = RunEvaluator(reference, kernel).evaluate(particles)
        assert float_bytes(mmd2) == float_bytes(mmd2_two_sample(particles, reference, kernel))
        assert float_bytes(energy) == float_bytes(energy_distance(particles, reference))

    def test_energy_kernel_swept_once_for_both_slots(self, monkeypatch):
        calls = []
        values = metrics._kernel_from_squared

        def counted(sq, kernel, out):
            calls.append(kernel)
            return values(sq, kernel, out)

        monkeypatch.setattr(metrics, "_kernel_from_squared", counted)
        reference = np.random.default_rng(11).normal(size=(600, 2))
        evaluator = RunEvaluator(reference, KernelConfig.negative_euclidean())
        assert len(calls) == len(list(metrics._tiles(600, 600, 2, True)))
        mmd2, energy = evaluator.evaluate(reference[:100] + 0.5)
        assert float_bytes(mmd2) == float_bytes(energy)
        assert float_bytes(energy) == float_bytes(energy_distance(reference[:100] + 0.5, reference))

    def test_bytes_independent_of_blas_threads(self):
        # No BLAS call in the sweep may split a reduction over threads: a
        # tile sum taken as a BLAS dot product, which OpenBLAS splits above
        # 10000 entries, changes the bytes here.  The tiles' products keep
        # each entry's d + 2 terms on one thread at any thread count.  BLAS
        # reads its thread count at import, so each count gets a fresh
        # interpreter.
        script = (
            "import hashlib\n"
            "import numpy as np\n"
            "from evi_mmd.metrics import RunEvaluator\n"
            "from evi_mmd.model import KernelConfig\n"
            "rng = np.random.default_rng(4)\n"
            "parts = []\n"
            "for d in (2, 10):\n"
            "    reference = rng.normal(scale=2.0, size=(2000, d))\n"
            "    evaluator = RunEvaluator(reference, KernelConfig.gaussian(0.5))\n"
            "    parts += list(evaluator._yy) + list(evaluator.evaluate(reference[:300] + 0.1))\n"
            "print(hashlib.sha256(np.array(parts).tobytes()).hexdigest())\n"
        )
        src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
        digests = set()
        for threads in ("1", "2"):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads)
            env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
            run = subprocess.run(
                [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120
            )
            assert run.returncode == 0, run.stderr
            digests.add(run.stdout.strip())
        assert len(digests) == 1

    @pytest.mark.parametrize("h", [0.5, 0.05])
    def test_evaluator_memory_peak(self, h):
        # The full Gram matrices took 34.6 MiB here; the tiled sums hold two
        # 65536-float tile buffers (1 MiB) and the per-tile temporaries.
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
