import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from evi_mmd import (
    BandwidthSchedule,
    EmpiricalTarget,
    InvalidArgumentError,
    NumericalFailureError,
    SolverConfig,
    auto_schedule,
    bandwidth_at,
    KernelConfig,
    McNoise,
    evi_mmd_run,
    free_energy,
    isotropic_gaussian,
    lbfgs_minimize,
    median_pairwise_distance,
    proximal_objective,
)
from evi_mmd.config import config_from_dict
from evi_mmd.solver import LbfgsState, draw_minibatch, implicit_step, run_loop


def quadratic_bowl(center):
    def f(x):
        d = x - center
        return 0.5 * float(np.sum(d * d)), d

    return f


def rosenbrock(x):
    x = np.asarray(x, dtype=float).ravel()
    a, b = x[0], x[1]
    f = (1 - a) ** 2 + 100 * (b - a * a) ** 2
    g = np.array([-2 * (1 - a) - 400 * a * (b - a * a), 200 * (b - a * a)])
    return f, g


class TestBandwidthAt:
    def test_substitution(self):
        assert bandwidth_at(BandwidthSchedule(4, 0.1, 0.5), 1) == pytest.approx(4.1)

    def test_terminal_value_a4(self):
        h = bandwidth_at(BandwidthSchedule(4, 0.1, 0.5), 5000)
        assert h == pytest.approx(0.1566, abs=5e-5)
        assert round(h, 2) == 0.16

    def test_terminal_value_a5(self):
        h = bandwidth_at(BandwidthSchedule(5, 0.1, 0.5), 5000)
        assert h == pytest.approx(0.1707, abs=5e-5)
        assert round(h, 2) == 0.17

    def test_rejects_zero_iteration(self):
        with pytest.raises(InvalidArgumentError):
            bandwidth_at(BandwidthSchedule(1, 0.1, 0.5), 0)

    @pytest.mark.parametrize("c", [0.1, 0.5, 1.0])
    @pytest.mark.parametrize("b", [0.05, 0.1, 0.3, 0.5, 1.0, 2.0])
    def test_tiny_scale_is_a_fixed_bandwidth(self, b, c):
        # a / n^c is far below half of b's float spacing, so h(n) rounds to b
        schedule = BandwidthSchedule(1e-300, b, c)
        assert all(bandwidth_at(schedule, n) == b for n in range(1, 5001))
        raw = {"method": "explicit_mmd", "target": "eight", "N": 200, "maxIter": 5000}
        cfg = config_from_dict(dict(raw, a=1e-300, b=b, c=c))
        assert (cfg.a, cfg.b, cfg.c) == (1e-300, b, c)


class TestMedianPairwiseDistance:
    def test_two_points(self):
        assert median_pairwise_distance(np.array([[0.0], [3.0]])) == 3.0

    def test_three_collinear(self):
        assert median_pairwise_distance(np.array([[0.0], [1.0], [2.0]])) == 1.0

    def test_even_pair_count_averages_central_pair(self):
        pts = np.array([[0.0], [1.0], [3.0], [6.0]])  # distances 1,2,3,3,5,6
        assert median_pairwise_distance(pts) == 3.0

    def test_rejects_single_point(self):
        with pytest.raises(InvalidArgumentError):
            median_pairwise_distance(np.zeros((1, 3)))

    @pytest.mark.parametrize(
        "points,match",
        [
            ([[0.0, 1.0], [np.nan, 2.0]], "^points contains non-finite entries"),
            ([[0.0, 1.0], [np.inf, 2.0]], "^points contains non-finite entries"),
            (np.zeros((2, 0)), r"^points must be nonempty, got shape \(2, 0\)"),
            ([0.0, 1.0, 3.0], r"^points must be a rank-2 array, got shape \(3,\)"),
            (np.zeros((1, 3)), "^number of points must be an integer >= 2, got 1"),
            ([["a", "b"], ["c", "d"]], "^points must be an array of real numbers"),
            ([["0", "0"], ["3", "4"]], "^points must be an array of real numbers"),
        ],
        ids=["nan", "inf", "no-columns", "rank-1", "one-point", "strings", "numeric-strings"],
    )
    def test_rejects_what_the_sample_check_rejects(self, points, match):
        with pytest.raises(InvalidArgumentError, match=match):
            median_pairwise_distance(points)

    @given(st.integers(2, 12), st.integers(0, 1000))
    @settings(max_examples=30, deadline=None)
    def test_matches_sorted_oracle(self, n, seed):
        pts = np.random.default_rng(seed).normal(size=(n, 2))
        dists = sorted(
            float(np.linalg.norm(pts[i] - pts[j]))
            for i in range(n)
            for j in range(i + 1, n)
        )
        k = len(dists)
        expect = dists[k // 2] if k % 2 else 0.5 * (dists[k // 2 - 1] + dists[k // 2])
        assert median_pairwise_distance(pts) == pytest.approx(expect, rel=1e-12)


def constant_energy(value):
    def f(x):
        return value, np.zeros_like(x)

    return f


class TestProximalObjective:
    def test_candidate_equals_anchor(self):
        anchor = np.random.default_rng(0).normal(size=(4, 2))
        val, grad = proximal_objective(
            anchor, anchor, 2.0, lambda x: (7.25, np.full_like(x, 0.5))
        )
        assert val == 7.25
        np.testing.assert_array_equal(grad, 0.5)

    def test_zero_energy_substitution(self):
        # one 1-d particle displaced by 2 with tau*=1: J = 4 / 2 = 2, dJ = 2
        val, grad = proximal_objective(
            np.array([[2.0]]), np.array([[0.0]]), 1.0, constant_energy(0.0)
        )
        assert val == pytest.approx(2.0)
        assert grad[0, 0] == pytest.approx(2.0)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(InvalidArgumentError):
            proximal_objective(np.zeros((2, 2)), np.zeros((3, 2)), 1.0, constant_energy(0.0))

    def test_gradient_matches_finite_differences(self):
        # J gradient = (x - anchor)/(tau N) + grad F, with F a smooth test field
        rng = np.random.default_rng(5)
        anchor = rng.normal(size=(3, 2))
        x = rng.normal(size=(3, 2))
        tau = 0.7

        def f(z):
            return float(np.sum(np.sin(z))), np.cos(z)

        def j(z):
            return proximal_objective(z, anchor, tau, f)[0]

        _, analytic = proximal_objective(x, anchor, tau, f)
        np.testing.assert_allclose(
            analytic, (x - anchor) / (tau * 3) + np.cos(x), rtol=1e-15
        )
        numeric = np.zeros_like(x)
        step = 1e-6
        for i in range(3):
            for k in range(2):
                e = np.zeros_like(x)
                e[i, k] = step
                numeric[i, k] = (j(x + e) - j(x - e)) / (2 * step)
        np.testing.assert_allclose(analytic, numeric, rtol=1e-5, atol=1e-8)


class TestLbfgs:
    def test_quadratic_converges_fast(self):
        cfg = SolverConfig(tau_star=1.0, lbfgs_grad_tol=1e-10, lbfgs_max_inner=10)
        center = np.array([1.0, -2.0, 0.5])
        res = lbfgs_minimize(quadratic_bowl(center), np.zeros(3), cfg)
        assert res.iterations <= 10
        assert np.max(np.abs(res.x - center)) < 1e-8

    def test_start_at_minimizer(self):
        cfg = SolverConfig(tau_star=1.0)
        center = np.array([2.0, 3.0])
        res = lbfgs_minimize(quadratic_bowl(center), center.copy(), cfg)
        assert res.iterations in (0, 1)
        np.testing.assert_array_equal(res.x, center)

    def test_rosenbrock(self):
        cfg = SolverConfig(tau_star=1.0, lbfgs_max_inner=200, lbfgs_grad_tol=1e-12)
        res = lbfgs_minimize(rosenbrock, np.array([-1.2, 1.0]), cfg)
        assert res.value < 1e-6
        assert res.iterations <= 200

    def test_monotone_value(self):
        cfg = SolverConfig(tau_star=1.0, lbfgs_max_inner=200)
        res = lbfgs_minimize(rosenbrock, np.array([-1.2, 1.0]), cfg)
        assert res.value <= res.start_value

    def test_matrix_shaped_variables(self):
        cfg = SolverConfig(tau_star=1.0, lbfgs_grad_tol=1e-12)

        def f(x):
            return 0.5 * float(np.sum(x * x)), x

        res = lbfgs_minimize(f, np.full((4, 3), 2.0), cfg)
        assert res.x.shape == (4, 3)
        assert np.max(np.abs(res.x)) < 1e-8

    def test_non_finite_at_start_raises(self):
        cfg = SolverConfig(tau_star=1.0)

        def f(x):
            return np.nan, np.zeros_like(x)

        with pytest.raises(NumericalFailureError) as err:
            lbfgs_minimize(f, np.ones(2), cfg)
        assert err.value.last_iterate is not None

    def test_non_finite_trial_is_backtracked(self):
        # objective overflows for |x| > 2 but the minimizer is inside
        def f(x):
            v = float(np.sum(x * x))
            if v > 4.0:
                return np.inf, x
            return 0.5 * v, x

        cfg = SolverConfig(tau_star=1.0, lbfgs_grad_tol=1e-10)
        res = lbfgs_minimize(f, np.array([1.9, 0.0]), cfg)
        assert res.value < 1e-12

    def test_one_evaluation_per_trial_point(self):
        # every call after the start is at a new trial point; an accepted
        # trial is never evaluated again for its gradient
        points = []

        def counted(x):
            points.append(tuple(np.asarray(x, dtype=float).ravel()))
            return rosenbrock(x)

        cfg = SolverConfig(tau_star=1.0, lbfgs_max_inner=200, lbfgs_grad_tol=1e-12)
        res = lbfgs_minimize(counted, np.array([-1.2, 1.0]), cfg)
        assert res.iterations > 0
        assert len(set(points)) == len(points)
        assert len(points) == 1 + len(set(points[1:]))
        assert len(points) >= 1 + res.iterations

    def test_memory_discards_non_positive_curvature(self):
        state = LbfgsState(memory=5)
        assert state.push(np.ones(2), np.ones(2)) is True
        assert state.push(np.ones(2), -np.ones(2)) is False
        assert state.pairs == []  # reset on rejection

    def test_memory_is_bounded(self):
        state = LbfgsState(memory=3)
        rng = np.random.default_rng(0)
        for _ in range(10):
            s = rng.normal(size=4)
            state.push(s, s)  # s.s > 0 always
        assert len(state.pairs) == 3


def _gaussian_run(max_iter, seed=0, n=1, start=None):
    target = isotropic_gaussian(1, 1.0)
    cfg = SolverConfig(tau_star=1.0, mc_samples=256, max_iter=max_iter)
    sched = BandwidthSchedule(a=2.0, b=0.1, c=0.5)
    init = np.array([[1.7]]) if start is None else start
    rng = np.random.default_rng([seed, 1])
    return evi_mmd_run(target, sched, cfg, rng, init)


class TestEviMmdRun:
    def test_zero_iterations_returns_init_unchanged(self):
        # the public config enforces max_iter >= 1; the loop-not-entered
        # behavior is pinned on the internal loop helper
        init = np.random.default_rng(0).normal(size=(3, 2))
        final, record = run_loop(init, 0, lambda n, particles, record: None)
        np.testing.assert_array_equal(final.positions, init)
        assert len(record) == 0

    def test_single_particle_moves_toward_mode(self):
        final, record = _gaussian_run(40)
        assert abs(final.positions[0, 0]) < 0.2
        # |x| decreases over iterations: check a monotone-trend summary
        assert abs(final.positions[0, 0]) < 1.7

    def test_trajectory_distance_decreases(self):
        traj = []
        target = isotropic_gaussian(1, 1.0)
        cfg = SolverConfig(tau_star=1.0, mc_samples=256, max_iter=30)
        sched = BandwidthSchedule(a=2.0, b=0.1, c=0.5)
        evi_mmd_run(
            target,
            sched,
            cfg,
            np.random.default_rng([0, 1]),
            np.array([[1.7]]),
            on_iteration=lambda info: traj.append(abs(info.particles[0, 0])),
        )
        assert traj[-1] < traj[0]
        # broadly decreasing: every 10th checkpoint is closer than the previous
        assert traj[9] <= traj[0] and traj[19] <= traj[9] and traj[29] <= traj[19]

    def test_descent_and_displacement_invariants(self):
        infos = []
        target = isotropic_gaussian(2, 1.0)
        cfg = SolverConfig(tau_star=2.0, mc_samples=128, max_iter=25)
        init = np.random.default_rng(8).uniform(-2, 2, size=(20, 2))
        sched = auto_schedule(init, b=0.1, c=0.5)
        evi_mmd_run(
            target, sched, cfg, np.random.default_rng([8, 1]), init,
            on_iteration=infos.append,
        )
        n = 20
        for info in infos:
            assert info.final_objective <= info.anchor_objective + 1e-10
            bound = 2 * cfg.tau_star * n * abs(info.anchor_objective - info.free_energy)
            assert info.displacement <= bound + 1e-10

    def test_recorded_bandwidths_strictly_decrease(self):
        _, record = _gaussian_run(20)
        h = record.column("h_n")
        assert np.all(np.diff(h) < 0)
        assert np.all(h > 0.1)

    def test_same_seed_bit_identical_records(self):
        _, rec_a = _gaussian_run(10, seed=3)
        _, rec_b = _gaussian_run(10, seed=3)
        assert rec_a == rec_b

    def test_empirical_branch_runs_and_descends(self):
        rng = np.random.default_rng(14)
        data = rng.normal(size=(200, 2))
        target = EmpiricalTarget(data, minibatch_size=50)
        cfg = SolverConfig(tau_star=2.0, max_iter=15)
        init = rng.uniform(-2, 2, size=(30, 2))
        sched = auto_schedule(init, b=0.1, c=0.5)
        infos = []
        final, record = evi_mmd_run(
            target, sched, cfg, np.random.default_rng([14, 1]), init,
            on_iteration=infos.append,
        )
        assert len(record) == 15
        for info in infos:
            assert info.final_objective <= info.anchor_objective + 1e-10

    def test_dimension_mismatch_rejected(self):
        target = isotropic_gaussian(3, 1.0)
        cfg = SolverConfig(tau_star=1.0)
        with pytest.raises(InvalidArgumentError):
            evi_mmd_run(
                target,
                BandwidthSchedule(1, 0.1, 0.5),
                cfg,
                np.random.default_rng(0),
                np.zeros((2, 2)),
            )

    def test_inner_failure_carries_partial_record(self):
        calls = {"n": 0}
        cfg = SolverConfig(tau_star=1.0)

        def step(n, particles, record):
            def bad_vg(x):
                calls["n"] += 1
                if n >= 3:
                    return np.nan, np.zeros_like(x)
                return 0.0, np.zeros_like(x)

            return implicit_step(n, particles, bad_vg, cfg, h_n=1.0)

        with pytest.raises(NumericalFailureError) as err:
            run_loop(np.zeros((2, 2)), 10, step)
        assert err.value.partial_record is not None
        assert len(err.value.partial_record) == 2


class TestRandomStreamLayout:
    """``rng`` spawns two streams: the first draws the Monte-Carlo noise once,
    the second draws the mini-batches.  The first iteration's anchor
    objective is the free energy of the initial particles on that input."""

    SEED = 21

    def _first_anchor_objective(self, target, schedule, init, mc_samples):
        infos = []
        cfg = SolverConfig(tau_star=1.0, mc_samples=mc_samples, max_iter=1)
        evi_mmd_run(
            target, schedule, cfg, np.random.default_rng(self.SEED), init,
            on_iteration=infos.append,
        )
        return infos[0].anchor_objective

    def test_density_noise_from_first_stream(self):
        target = isotropic_gaussian(2, 1.0)
        schedule = BandwidthSchedule(a=1.5, b=0.1, c=0.5)
        init = np.random.default_rng(4).uniform(-2, 2, size=(12, 2))
        noise = McNoise.draw(np.random.default_rng(self.SEED).spawn(2)[0], 40, 2)
        expect = free_energy(
            init, target, KernelConfig.gaussian(bandwidth_at(schedule, 1)), noise=noise
        )
        got = self._first_anchor_objective(target, schedule, init, 40)
        assert got == pytest.approx(expect, rel=1e-12, abs=0)

    def test_minibatch_from_second_stream(self):
        rng = np.random.default_rng(5)
        target = EmpiricalTarget(rng.normal(size=(60, 2)), minibatch_size=15)
        schedule = BandwidthSchedule(a=1.5, b=0.1, c=0.5)
        init = rng.uniform(-2, 2, size=(12, 2))
        batch = draw_minibatch(target, np.random.default_rng(self.SEED).spawn(2)[1])
        expect = free_energy(
            init, target, KernelConfig.gaussian(bandwidth_at(schedule, 1)), batch=batch
        )
        got = self._first_anchor_objective(target, schedule, init, 40)
        assert got == pytest.approx(expect, rel=1e-12, abs=0)
