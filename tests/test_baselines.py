import numpy as np
import pytest

from evi_mmd import (
    BandwidthSchedule,
    DensityTarget,
    EmpiricalTarget,
    InvalidArgumentError,
    KernelConfig,
    LmcSchedule,
    McNoise,
    NumericalFailureError,
    SolverConfig,
    eight_mixture,
    energy_distance,
    energy_distance_run,
    evi_mmd_run,
    explicit_euler_mmd_run,
    gauss_eval,
    gauss_grad_x,
    grad_free_energy,
    isotropic_gaussian,
    lmc_run,
    svgd_run,
)
from evi_mmd import baselines
from evi_mmd.baselines import svgd_step
from evi_mmd.free_energy import density_closures
from evi_mmd.kernels import gram, pairwise_distances, squared_distances
from evi_mmd.metrics import RunEvaluator


class TestLmcSchedule:
    def test_paper_constants_first_step(self):
        sched = LmcSchedule(a_lmc=0.1, b_lmc=1.0, c_lmc=0.55)
        assert sched.step_size(1) == pytest.approx(0.1 * 2 ** -0.55, rel=1e-12)
        assert sched.step_size(1) == pytest.approx(0.06830, abs=5e-6)

    def test_decreasing(self):
        sched = LmcSchedule(a_lmc=0.1, b_lmc=1.0, c_lmc=0.55)
        steps = [sched.step_size(n) for n in range(1, 50)]
        assert all(b < a for a, b in zip(steps, steps[1:]))

    def test_rejects_non_positive(self):
        with pytest.raises(InvalidArgumentError):
            LmcSchedule(a_lmc=0.0, b_lmc=1.0, c_lmc=0.5)


class TestExplicitEuler:
    def test_zero_gradient_leaves_particles(self):
        # particles exactly at the two-sample optimum of a symmetric setup:
        # a single particle on its own data point has zero gradient
        data = np.array([[0.0, 0.0]])
        target = EmpiricalTarget(data, minibatch_size=1)
        init = data.copy()
        final, _ = explicit_euler_mmd_run(
            target,
            BandwidthSchedule(1.0, 0.1, 0.5),
            eta0=0.1,
            max_iter=5,
            rng=np.random.default_rng(0),
            init_particles=init,
        )
        np.testing.assert_array_equal(final.positions, init)

    def test_one_step_matches_gradient_oracle(self):
        rng = np.random.default_rng(3)
        data = rng.normal(size=(20, 2))
        target = EmpiricalTarget(data, minibatch_size=20)
        init = rng.normal(size=(4, 2))
        sched = BandwidthSchedule(1.0, 0.1, 0.5)
        eta0 = 0.05
        final, _ = explicit_euler_mmd_run(
            target, sched, eta0, 1, np.random.default_rng(1), init
        )
        h1 = sched.a / 1.0 + sched.b
        grad = grad_free_energy(
            init, target, KernelConfig.gaussian(h1), batch=data
        )
        expect = init - eta0 * 4 * grad
        np.testing.assert_allclose(final.positions, expect, atol=1e-12)

    def test_scalar_linear_convergence_rate(self):
        # one particle, one data point, tiny bandwidth-free surrogate: the
        # two-sample gradient near the optimum behaves like a quadratic, so
        # the error contracts geometrically
        data = np.array([[0.0]])
        target = EmpiricalTarget(data, minibatch_size=1)
        sched = BandwidthSchedule(a=1e-9, b=1.0, c=0.5)  # h ~ 1 constant
        init = np.array([[0.3]])
        errors = []
        pts = init
        for _ in range(4):
            final, _ = explicit_euler_mmd_run(
                target, sched, 0.1, 1, np.random.default_rng(0), pts
            )
            pts = final.positions
            errors.append(abs(pts[0, 0]))
        ratios = [b / a for a, b in zip(errors, errors[1:])]
        # K(x,0) = exp(-x^2/2): F'(x) ~ 2x near 0 (for h=1), so the
        # contraction factor is ~(1 - eta0 * N * 2) = 0.8
        assert all(0.6 < r < 0.95 for r in ratios)

    @pytest.mark.filterwarnings("ignore:overflow")
    def test_divergence_aborts_with_partial_record(self):
        from evi_mmd import DensityTarget

        # a pathological gradient field overflows the update to non-finite
        target = DensityTarget(
            density=lambda x: np.ones(len(x)),
            grad_density=lambda x: np.full_like(x, 1e308),
            domain_box=(np.array([-1.0]), np.array([1.0])),
        )
        sched = BandwidthSchedule(a=1e-9, b=1.0, c=0.5)
        with pytest.raises(NumericalFailureError) as err:
            explicit_euler_mmd_run(
                target, sched, 10.0, 50, np.random.default_rng(0), np.array([[0.5]])
            )
        assert err.value.partial_record is not None


class TestEnergyDistanceRun:
    def test_particles_identical_to_batch_give_zero(self):
        rng = np.random.default_rng(1)
        data = rng.normal(size=(5, 2))
        assert energy_distance(data, data) == 0.0

    def test_hand_value_1d(self):
        assert energy_distance(np.array([[0.0]]), np.array([[1.0]])) == pytest.approx(2.0)

    def test_descends_on_gaussian_data(self):
        rng = np.random.default_rng(2)
        data = rng.normal(size=(300, 2))
        target = EmpiricalTarget(data, minibatch_size=100)
        cfg = SolverConfig(tau_star=2.0, max_iter=20)
        init = rng.uniform(-2, 2, size=(40, 2))
        infos = []
        final, record = energy_distance_run(
            target, cfg, np.random.default_rng([2, 1]), init, on_iteration=infos.append
        )
        assert len(record) == 20
        for info in infos:
            assert info.final_objective <= info.anchor_objective + 1e-10
            bound = 2 * cfg.tau_star * 40 * abs(info.anchor_objective - info.free_energy)
            assert info.displacement <= bound + 1e-10
        # recorded free energy includes the batch constant: it is the full
        # energy distance of that iteration's batch, so roughly non-negative
        assert record.rows[-1].free_energy < record.rows[0].free_energy

    def test_requires_empirical_target(self):
        with pytest.raises(InvalidArgumentError):
            energy_distance_run(
                isotropic_gaussian(2, 1.0),
                SolverConfig(tau_star=1.0),
                np.random.default_rng(0),
                np.zeros((2, 2)),
            )

    def test_recorded_energy_matches_full_statistic_when_batch_is_all_data(self):
        rng = np.random.default_rng(5)
        data = rng.normal(size=(30, 2))
        target = EmpiricalTarget(data, minibatch_size=30)  # full batch
        cfg = SolverConfig(tau_star=2.0, max_iter=1)
        init = rng.uniform(-1, 1, size=(10, 2))
        infos = []
        final, record = energy_distance_run(
            target, cfg, np.random.default_rng([5, 1]), init, on_iteration=infos.append
        )
        expect = energy_distance(final.positions, data)
        assert record.rows[0].free_energy == pytest.approx(expect, rel=1e-10)

    def test_rows_bitwise_equal_to_pairwise_formulas(self, monkeypatch):
        # The batch constant and the evaluator's energy distance are
        # negative-Euclidean kernel sums; their bytes are those of the sums
        # of pairwise distances the recorded rows were first computed from.
        rng = np.random.default_rng(6)
        data = rng.normal(size=(60, 2))
        target = EmpiricalTarget(data, minibatch_size=20)
        reference = rng.normal(size=(40, 2))
        init = rng.uniform(-2, 2, size=(10, 2))
        batches, infos = [], []
        draw = baselines.draw_minibatch

        def recorded_draw(target, rng):
            batches.append(draw(target, rng))
            return batches[-1]

        monkeypatch.setattr(baselines, "draw_minibatch", recorded_draw)
        _, record = energy_distance_run(
            target, SolverConfig(tau_star=1.0, max_iter=4), np.random.default_rng(7), init,
            evaluator=RunEvaluator(reference, KernelConfig.gaussian(0.5)),
            on_iteration=infos.append,
        )
        assert len(record) == len(batches) == len(infos) == 4
        for row, batch, info in zip(record.rows, batches, infos):
            m = batch.shape[0]
            batch_const = -float(pairwise_distances(batch, batch).sum()) / (m * m)
            assert info.report_offset.hex() == batch_const.hex()
            assert row.free_energy.hex() == (info.free_energy + batch_const).hex()
            n = info.particles.shape[0]
            xy = float(pairwise_distances(info.particles, reference).sum()) / (n * 40)
            xx = float(pairwise_distances(info.particles, info.particles).sum()) / (n * n)
            yy = float(pairwise_distances(reference, reference).sum()) / (40 * 40)
            assert row.energy_dist_eval.hex() == (2.0 * xy - xx - yy).hex()


def einsum_svgd_step(pts, target, h, eta0):
    """One SVGD step by the einsum formulas of its drift and repulsion, kept
    as the reference of their bytes."""
    n = pts.shape[0]
    w = gram(pts, KernelConfig.gaussian(h))
    score = baselines._grad_log_density(target, pts)
    drift = np.einsum("ji,jd->id", w, score)
    repulsion = (pts * w.sum(axis=0)[:, None] - np.einsum("ji,jd->id", w, pts)) / (h * h)
    return pts + eta0 / n * (drift + repulsion)


def slow_range_case(source, n, d):
    """A target and n particles in d dimensions built from eight-ring draws
    or from the eight mixture's [-4, 4] initialization box: 2-d blocks of
    such points, cut to d columns.  The target is the eight mixture at
    d = 2 and a broad Gaussian otherwise."""
    eight = eight_mixture()
    rng = np.random.default_rng(100 * n + d)
    blocks = -(-d // 2)
    if source == "eight":
        pts = np.concatenate([eight.exact_sampler(rng, n) for _ in range(blocks)], axis=1)
    else:
        pts = rng.uniform(-4.0, 4.0, size=(n, 2 * blocks))
    target = eight if d == 2 else isotropic_gaussian(d, 2.0)
    return target, np.ascontiguousarray(pts[:, :d])


class TestSvgd:
    def test_single_particle_at_mode_is_stationary(self):
        target = isotropic_gaussian(2, 1.0)
        init = np.zeros((1, 2))
        final, _ = svgd_run(target, bandwidth=0.5, eta0=0.1, max_iter=10, init_particles=init)
        np.testing.assert_array_equal(final.positions, init)

    def test_symmetric_particles_mirror(self):
        target = isotropic_gaussian(1, 1.0)
        init = np.array([[-0.8], [0.8]])
        final, _ = svgd_run(target, bandwidth=0.5, eta0=0.05, max_iter=25, init_particles=init)
        np.testing.assert_allclose(final.positions[0], -final.positions[1], atol=1e-12)

    def test_zero_step_size_is_identity(self):
        target = isotropic_gaussian(2, 1.0)
        init = np.random.default_rng(0).normal(size=(6, 2))
        final, _ = svgd_run(target, bandwidth=0.5, eta0=0.0, max_iter=5, init_particles=init)
        np.testing.assert_array_equal(final.positions, init)

    def test_one_step_matches_double_loop_oracle(self):
        target = isotropic_gaussian(2, 1.0)
        rng = np.random.default_rng(7)
        pts = rng.normal(size=(3, 2))
        h, eta0 = 0.9, 0.1
        got = svgd_step(pts, target, h, eta0)
        dens = target.density(pts)
        grads = target.grad_density(pts)
        score = grads / dens[:, None]
        expect = pts.copy()
        for i in range(3):
            update = np.zeros(2)
            for j in range(3):
                update += gauss_eval(pts[j], pts[i], h) * score[j]
                update += gauss_grad_x(pts[j], pts[i], h)
            expect[i] += eta0 / 3 * update
        np.testing.assert_allclose(got, expect, atol=1e-12)

    def test_density_underflow_raises(self):
        target = isotropic_gaussian(1, 0.01)  # very tight: far particle underflows
        init = np.array([[500.0]])
        with pytest.raises(NumericalFailureError):
            svgd_run(target, bandwidth=0.5, eta0=0.1, max_iter=1, init_particles=init)

    def test_underflow_carries_partial_record(self):
        target = isotropic_gaussian(1, 0.05)
        init = np.array([[0.1], [0.3], [-0.2]])
        with pytest.raises(NumericalFailureError) as err:
            svgd_run(
                target, bandwidth=0.5, eta0=1.0, max_iter=50, init_particles=init,
                record_stride=1,
            )
        assert len(err.value.partial_record) == 1

    def test_record_stride(self):
        target = isotropic_gaussian(1, 1.0)
        init = np.array([[1.0], [2.0]])
        _, record = svgd_run(
            target, bandwidth=0.5, eta0=0.01, max_iter=25, init_particles=init,
            record_stride=10,
        )
        assert [r.n for r in record.rows] == [10, 20, 25]

    @pytest.mark.parametrize("d", [1, 2, 3, 10])
    @pytest.mark.parametrize("n", [5, 200, 257])
    def test_step_bitwise_equal_to_einsum_repulsion(self, n, d):
        target = isotropic_gaussian(d, 1.0)
        pts = np.random.default_rng(n + d).normal(size=(n, d))
        h, eta0 = 0.8, 0.3
        expect = einsum_svgd_step(pts, target, h, eta0)
        np.testing.assert_array_equal(svgd_step(pts, target, h, eta0), expect)

    @pytest.mark.parametrize("d", [1, 2, 3, 10])
    @pytest.mark.parametrize("n", [1, 5, 200, 257])
    @pytest.mark.parametrize("source", ["eight", "box"])
    def test_step_bitwise_in_slow_exp_range(self, source, n, d):
        # h = 0.1, the svgd-eight bandwidth: most Gram exponents fall below
        # -708, where the kernel computes exp off numpy's vector loop.
        target, pts = slow_range_case(source, n, d)
        h, eta0 = 0.1, 0.3
        expect = einsum_svgd_step(pts, target, h, eta0)
        got = svgd_step(pts, target, h, eta0)
        assert got.flags.c_contiguous
        assert got.tobytes() == expect.tobytes()
        if n >= 200:
            exponents = -squared_distances(pts, pts) / (2 * h * h)
            assert np.any(exponents < -708.0)


class TestLmc:
    def test_zero_noise_at_mode_is_stationary(self):
        target = isotropic_gaussian(2, 1.0)
        sched = LmcSchedule(0.1, 1.0, 0.55)
        init = np.zeros((3, 2))
        final, _ = lmc_run(
            target, sched, 10, np.random.default_rng(0), init, noise_scale=0.0
        )
        np.testing.assert_array_equal(final.positions, init)

    def test_zero_noise_moves_toward_mode(self):
        target = isotropic_gaussian(1, 1.0)
        sched = LmcSchedule(0.1, 1.0, 0.55)
        init = np.array([[2.0]])
        final, _ = lmc_run(
            target, sched, 50, np.random.default_rng(0), init, noise_scale=0.0
        )
        assert abs(final.positions[0, 0]) < 2.0

    def test_fixed_seed_reproducible(self):
        target = isotropic_gaussian(2, 1.0)
        sched = LmcSchedule(0.1, 1.0, 0.55)
        init = np.random.default_rng(1).normal(size=(4, 2))
        a, _ = lmc_run(target, sched, 30, np.random.default_rng(9), init)
        b, _ = lmc_run(target, sched, 30, np.random.default_rng(9), init)
        np.testing.assert_array_equal(a.positions, b.positions)

    def test_record_stride_hits_final(self):
        target = isotropic_gaussian(1, 1.0)
        sched = LmcSchedule(0.1, 1.0, 0.55)
        init = np.array([[0.5]])
        _, record = lmc_run(
            target, sched, 250, np.random.default_rng(0), init, record_stride=100
        )
        assert [r.n for r in record.rows] == [100, 200, 250]


def nan_beyond(radius):
    """A 1-d target whose density is NaN beyond ``radius`` and whose gradient
    points away from 0 (grad = +x rho), so a particle drifts out to it."""

    def density(x):
        x = np.atleast_2d(x)
        rho = np.exp(-0.5 * x[:, 0] ** 2)
        return np.where(np.abs(x[:, 0]) > radius, np.nan, rho)

    return DensityTarget(
        density=density,
        grad_density=lambda x: np.atleast_2d(x) * density(x)[:, None],
        domain_box=(np.array([-1.0]), np.array([1.0])),
    )


def overflowing_gradient():
    """A 1-d target whose score grad rho / rho overflows to inf."""
    return DensityTarget(
        density=lambda x: np.full(len(x), 0.1),
        grad_density=lambda x: np.full_like(x, 1e308),
        domain_box=(np.array([-1.0]), np.array([1.0])),
    )


# SVGD and Langevin as run(target, init, **keywords), deterministic.
DRIFT_RUNS = {
    "svgd": lambda t, x, **kw: svgd_run(t, 0.5, 0.5, 20, x, **kw),
    "lmc": lambda t, x, **kw: lmc_run(
        t, LmcSchedule(1.0, 1.0, 0.55), 20, np.random.default_rng(0), x,
        noise_scale=0.0, **kw,
    ),
}


class TestNonFiniteSteps:
    """A density that turns NaN, or a score that overflows the update, is a
    numerical failure with the last finite particles and the rows so far."""

    @pytest.mark.parametrize("method", list(DRIFT_RUNS))
    def test_nan_density(self, method):
        infos = []
        with pytest.raises(NumericalFailureError) as err:
            DRIFT_RUNS[method](
                nan_beyond(2.0), np.array([[1.0]]), record_stride=1, on_iteration=infos.append
            )
        assert len(infos) >= 2
        assert len(err.value.partial_record) == len(infos)
        last = err.value.last_iterate
        np.testing.assert_array_equal(last, infos[-1].particles)
        assert np.all(np.isfinite(last)) and abs(last[0, 0]) > 2.0

    @pytest.mark.filterwarnings("ignore:overflow", "ignore:invalid value")
    @pytest.mark.parametrize("method", list(DRIFT_RUNS))
    def test_overflowing_update(self, method):
        init = np.array([[0.1], [0.2], [0.3]])
        evaluator = RunEvaluator(np.zeros((3, 1)), KernelConfig.gaussian(1.0))
        with pytest.raises(NumericalFailureError, match="non-finite particles") as err:
            DRIFT_RUNS[method](overflowing_gradient(), init, record_stride=1, evaluator=evaluator)
        np.testing.assert_array_equal(err.value.last_iterate, init)
        assert len(err.value.partial_record) == 0


def _empirical_3d():
    return EmpiricalTarget(np.random.default_rng(0).normal(size=(10, 3)), minibatch_size=5)


_SCHEDULE = BandwidthSchedule(1.0, 0.1, 0.5)
_ONE_STEP = SolverConfig(tau_star=1.0, max_iter=1)

# Each run function with one iteration, called as run(target, init).
RUNS = {
    "evi_mmd": lambda t, x: evi_mmd_run(t, _SCHEDULE, _ONE_STEP, np.random.default_rng(0), x),
    "explicit_mmd": lambda t, x: explicit_euler_mmd_run(
        t, _SCHEDULE, 0.1, 1, np.random.default_rng(0), x
    ),
    "energy_distance": lambda t, x: energy_distance_run(
        t, _ONE_STEP, np.random.default_rng(0), x
    ),
    "svgd": lambda t, x: svgd_run(t, 0.5, 0.1, 1, x),
    "lmc": lambda t, x: lmc_run(t, LmcSchedule(0.1, 1.0, 0.55), 1, np.random.default_rng(0), x),
}

# (run, a 3-d target of a kind the run accepts)
ACCEPTED = [
    ("evi_mmd", lambda: isotropic_gaussian(3)),
    ("evi_mmd", _empirical_3d),
    ("explicit_mmd", lambda: isotropic_gaussian(3)),
    ("explicit_mmd", _empirical_3d),
    ("energy_distance", _empirical_3d),
    ("svgd", lambda: isotropic_gaussian(3)),
    ("lmc", lambda: isotropic_gaussian(3)),
]
ACCEPTED_IDS = [
    "evi_mmd-density",
    "evi_mmd-empirical",
    "explicit_mmd-density",
    "explicit_mmd-empirical",
    "energy_distance",
    "svgd",
    "lmc",
]


def _never_evaluated():
    """A 3-d density target that fails the test if a step evaluates it."""

    def fail(x):
        raise AssertionError("a run evaluated its target before checking its arguments")

    return DensityTarget(density=fail, grad_density=fail, domain_box=(-np.ones(3), np.ones(3)))


_NON_FINITE = [np.nan, np.inf, -np.inf]

# (run, the argument's name): (run(target, init, value), values it rejects,
# a value at or near the bound that it accepts).  Rejection comes before the
# first step.
SCALAR_RUNS = {
    ("explicit_mmd", "eta0"): (
        lambda t, x, v: explicit_euler_mmd_run(t, _SCHEDULE, v, 1, np.random.default_rng(0), x),
        [0.0, -1.0] + _NON_FINITE,
        1e-3,
    ),
    ("svgd", "eta0"): (lambda t, x, v: svgd_run(t, 0.5, v, 1, x), [-1.0] + _NON_FINITE, 0.0),
    ("svgd", "bandwidth"): (
        lambda t, x, v: svgd_run(t, v, 0.1, 1, x),
        [0.0, -1.0] + _NON_FINITE,
        1e-3,
    ),
    ("lmc", "noise_scale"): (
        lambda t, x, v: lmc_run(
            t, LmcSchedule(0.1, 1.0, 0.55), 1, np.random.default_rng(0), x, noise_scale=v
        ),
        [-1.0] + _NON_FINITE,
        0.0,
    ),
}


class TestRunInputCheck:
    """Every run function rejects a bad init or a wrong target the same way."""

    @pytest.mark.parametrize("method,make_target", ACCEPTED, ids=ACCEPTED_IDS)
    def test_accepts_matching_input(self, method, make_target):
        init = np.random.default_rng(1).uniform(-1, 1, size=(4, 3))
        final, _ = RUNS[method](make_target(), init)
        assert final.positions.shape == (4, 3)

    @pytest.mark.parametrize("method,make_target", ACCEPTED, ids=ACCEPTED_IDS)
    def test_dimension_mismatch(self, method, make_target):
        with pytest.raises(InvalidArgumentError, match="target dimension 3 != particle"):
            RUNS[method](make_target(), np.zeros((4, 2)))

    @pytest.mark.parametrize("method,make_target", ACCEPTED, ids=ACCEPTED_IDS)
    def test_nan_in_init(self, method, make_target):
        init = np.zeros((4, 3))
        init[1, 2] = np.nan
        with pytest.raises(InvalidArgumentError, match="init_particles must be a finite"):
            RUNS[method](make_target(), init)

    @pytest.mark.parametrize("method,make_target", ACCEPTED, ids=ACCEPTED_IDS)
    def test_empty_init(self, method, make_target):
        with pytest.raises(InvalidArgumentError, match="N >= 1"):
            RUNS[method](make_target(), np.zeros((0, 3)))

    @pytest.mark.parametrize("method", list(RUNS))
    def test_init_not_a_matrix(self, method):
        with pytest.raises(InvalidArgumentError, match="init_particles must be a finite N x d"):
            RUNS[method](isotropic_gaussian(3), np.zeros(3))

    @pytest.mark.parametrize(
        "method,target",
        [
            ("evi_mmd", object()),
            ("explicit_mmd", object()),
            ("energy_distance", isotropic_gaussian(3)),
            ("svgd", _empirical_3d()),
            ("lmc", _empirical_3d()),
        ],
        ids=["evi_mmd", "explicit_mmd", "energy_distance", "svgd", "lmc"],
    )
    def test_wrong_target_kind(self, method, target):
        with pytest.raises(InvalidArgumentError, match="target must be"):
            RUNS[method](target, np.zeros((4, 3)))

    @pytest.mark.parametrize(
        "method,name,value",
        [(m, name, v) for m, name in SCALAR_RUNS for v in SCALAR_RUNS[m, name][1]],
    )
    def test_bad_scalar_argument(self, method, name, value):
        run = SCALAR_RUNS[method, name][0]
        with pytest.raises(InvalidArgumentError, match=name):
            run(_never_evaluated(), np.zeros((4, 3)), value)

    @pytest.mark.parametrize("method,name", list(SCALAR_RUNS))
    def test_scalar_argument_near_its_bound(self, method, name):
        run, _, value = SCALAR_RUNS[method, name]
        init = np.random.default_rng(1).uniform(-1, 1, size=(4, 3))
        final, _ = run(isotropic_gaussian(3), init, value)
        assert np.all(np.isfinite(final.positions))


def test_energy_distance_batch_constant_only_on_recorded_rows(monkeypatch):
    rng = np.random.default_rng(3)
    target = EmpiricalTarget(rng.normal(size=(80, 2)), minibatch_size=20)
    init = rng.uniform(-2, 2, size=(10, 2))
    cfg = SolverConfig(tau_star=1.0, max_iter=6)
    _, every = energy_distance_run(target, cfg, np.random.default_rng(4), init)

    sweep = baselines.square_term
    calls = []

    def counted(batch, kernel):
        calls.append(batch.shape)
        return sweep(batch, kernel)

    monkeypatch.setattr(baselines, "square_term", counted)
    _, thinned = energy_distance_run(
        target, cfg, np.random.default_rng(4), init, record_stride=3
    )
    assert len(calls) == 2
    # the recorded rows still carry the batch constant
    assert [r.n for r in thinned.rows] == [3, 6]
    assert [r.free_energy for r in thinned.rows] == [
        every.rows[2].free_energy,
        every.rows[5].free_energy,
    ]
