import dataclasses

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from evi_mmd import (
    BandwidthSchedule,
    DensityTarget,
    EmpiricalTarget,
    GaussianMixture,
    InvalidArgumentError,
    IterationRow,
    KernelConfig,
    LmcSchedule,
    McNoise,
    ParticleSet,
    RunRecord,
    SolverConfig,
    bandwidth_at,
    cross_term_density,
    eight_mixture,
    evi_mmd_run,
    explicit_euler_mmd_run,
    gauss_eval,
    gauss_grad_x,
    initial_particles,
    isotropic_gaussian,
    lmc_run,
    mixture_sampler,
    proximal_objective,
    svgd_run,
    wave_density,
)
from evi_mmd.model import GAUSSIAN, data_bounding_box
from evi_mmd.solver import run_loop


def _row(n, **overrides):
    base = dict(
        n=n, h_n=1.0, free_energy=0.0, mmd2_eval=0.0,
        energy_dist_eval=0.0, inner_iters=1, displacement=0.0,
    )
    base.update(overrides)
    return IterationRow(**base)


class TestParticleSet:
    def test_valid_construction(self):
        ps = ParticleSet(np.zeros((3, 2)), iteration=5)
        assert ps.n_particles == 3 and ps.dim == 2 and ps.iteration == 5

    def test_positions_are_read_only_copies(self):
        src = np.zeros((2, 2))
        ps = ParticleSet(src)
        src[0, 0] = 99.0
        assert ps.positions[0, 0] == 0.0
        with pytest.raises(ValueError):
            ps.positions[0, 0] = 1.0

    @pytest.mark.parametrize(
        "positions",
        [np.zeros((0, 2)), np.zeros((2, 0)), np.zeros(3), [[np.nan, 0.0]], [[np.inf, 0.0]]],
    )
    def test_rejects_bad_positions(self, positions):
        with pytest.raises(InvalidArgumentError):
            ParticleSet(positions)

    @pytest.mark.parametrize(
        "positions",
        [[["a", "b"]], [[0.0, 1.0], [2.0]], [[object()]], [["1.5", "2"]],
         np.array([["1.5", "2"]]), [[b"1.5", b"2"]], [[1.5, "2"]],
         np.array([["1.5", 2.0]], dtype=object), np.array([[b"1.5", 2.0]], dtype=object)],
    )
    def test_rejects_what_is_not_real_numbers_by_name(self, positions):
        match = "^positions must be an array of real numbers"
        with pytest.raises(InvalidArgumentError, match=match):
            ParticleSet(positions)

    def test_rejects_negative_iteration(self):
        with pytest.raises(InvalidArgumentError):
            ParticleSet(np.zeros((1, 1)), iteration=-1)


class TestDensityTarget:
    def test_dim_from_box(self):
        t = DensityTarget(
            density=lambda x: np.ones(len(x)),
            grad_density=lambda x: np.zeros_like(x),
            domain_box=(np.zeros(3), np.ones(3)),
        )
        assert t.dim == 3

    def test_fused_evaluation_defaults_to_the_separate_callables(self):
        t = DensityTarget(
            density=lambda x: np.full(len(x), 2.0),
            grad_density=lambda x: np.full_like(x, 3.0),
            domain_box=(np.zeros(2), np.ones(2)),
        )
        vals, grads = t.density_and_grad(np.zeros((4, 2)))
        np.testing.assert_array_equal(vals, np.full(4, 2.0))
        np.testing.assert_array_equal(grads, np.full((4, 2), 3.0))
        # a copy with a new density evaluates the new one
        copy = dataclasses.replace(t, density=lambda x: np.full(len(x), 5.0))
        np.testing.assert_array_equal(copy.density_and_grad(np.zeros((1, 2)))[0], [5.0])

    def test_given_fused_evaluation_is_kept(self):
        def fused(x):
            return np.ones(len(x)), np.zeros_like(x)

        t = DensityTarget(
            density=lambda x: np.ones(len(x)),
            grad_density=lambda x: np.zeros_like(x),
            domain_box=(np.zeros(2), np.ones(2)),
            density_and_grad=fused,
        )
        assert t.density_and_grad is fused

    def test_shifted_evaluation_defaults_to_the_probe_matrix(self):
        def fused(x):
            return x[:, 0] + 10.0 * x[:, 1], np.stack([x[:, 0], -x[:, 1]], axis=1)

        t = DensityTarget(
            density=lambda x: fused(x)[0],
            grad_density=lambda x: fused(x)[1],
            domain_box=(np.zeros(2), np.ones(2)),
            density_and_grad=fused,
        )
        x = np.array([[1.0, 2.0], [3.0, 4.0]])
        offsets = np.array([[0.0, 0.0], [0.5, -1.0], [2.0, 1.0]])
        val_sums, grad_sums = t.shifted_sweep(offsets)(x)
        # particle 0's probes x_0 + o_l have densities 21, 11.5 and 33;
        # particle 1's 43, 33.5 and 55
        np.testing.assert_array_equal(val_sums, [21.0 + 11.5 + 33.0, 43.0 + 33.5 + 55.0])
        np.testing.assert_array_equal(grad_sums, [[5.5, -6.0], [11.5, -12.0]])
        # a copy with a new fused evaluation sweeps the new one
        copy = dataclasses.replace(t, density_and_grad=lambda x: (np.ones(len(x)), 2.0 * x))
        val_sums, grad_sums = copy.shifted_sweep(offsets)(x)
        np.testing.assert_array_equal(val_sums, [3.0, 3.0])
        np.testing.assert_array_equal(grad_sums, [[11.0, 12.0], [23.0, 24.0]])

    def test_given_shifted_evaluation_is_kept(self):
        def shifted(offsets):
            return lambda x: (np.zeros(len(x)), np.zeros_like(x))

        t = DensityTarget(
            density=lambda x: np.ones(len(x)),
            grad_density=lambda x: np.zeros_like(x),
            domain_box=(np.zeros(2), np.ones(2)),
            shifted_sweep=shifted,
        )
        assert t.shifted_sweep is shifted
        assert dataclasses.replace(t, density=lambda x: x[:, 0]).shifted_sweep is shifted

    def test_one_stage_shifted_evaluation_fails_loudly(self):
        # The shifted evaluation was one call, (x, offsets) -> sums; it is
        # now prepare(offsets) -> sweep(x), under a new field name.
        with pytest.raises(TypeError, match="shifted_density_and_grad"):
            DensityTarget(
                density=lambda x: np.ones(len(x)),
                grad_density=lambda x: np.zeros_like(x),
                domain_box=(np.zeros(2), np.ones(2)),
                shifted_density_and_grad=lambda x, offsets: (np.zeros(len(x)), np.zeros_like(x)),
            )

    def test_rejects_inverted_box(self):
        with pytest.raises(InvalidArgumentError):
            DensityTarget(
                density=lambda x: np.ones(len(x)),
                grad_density=lambda x: np.zeros_like(x),
                domain_box=(np.ones(2), np.zeros(2)),
            )

    def test_rejects_mismatched_box(self):
        with pytest.raises(InvalidArgumentError):
            DensityTarget(
                density=lambda x: np.ones(len(x)),
                grad_density=lambda x: np.zeros_like(x),
                domain_box=(np.zeros(2), np.ones(3)),
            )


class TestEmpiricalTarget:
    def test_valid(self):
        t = EmpiricalTarget(np.zeros((4, 2)), minibatch_size=2)
        assert t.n_rows == 4 and t.dim == 2

    @pytest.mark.parametrize("size", [0, 5, -1, 2.5])
    def test_rejects_bad_minibatch(self, size):
        with pytest.raises(InvalidArgumentError):
            EmpiricalTarget(np.zeros((4, 2)), minibatch_size=size)

    def test_rejects_non_finite_rows(self):
        with pytest.raises(InvalidArgumentError):
            EmpiricalTarget(np.array([[1.0], [np.nan]]), minibatch_size=1)


class TestKernelConfig:
    @pytest.mark.parametrize("h", [1e-155, 2e-162, 5e-324])
    def test_gaussian_bandwidth_square_must_not_underflow(self, h):
        with pytest.raises(InvalidArgumentError, match="bandwidth"):
            KernelConfig.gaussian(h)

    def test_gaussian_bandwidth_with_a_normal_square_accepted(self):
        assert KernelConfig.gaussian(1e-150).bandwidth == 1e-150

    def test_gaussian_requires_positive_bandwidth(self):
        with pytest.raises(InvalidArgumentError):
            KernelConfig.gaussian(0.0)

    def test_negative_euclidean_ignores_bandwidth(self):
        k = KernelConfig(kind="negative_euclidean", bandwidth=-5.0)
        assert k.kind != GAUSSIAN

    def test_unknown_kind_rejected(self):
        with pytest.raises(InvalidArgumentError):
            KernelConfig(kind="matern")


class TestBandwidthSchedule:
    @pytest.mark.parametrize("kwargs", [dict(a=0), dict(b=-0.1), dict(c=0.0)])
    def test_rejects_non_positive_parameters(self, kwargs):
        params = dict(a=1.0, b=0.1, c=0.5)
        params.update(kwargs)
        with pytest.raises(InvalidArgumentError):
            BandwidthSchedule(**params)

    @given(
        a=st.floats(min_value=0.01, max_value=100),
        b=st.floats(min_value=0.001, max_value=10),
        c=st.floats(min_value=0.01, max_value=2),
        n=st.integers(min_value=1, max_value=10**6),
    )
    def test_strictly_decreasing_and_bounded_below(self, a, b, c, n):
        from evi_mmd import bandwidth_at

        sched = BandwidthSchedule(a=a, b=b, c=c)
        h_n = bandwidth_at(sched, n)
        h_next = bandwidth_at(sched, n + 1)
        # float64 resolves a strict decrease only where the step in a / n^c
        # exceeds the spacing of doubles at h_n; below it the two may round equal
        if a / n**c - a / (n + 1) ** c > np.spacing(h_n):
            assert h_next < h_n
        else:
            assert h_next <= h_n
        assert h_n > b


class TestSolverConfig:
    def test_defaults_valid(self):
        cfg = SolverConfig(tau_star=2.0)
        assert cfg.lbfgs_memory == 10 and cfg.lbfgs_max_inner == 50

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(tau_star=0.0),
            dict(mc_samples=0),
            dict(max_iter=0),
            dict(lbfgs_grad_tol=0.0),
        ],
    )
    def test_rejects_invalid_fields(self, kwargs):
        params = dict(tau_star=1.0)
        params.update(kwargs)
        with pytest.raises(InvalidArgumentError):
            SolverConfig(**params)


def _rng():
    return np.random.default_rng(0)


_MIXTURE = GaussianMixture(weights=np.ones(1), means=np.zeros((1, 2)), covariances=np.eye(2)[None])

# Every count the value objects and run functions check: (field named in the
# error, its minimum, a call that passes the value to that field).
COUNT_SITES = {
    "ParticleSet.iteration": ("iteration", 0, lambda v: ParticleSet(np.zeros((1, 1)), v)),
    "EmpiricalTarget.minibatch_size": (
        "minibatch_size", 1, lambda v: EmpiricalTarget(np.zeros((4, 2)), minibatch_size=v)
    ),
    **{
        f"SolverConfig.{name}": (name, 1, lambda v, name=name: SolverConfig(1, **{name: v}))
        for name in ("mc_samples", "max_iter", "lbfgs_memory", "lbfgs_max_inner")
    },
    "bandwidth_at": ("n", 1, lambda v: bandwidth_at(BandwidthSchedule(1.0, 0.1, 0.5), v)),
    "mixture_sampler": ("n", 1, lambda v: mixture_sampler(_MIXTURE, v, _rng())),
    "wave sampler": ("n", 1, lambda v: wave_density().exact_sampler(_rng(), v)),
    "isotropic_gaussian": ("d", 1, lambda v: isotropic_gaussian(v)),
    "McNoise.draw n_samples": ("n_samples", 1, lambda v: McNoise.draw(_rng(), v, 2)),
    "McNoise.draw dim": ("dim", 1, lambda v: McNoise.draw(_rng(), 2, v)),
    "initial_particles": ("n_particles", 1, lambda v: initial_particles(eight_mixture(), v, _rng())),
    "run_loop max_iter": ("max_iter", 0, lambda v: run_loop(np.zeros((1, 1)), v, None)),
    "run_loop record_stride": (
        "record_stride", 1, lambda v: run_loop(np.zeros((1, 1)), 1, None, record_stride=v)
    ),
}


class TestCountChecks:
    @pytest.mark.parametrize("bad", ["nan", "inf", "2.5", "below", "string"])
    @pytest.mark.parametrize("site", COUNT_SITES)
    def test_rejects_a_bad_count_naming_the_field(self, site, bad):
        name, minimum, call = COUNT_SITES[site]
        value = {
            "nan": float("nan"), "inf": float("inf"), "2.5": 2.5,
            "below": minimum - 1, "string": "3",
        }[bad]
        with pytest.raises(InvalidArgumentError) as err:
            call(value)
        assert str(err.value).startswith(f"{name} must be an integer ")

    def test_minibatch_size_above_the_row_count_names_the_field(self):
        with pytest.raises(InvalidArgumentError, match=r"^minibatch_size .* in \[1, 4\], got 5$"):
            EmpiricalTarget(np.zeros((4, 2)), minibatch_size=5)

    def test_an_integral_float_comes_back_as_an_int(self):
        cfg = SolverConfig(tau_star=1, mc_samples=3.0)
        assert cfg.mc_samples == 3 and type(cfg.mc_samples) is int
        counts = [
            SolverConfig(1, max_iter=np.float64(4.0)).max_iter,
            SolverConfig(1, lbfgs_memory=5.0).lbfgs_memory,
            SolverConfig(1, lbfgs_max_inner=np.int64(6)).lbfgs_max_inner,
            ParticleSet(np.zeros((1, 1)), iteration=7.0).iteration,
            EmpiricalTarget(np.zeros((8, 1)), minibatch_size=np.float32(8.0)).minibatch_size,
        ]
        assert counts == [4, 5, 6, 7, 8]
        assert all(type(count) is int for count in counts)

    def test_bools_are_not_counts(self):
        with pytest.raises(InvalidArgumentError, match="^mc_samples "):
            SolverConfig(1, mc_samples=True)


def _never_called(x):
    raise AssertionError("the check should have rejected the argument first")


_X0 = np.zeros((2, 1))
_SCHEDULE = BandwidthSchedule(1.0, 0.1, 0.5)

# Every positive real the value objects and library functions check: (field
# named in the error, whether 0 is allowed, a call that passes the value to
# that field).
POSITIVE_SITES = {
    **{
        f"SolverConfig.{name}": (
            name, False, lambda v, name=name: SolverConfig(**{"tau_star": 1, name: v})
        )
        for name in ("tau_star", "lbfgs_grad_tol")
    },
    **{
        f"BandwidthSchedule.{name}": (
            f"schedule parameter {name}",
            False,
            lambda v, name=name: BandwidthSchedule(**{"a": 1.0, "b": 0.1, "c": 0.5, name: v}),
        )
        for name in "abc"
    },
    **{
        f"LmcSchedule.{name}": (
            name,
            False,
            lambda v, name=name: LmcSchedule(
                **{"a_lmc": 0.1, "b_lmc": 1.0, "c_lmc": 0.55, name: v}
            ),
        )
        for name in ("a_lmc", "b_lmc", "c_lmc")
    },
    "KernelConfig.gaussian": ("bandwidth", False, KernelConfig.gaussian),
    "gauss_eval": ("bandwidth", False, lambda v: gauss_eval(np.zeros(1), np.ones(1), v)),
    "gauss_grad_x": ("bandwidth", False, lambda v: gauss_grad_x(np.zeros(1), np.ones(1), v)),
    "cross_term_density": (
        "bandwidth",
        False,
        lambda v: cross_term_density(_X0, isotropic_gaussian(1), v, McNoise.draw(_rng(), 2, 1)),
    ),
    "isotropic_gaussian": ("sigma", False, lambda v: isotropic_gaussian(2, v)),
    "explicit_euler_mmd_run": (
        "eta0",
        False,
        lambda v: explicit_euler_mmd_run(isotropic_gaussian(1), _SCHEDULE, v, 1, _rng(), _X0),
    ),
    "svgd_run eta0": ("eta0", True, lambda v: svgd_run(isotropic_gaussian(1), 0.5, v, 1, _X0)),
    "svgd_run bandwidth": (
        "bandwidth", False, lambda v: svgd_run(isotropic_gaussian(1), v, 0.1, 1, _X0)
    ),
    "lmc_run": (
        "noise_scale",
        True,
        lambda v: lmc_run(
            isotropic_gaussian(1), LmcSchedule(0.1, 1.0, 0.55), 1, _rng(), _X0, noise_scale=v
        ),
    ),
    "proximal_objective": (
        "tau_star", False, lambda v: proximal_objective(_X0, _X0, v, _never_called)
    ),
}

# Values no positive-real field accepts; "zero" is -1 where 0 is allowed.
BAD_REALS = {
    "bool": True,
    "string": "2.0",
    "none": None,
    "huge int": 10**400,
    "nan": float("nan"),
    "inf": float("inf"),
    "zero": 0,
}


class TestPositiveChecks:
    @pytest.mark.parametrize("bad", BAD_REALS)
    @pytest.mark.parametrize("site", POSITIVE_SITES)
    def test_rejects_a_bad_real_naming_the_field(self, site, bad):
        name, allow_zero, call = POSITIVE_SITES[site]
        value = -1.0 if bad == "zero" and allow_zero else BAD_REALS[bad]
        with pytest.raises(InvalidArgumentError) as err:
            call(value)
        assert str(err.value).startswith(f"{name} must be a finite real ")

    def test_a_numpy_real_comes_back_as_a_python_float(self):
        checked = [
            BandwidthSchedule(np.float32(0.5), np.int64(1), 0.5).a,
            BandwidthSchedule(np.float32(0.5), np.int64(1), 0.5).b,
            KernelConfig.gaussian(np.float64(0.25)).bandwidth,
            LmcSchedule(np.int32(1), 1.0, 0.55).a_lmc,
        ]
        assert checked == [0.5, 1.0, 0.25, 1.0]
        assert all(type(value) is float for value in checked)


class TestSolverConfigStoresCheckedValues:
    def test_positive_reals_are_python_floats(self):
        cfg = SolverConfig(tau_star=np.float32(2.0), lbfgs_grad_tol=np.float32(1e-6))
        assert type(cfg.tau_star) is float and cfg.tau_star == 2.0
        assert type(cfg.lbfgs_grad_tol) is float
        assert type(SolverConfig(tau_star=1).tau_star) is float

    def test_a_float32_ratio_runs_as_its_float(self):
        target = eight_mixture()
        init = initial_particles(target, 20, np.random.default_rng(5))
        schedule = BandwidthSchedule(a=2.0, b=0.1, c=0.5)

        def run(tau_star):
            config = SolverConfig(tau_star=tau_star, mc_samples=50, max_iter=2)
            final, _ = evi_mmd_run(target, schedule, config, np.random.default_rng(6), init)
            return final.positions.tobytes()

        assert run(np.float32(2.0)) == run(2.0)


class TestRunRecord:
    def test_strictly_increasing_iterations_enforced(self):
        RunRecord((_row(1), _row(2), _row(5)))
        with pytest.raises(InvalidArgumentError):
            RunRecord((_row(1), _row(1)))
        with pytest.raises(InvalidArgumentError):
            RunRecord((_row(3), _row(2)))

    def test_column_access(self):
        rec = RunRecord((_row(1, h_n=2.0), _row(2, h_n=1.5)))
        np.testing.assert_array_equal(rec.column("h_n"), [2.0, 1.5])
        assert len(rec) == 2


class TestInitialization:
    def test_density_target_uses_domain_box(self):
        from evi_mmd import eight_mixture

        target = eight_mixture()
        pts = initial_particles(target, 500, np.random.default_rng(0))
        assert pts.shape == (500, 2)
        assert np.all(pts >= -4.0) and np.all(pts <= 4.0)

    def test_empirical_target_uses_data_bounds(self):
        data = np.array([[0.0, 10.0], [1.0, 20.0], [0.5, 15.0]])
        target = EmpiricalTarget(data, minibatch_size=2)
        pts = initial_particles(target, 200, np.random.default_rng(0))
        assert np.all(pts[:, 0] >= 0.0) and np.all(pts[:, 0] <= 1.0)
        assert np.all(pts[:, 1] >= 10.0) and np.all(pts[:, 1] <= 20.0)

    def test_degenerate_coordinate_is_widened(self):
        lower, upper = data_bounding_box(np.array([[1.0, 3.0], [1.0, 4.0]]))
        assert lower[0] < upper[0]
