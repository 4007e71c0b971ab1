"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines for
passing criteria too.  The heavy eight-mixture run (criteria 1, 5, and the
adaptive half of 7) executes once per session and is shared.
"""

import dataclasses
import time

import numpy as np
import pytest
import yaml

import evi_mmd as em
from evi_mmd.metrics import RunEvaluator
from evi_mmd.model import data_bounding_box, uniform_box_init
from evi_mmd.targets import EIGHT_MIXTURE_MEANS

RUNTIME_LIMIT_SECONDS = 600.0


def report(criterion, ok, detail):
    print(f"[criterion {criterion}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {criterion}: {detail}"


@dataclasses.dataclass
class EightRun:
    init: np.ndarray
    final: em.ParticleSet
    record: em.RunRecord
    infos: list
    evaluator: RunEvaluator
    runtime: float
    n_particles: int = 200
    tau_star: float = 2.0


@pytest.fixture(scope="session")
def eight_run():
    """The shared 500-iteration run: eight-mixture, N=200, tau*=2, c=0.5,
    b=0.1, a=auto, L=500, evaluated against 2000 exact samples at h=0.5."""
    target = em.eight_mixture()
    init = em.initial_particles(target, 200, np.random.default_rng([0, 0]))
    schedule = em.auto_schedule(init, b=0.1, c=0.5)
    config = em.SolverConfig(tau_star=2.0, mc_samples=500, max_iter=500)
    reference = target.exact_sampler(np.random.default_rng([0, 3]), 2000)
    evaluator = RunEvaluator(reference, em.KernelConfig.gaussian(0.5))
    infos = []
    start = time.perf_counter()
    final, record = em.evi_mmd_run(
        target,
        schedule,
        config,
        np.random.default_rng([0, 1]),
        init,
        evaluator=evaluator,
        on_iteration=infos.append,
    )
    runtime = time.perf_counter() - start
    return EightRun(init, final, record, infos, evaluator, runtime)


class TestCriterion1:
    def test_descent_invariant_every_iteration(self, eight_run):
        slack = 1e-10
        violations = [
            info.n
            for info in eight_run.infos
            if info.final_objective > info.anchor_objective + slack
        ]
        report(
            1,
            len(eight_run.infos) == 500 and not violations,
            f"proximal objective non-increasing at all 500 iterations "
            f"(violations: {violations[:5]})",
        )

    def test_displacement_bound_every_iteration(self, eight_run):
        slack = 1e-10
        n, tau = eight_run.n_particles, eight_run.tau_star
        violations = [
            info.n
            for info in eight_run.infos
            if info.displacement
            > 2 * tau * n * abs(info.anchor_objective - info.free_energy) + slack
        ]
        report(
            1,
            not violations,
            f"displacement <= 2*tau*N*|dF| at all iterations "
            f"(violations: {violations[:5]})",
        )

    def test_runtime_target(self, eight_run):
        report(
            1,
            eight_run.runtime < RUNTIME_LIMIT_SECONDS,
            f"500-iteration run took {eight_run.runtime:.0f}s "
            f"(target < {RUNTIME_LIMIT_SECONDS:.0f}s)",
        )


class TestCriterion2:
    @staticmethod
    def _fd(f, x, step=1e-6):
        g = np.zeros_like(x)
        for i in range(x.shape[0]):
            for j in range(x.shape[1]):
                e = np.zeros_like(x)
                e[i, j] = step
                g[i, j] = (f(x + e) - f(x - e)) / (2 * step)
        return g

    def _max_rel_err(self, analytic, numeric):
        scale = max(np.max(np.abs(analytic)), 1e-8)
        return np.max(np.abs(analytic - numeric)) / scale

    def test_density_branch_gradient(self):
        target = em.isotropic_gaussian(2, 1.0)
        rng = np.random.default_rng(100)
        worst = 0.0
        for _ in range(20):
            pts = rng.normal(size=(3, 2))
            noise = em.McNoise.draw(rng, 64, 2)
            kernel = em.KernelConfig.gaussian(rng.uniform(0.5, 2.0))
            analytic = em.grad_free_energy(pts, target, kernel, noise=noise)
            numeric = self._fd(
                lambda x: em.free_energy(x, target, kernel, noise=noise), pts
            )
            worst = max(worst, self._max_rel_err(analytic, numeric))
        report(2, worst < 1e-5, f"density-branch gradient max rel err {worst:.2e}")

    def test_empirical_branch_gradient(self):
        rng = np.random.default_rng(101)
        worst = 0.0
        for trial in range(20):
            pts = rng.normal(size=(3, 2))
            batch = rng.normal(size=(5, 2))
            target = em.EmpiricalTarget(batch, minibatch_size=5)
            kernel = (
                em.KernelConfig.gaussian(rng.uniform(0.5, 2.0))
                if trial % 2
                else em.KernelConfig.negative_euclidean()
            )
            analytic = em.grad_free_energy(pts, target, kernel, batch=batch)
            numeric = self._fd(
                lambda x: em.free_energy(x, target, kernel, batch=batch), pts
            )
            worst = max(worst, self._max_rel_err(analytic, numeric))
        report(2, worst < 1e-5, f"empirical-branch gradient max rel err {worst:.2e}")

    def test_proximal_objective_gradient(self):
        rng = np.random.default_rng(102)
        worst = 0.0
        for _ in range(20):
            anchor = rng.normal(size=(4, 2))
            pts = rng.normal(size=(4, 2))
            tau = rng.uniform(0.5, 3.0)
            batch = rng.normal(size=(6, 2))
            kernel = em.KernelConfig.gaussian(1.0)
            target = em.EmpiricalTarget(batch, minibatch_size=6)

            def value_and_grad(z):
                return (
                    em.free_energy(z, target, kernel, batch=batch),
                    em.grad_free_energy(z, target, kernel, batch=batch),
                )

            def j(x):
                return em.proximal_objective(x, anchor, tau, value_and_grad)[0]

            _, analytic = em.proximal_objective(pts, anchor, tau, value_and_grad)
            np.testing.assert_array_equal(
                analytic,
                (pts - anchor) / (tau * 4)
                + em.grad_free_energy(pts, target, kernel, batch=batch),
            )
            worst = max(worst, self._max_rel_err(analytic, self._fd(j, pts)))
        report(2, worst < 1e-5, f"proximal gradient max rel err {worst:.2e}")


class TestCriterion3:
    def test_cross_term_estimator_consistency(self):
        target = em.isotropic_gaussian(2, 1.0)
        exact = 0.5  # (h^2/(h^2+sigma^2))^(d/2) at h=sigma=1, d=2
        rng = np.random.default_rng(7)
        errors = {}
        for size in (10**2, 10**4, 10**5, 10**6):
            noise = em.McNoise.draw(rng, size, 2)
            got = em.cross_term_density(np.zeros((1, 2)), target, 1.0, noise)
            errors[size] = abs(got - exact) / exact
        decreasing = errors[10**2] > errors[10**4] > errors[10**6]
        ok = errors[10**5] < 0.02 and decreasing
        report(
            3,
            ok,
            "closed-form convolution 0.5; rel errors "
            + ", ".join(f"L=1e{int(np.log10(k))}: {v:.2e}" for k, v in errors.items()),
        )


class TestCriterion4:
    def test_terminal_bandwidths_match_reported_values(self):
        h4 = em.bandwidth_at(em.BandwidthSchedule(4, 0.1, 0.5), 5000)
        h5 = em.bandwidth_at(em.BandwidthSchedule(5, 0.1, 0.5), 5000)
        ok = (
            abs(h4 - 0.157) < 5e-4
            and abs(h5 - 0.171) < 5e-4
            and round(h4, 2) == 0.16
            and round(h5, 2) == 0.17
        )
        report(4, ok, f"a=4 -> h_5000={h4:.4f} (~0.16), a=5 -> h_5000={h5:.4f} (~0.17)")


class TestCriterion5:
    def test_final_discrepancy_small(self, eight_run):
        final_mmd2 = eight_run.record.rows[-1].mmd2_eval
        report(5, final_mmd2 < 0.05, f"final MMD^2 (h=0.5, 2000 ref) = {final_mmd2:.5f} < 0.05")

    def test_mode_occupancy_balanced(self, eight_run):
        occ = em.mode_occupancy(eight_run.final.positions, EIGHT_MIXTURE_MEANS)
        ok = bool(np.all((occ >= 0.075) & (occ <= 0.175)))
        report(5, ok, f"mode occupancy in [0.075, 0.175]: {np.round(occ, 3).tolist()}")


class TestCriterion6:
    def test_metric_oracles(self):
        from test_metrics import energy_double_loop, mmd2_triple_loop

        rng = np.random.default_rng(600)
        kernel = em.KernelConfig.gaussian(1.0)
        worst = 0.0
        for _ in range(50):
            n, m = rng.integers(1, 11), rng.integers(1, 11)
            x = rng.normal(size=(n, 2))
            y = rng.normal(size=(m, 2))
            worst = max(
                worst,
                abs(em.mmd2_two_sample(x, y, kernel) - mmd2_triple_loop(x, y, kernel)),
                abs(em.energy_distance(x, y) - energy_double_loop(x, y)),
            )
        x = rng.normal(size=(8, 2))
        ident = max(
            abs(em.mmd2_two_sample(x, x.copy(), kernel)),
            abs(em.energy_distance(x, x.copy())),
        )
        ok = worst < 1e-12 and ident < 1e-12
        report(6, ok, f"50 brute-force instances max |diff| {worst:.2e}; identical sets {ident:.2e}")


class TestCriterion7:
    def test_adaptive_sampler_beats_langevin(self, eight_run):
        target = em.eight_mixture()
        evi_at_50 = eight_run.record.rows[49].mmd2_eval
        _, lmc_record = em.lmc_run(
            target,
            em.LmcSchedule(a_lmc=0.1, b_lmc=1.0, c_lmc=0.55),
            5000,
            np.random.default_rng([0, 2]),
            eight_run.init,
            evaluator=eight_run.evaluator,
            record_stride=100,
        )
        lmc_final = lmc_record.rows[-1].mmd2_eval
        report(
            7,
            evi_at_50 < lmc_final,
            f"adaptive MMD^2 after 50 outer iters {evi_at_50:.5f} < "
            f"Langevin after 5000 steps {lmc_final:.5f}",
        )

    def test_svgd_decreases_discrepancy(self, eight_run):
        target = em.eight_mixture()
        init_mmd2 = eight_run.evaluator.evaluate(eight_run.init)[0]
        svgd_final, _ = em.svgd_run(
            target,
            bandwidth=0.1,
            eta0=0.1,
            max_iter=5000,
            init_particles=eight_run.init,
        )
        final_mmd2 = eight_run.evaluator.evaluate(svgd_final.positions)[0]
        report(
            7,
            final_mmd2 < init_mmd2,
            f"SVGD MMD^2 {init_mmd2:.5f} -> {final_mmd2:.5f} over 5000 steps",
        )


class TestCriterion10:
    def test_byte_identical_reruns(self, tmp_path):
        from evi_mmd.cli import main

        raw = {
            "method": "evi_mmd",
            "target": "eight",
            "N": 20,
            "maxIter": 20,
            "L": 64,
            "c": 0.5,
            "seed": 123,
            "n_reference": 200,
            "snapshot_iters": [5, 10],
        }
        outputs = []
        for tag in ("a", "b"):
            out_dir = tmp_path / tag
            cfg_path = tmp_path / f"{tag}.yaml"
            cfg_path.write_text(yaml.safe_dump(dict(raw, out_dir=str(out_dir))))
            assert main(["run", str(cfg_path), "--strict-deterministic"]) == 0
            blobs = {
                p.name: p.read_bytes() for p in sorted(out_dir.glob("*.csv"))
            }
            outputs.append(blobs)
        same_names = sorted(outputs[0]) == sorted(outputs[1])
        same_bytes = same_names and all(
            outputs[0][k] == outputs[1][k] for k in outputs[0]
        )
        report(
            10,
            same_bytes and len(outputs[0]) >= 4,
            f"{len(outputs[0])} CSVs byte-identical across two strict runs",
        )


class TestCriterion11:
    def test_quadratic_bowl(self):
        cfg = em.SolverConfig(tau_star=1.0, lbfgs_grad_tol=1e-12, lbfgs_max_inner=10)
        center = np.array([1.0, -2.0, 0.5, 3.0])

        def quad(x):
            d = x - center
            return 0.5 * float(np.sum(d * d)), d

        res = em.lbfgs_minimize(quad, np.zeros(4), cfg)
        err = float(np.max(np.abs(res.x - center)))
        report(
            11,
            err < 1e-8 and res.iterations <= 10,
            f"quadratic bowl error {err:.2e} in {res.iterations} iterations",
        )

    def test_rosenbrock(self):
        cfg = em.SolverConfig(tau_star=1.0, lbfgs_grad_tol=1e-12, lbfgs_max_inner=200)

        def rosen(x):
            x = x.ravel()
            a, b = x[0], x[1]
            f = (1 - a) ** 2 + 100 * (b - a * a) ** 2
            g = np.array([-2 * (1 - a) - 400 * a * (b - a * a), 200 * (b - a * a)])
            return f, g

        res = em.lbfgs_minimize(rosen, np.array([-1.2, 1.0]), cfg)
        report(
            11,
            res.value < 1e-6 and res.iterations <= 200,
            f"Rosenbrock value {res.value:.2e} in {res.iterations} iterations",
        )
