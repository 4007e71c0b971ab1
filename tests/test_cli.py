import os

import numpy as np
import pytest
import yaml

import evi_mmd.cli
from evi_mmd import config_from_dict, run_experiment
from evi_mmd.cli import EXIT_CONFIG, EXIT_DATA, EXIT_NUMERICAL, main
from evi_mmd.errors import NumericalFailureError
from evi_mmd.io import load_dataset_csv, read_particles_csv, read_run_record_csv
from evi_mmd.metrics import energy_distance, mmd2_two_sample
from evi_mmd.model import IterationRow, KernelConfig, RunRecord


def write_cfg(tmp_path, name="cfg.yaml", **overrides):
    raw = {
        "method": "evi_mmd",
        "target": "eight",
        "N": 12,
        "maxIter": 6,
        "L": 32,
        "c": 0.5,
        "seed": 11,
        "n_reference": 100,
        "snapshot_iters": [2, 4],
        "out_dir": str(tmp_path / "out"),
    }
    raw.update(overrides)
    path = tmp_path / name
    path.write_text(yaml.safe_dump(raw))
    return path


class TestRunCommand:
    def test_run_emits_all_artifacts(self, tmp_path):
        cfg_path = write_cfg(tmp_path)
        assert main(["run", str(cfg_path)]) == 0
        out = tmp_path / "out"
        record = read_run_record_csv(str(out / "run_record.csv"))
        assert [r.n for r in record.rows] == list(range(1, 7))
        assert np.all(np.isfinite(record.column("mmd2_eval")))
        # snapshots at 2, 4 and the final iteration 6
        for n in (2, 4, 6):
            snap = read_particles_csv(str(out / f"particles_iter{n:06d}.csv"))
            assert snap.iteration == n
            assert snap.positions.shape == (12, 2)
        assert (out / "config_resolved.yaml").exists()

    def test_echoed_config_reruns_identically(self, tmp_path):
        cfg_path = write_cfg(tmp_path)
        assert main(["run", str(cfg_path)]) == 0
        echo = tmp_path / "out" / "config_resolved.yaml"
        second = tmp_path / "out2"
        assert main(["run", str(echo), "--out-dir", str(second)]) == 0
        a = (tmp_path / "out" / "run_record.csv").read_bytes()
        b = (second / "run_record.csv").read_bytes()
        assert a == b

    def test_seed_env_var_overrides_config(self, tmp_path, monkeypatch):
        cfg_path = write_cfg(tmp_path)
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        monkeypatch.setenv("EVI_MMD_SEED", "777")
        assert main(["run", str(cfg_path), "--out-dir", str(out_a)]) == 0
        monkeypatch.delenv("EVI_MMD_SEED")
        assert main(["run", str(cfg_path), "--out-dir", str(out_b)]) == 0
        assert (out_a / "run_record.csv").read_bytes() != (out_b / "run_record.csv").read_bytes()
        echoed = yaml.safe_load((out_a / "config_resolved.yaml").read_text())
        assert echoed["seed"] == 777

    def test_bad_env_seed_is_config_error(self, tmp_path, monkeypatch):
        cfg_path = write_cfg(tmp_path)
        monkeypatch.setenv("EVI_MMD_SEED", "not-a-number")
        assert main(["run", str(cfg_path)]) == EXIT_CONFIG

    @pytest.mark.parametrize("seed", ["-1", str(2**64)])
    def test_out_of_range_env_seed_is_config_error(self, tmp_path, monkeypatch, capsys, seed):
        cfg_path = write_cfg(tmp_path)
        monkeypatch.setenv("EVI_MMD_SEED", seed)
        assert main(["run", str(cfg_path)]) == EXIT_CONFIG
        assert "EVI_MMD_SEED: must fit in an unsigned 64-bit integer" in capsys.readouterr().err

    def test_underflowing_svgd_bandwidth_is_config_error(self, tmp_path):
        cfg_path = write_cfg(tmp_path, method="svgd", bandwidth=1e-200, maxIter=2)
        assert main(["run", str(cfg_path)]) == EXIT_CONFIG

    def test_underflowing_schedule_fails_before_any_output(self, tmp_path):
        cfg_path = write_cfg(tmp_path, a=1e-200, b=1e-200)
        assert main(["run", str(cfg_path)]) == EXIT_CONFIG
        assert not (tmp_path / "out" / "run_record.csv").exists()

    def test_auto_schedule_is_checked_before_the_reference_is_drawn(
        self, tmp_path, monkeypatch
    ):
        # An auto scale is known only once the particles are drawn; its
        # schedule must still fail before the reference sample and evaluator.
        import evi_mmd.runner as runner
        from evi_mmd.model import BandwidthSchedule

        monkeypatch.setattr(
            runner, "auto_schedule", lambda init, b, c: BandwidthSchedule(1e-200, b, c)
        )
        drawn = []
        monkeypatch.setattr(runner, "reference_samples", lambda *args: drawn.append(args))
        cfg_path = write_cfg(tmp_path, b=1e-200)
        assert main(["run", str(cfg_path)]) == EXIT_CONFIG
        assert drawn == []
        assert not (tmp_path / "out" / "run_record.csv").exists()

    def test_invalid_config_exit_code(self, tmp_path):
        cfg_path = write_cfg(tmp_path, N=-1)
        assert main(["run", str(cfg_path)]) == EXIT_CONFIG

    def test_missing_dataset_exit_code(self, tmp_path):
        cfg_path = write_cfg(
            tmp_path, target="csv", target_csv=str(tmp_path / "missing.csv"), L=4
        )
        assert main(["run", str(cfg_path)]) == EXIT_DATA

    def test_strict_deterministic_flag_accepted(self, tmp_path):
        cfg_path = write_cfg(tmp_path)
        out = tmp_path / "strict"
        code = main(["run", str(cfg_path), "--strict-deterministic", "--out-dir", str(out)])
        assert code == 0
        echoed = yaml.safe_load((out / "config_resolved.yaml").read_text())
        assert echoed["strict_deterministic"] is True

    def test_metrics_stride_thins_implicit_rows_not_snapshots(self, tmp_path):
        out = tmp_path / "strided"
        run_experiment(
            config_from_dict(
                {
                    "method": "evi_mmd",
                    "target": "eight",
                    "N": 12,
                    "L": 32,
                    "maxIter": 6,
                    "metrics_stride": 3,
                    "snapshot_iters": [2, 4],
                    "n_reference": 100,
                    "seed": 11,
                    "out_dir": str(out),
                }
            )
        )
        record = read_run_record_csv(str(out / "run_record.csv"))
        assert [r.n for r in record.rows] == [3, 6]
        for n in (2, 4, 6):
            assert (out / f"particles_iter{n:06d}.csv").exists()

    def test_csv_target_end_to_end(self, tmp_path):
        rng = np.random.default_rng(0)
        data_path = tmp_path / "train.csv"
        from evi_mmd.io import write_dataset_csv

        write_dataset_csv(rng.normal(size=(60, 2)), str(data_path))
        cfg_path = write_cfg(
            tmp_path,
            method="energy_distance",
            target="csv",
            target_csv=str(data_path),
            L=20,
            n_reference=40,
        )
        assert main(["run", str(cfg_path)]) == 0
        record = read_run_record_csv(str(tmp_path / "out" / "run_record.csv"))
        assert len(record) == 6


class TestNumericalFailure:
    def test_svgd_underflow_writes_partial_record(self, tmp_path):
        cfg_path = write_cfg(
            tmp_path,
            method="svgd",
            target="gaussian",
            target_d=1,
            target_sigma=0.05,
            N=5,
            eta0=5.0,
            bandwidth=0.5,
            metrics_stride=1,
            seed=3,
        )
        assert main(["run", str(cfg_path)]) == EXIT_NUMERICAL
        assert (tmp_path / "out" / "run_record.csv").exists()

    @staticmethod
    def _fail_after_two_rows(monkeypatch):
        rows = tuple(
            IterationRow(
                n=n,
                h_n=1.0 / n,
                free_energy=-0.5,
                mmd2_eval=0.1,
                energy_dist_eval=0.2,
                inner_iters=3,
                displacement=0.01,
            )
            for n in (1, 2)
        )

        def failing_run(cfg):
            raise NumericalFailureError(
                "inner solve failed at outer iteration 3", partial_record=RunRecord(rows)
            )

        monkeypatch.setattr(evi_mmd.cli, "run_experiment", failing_run)
        return RunRecord(rows)

    def test_partial_record_written(self, tmp_path, monkeypatch, capsys):
        expected = self._fail_after_two_rows(monkeypatch)
        cfg_path = write_cfg(tmp_path)
        assert main(["run", str(cfg_path)]) == EXIT_NUMERICAL
        path = tmp_path / "out" / "run_record.csv"
        assert read_run_record_csv(str(path)) == expected
        err = capsys.readouterr().err
        assert f"partial run record written to {path}" in err

    def test_partial_record_write_failure_is_reported(self, tmp_path, monkeypatch, capsys):
        self._fail_after_two_rows(monkeypatch)
        blocker = tmp_path / "not_a_dir"
        blocker.write_text("occupied")
        cfg_path = write_cfg(tmp_path, out_dir=str(blocker))
        assert main(["run", str(cfg_path)]) == EXIT_NUMERICAL
        err = capsys.readouterr().err
        assert "could not write partial run record: " in err
        assert "partial run record written" not in err
        assert blocker.read_text() == "occupied"


class TestSampleTargetCommand:
    def test_emits_loadable_dataset(self, tmp_path):
        out = tmp_path / "ref.csv"
        code = main(
            ["sample-target", "eight", "--n", "200", "--seed", "5", "--out", str(out)]
        )
        assert code == 0
        target = load_dataset_csv(str(out))
        assert target.n_rows == 200 and target.dim == 2

    def test_same_seed_same_bytes(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        main(["sample-target", "wave", "--n", "50", "--seed", "3", "--out", str(a)])
        main(["sample-target", "wave", "--n", "50", "--seed", "3", "--out", str(b)])
        assert a.read_bytes() == b.read_bytes()

    def test_gaussian_requires_dimension(self, tmp_path):
        out = tmp_path / "g.csv"
        code = main(["sample-target", "gaussian", "--n", "10", "--out", str(out)])
        assert code == EXIT_CONFIG
        code = main(
            ["sample-target", "gaussian", "--n", "10", "--d", "5", "--out", str(out)]
        )
        assert code == 0
        assert load_dataset_csv(str(out)).dim == 5


class TestMetricsCommand:
    def test_prints_both_discrepancies(self, tmp_path, capsys):
        rng = np.random.default_rng(1)
        from evi_mmd.io import write_dataset_csv

        x = rng.normal(size=(15, 2))
        y = rng.normal(size=(20, 2)) + 0.5
        xp, yp = tmp_path / "x.csv", tmp_path / "y.csv"
        write_dataset_csv(x, str(xp))
        write_dataset_csv(y, str(yp))
        code = main(["metrics", "--x", str(xp), "--y", str(yp), "--kernel", "gaussian", "--h", "0.5"])
        assert code == 0
        out = capsys.readouterr().out
        lines = dict(line.split("=") for line in out.strip().splitlines())
        assert float(lines["mmd2"]) == pytest.approx(
            mmd2_two_sample(x, y, KernelConfig.gaussian(0.5)), rel=1e-12
        )
        assert float(lines["energy_distance"]) == pytest.approx(
            energy_distance(x, y), rel=1e-12
        )

    def test_accepts_particle_snapshots(self, tmp_path, capsys):
        from evi_mmd.io import write_dataset_csv, write_particles
        from evi_mmd.model import ParticleSet

        rng = np.random.default_rng(2)
        x = rng.normal(size=(8, 2))
        xp, yp = tmp_path / "x.csv", tmp_path / "y.csv"
        write_particles(ParticleSet(x, iteration=9), str(xp))
        write_dataset_csv(x, str(yp))
        assert main(["metrics", "--x", str(xp), "--y", str(yp)]) == 0
        out = capsys.readouterr().out
        lines = dict(line.split("=") for line in out.strip().splitlines())
        assert float(lines["mmd2"]) == pytest.approx(0.0, abs=1e-12)

    def test_spliced_snapshot_is_data_error(self, tmp_path, capsys):
        xp = tmp_path / "snap.csv"
        xp.write_text("iter,particle_id,dim_0,dim_1\n9,0,0.5,-1.0\n10,1,0.5,-1.0\n")
        yp = tmp_path / "ref.csv"
        yp.write_text("dim_0,dim_1\n0.5,-1.0\n")
        assert main(["metrics", "--x", str(xp), "--y", str(yp)]) == EXIT_DATA
        err = capsys.readouterr().err
        assert err.startswith("data error: row 3: iter 10")
        assert "Traceback" not in err

    def test_unparsable_snapshot_is_data_error(self, tmp_path, capsys):
        xp = tmp_path / "snap.csv"
        xp.write_text("iter,particle_id,dim_0,dim_1\nabc,0,0.5,-1.0\n")
        yp = tmp_path / "ref.csv"
        yp.write_text("dim_0,dim_1\n0.5,-1.0\n")
        assert main(["metrics", "--x", str(xp), "--y", str(yp)]) == EXIT_DATA
        err = capsys.readouterr().err
        assert err.startswith("data error: row 2: column iter")
        assert "Traceback" not in err
