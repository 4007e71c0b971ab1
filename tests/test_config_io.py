from dataclasses import fields

import numpy as np
import pytest

import evi_mmd.io
from evi_mmd import (
    ConfigError,
    DatasetError,
    IterationRow,
    ParticleSet,
    RunRecord,
    config_from_dict,
    load_config,
)
from evi_mmd.config import config_to_dict, dump_config
from evi_mmd.io import (
    RUN_RECORD_COLUMNS,
    RUN_RECORD_HEADER,
    load_dataset_csv,
    read_particles_csv,
    read_points_any,
    read_run_record_csv,
    write_dataset_csv,
    write_particles,
    write_run_record,
)

MINIMAL = {"method": "evi_mmd", "target": "eight", "N": 200, "maxIter": 5000, "c": 0.5}


class TestConfigParsing:
    def test_minimal_config_fills_recommended_defaults(self):
        cfg = config_from_dict(dict(MINIMAL))
        assert cfg.b == 0.1
        assert cfg.tau_star == 2.0  # dimension of the 2-d toy
        assert cfg.a == "auto"
        assert cfg.c == 0.5
        assert cfg.metrics_stride == 1

    def test_negative_n_names_the_field(self):
        raw = dict(MINIMAL, N=-5)
        with pytest.raises(ConfigError) as err:
            config_from_dict(raw)
        assert err.value.field == "N"

    @pytest.mark.parametrize("seed", [-1, 2**64])
    def test_seed_outside_uint64_names_the_field(self, seed):
        with pytest.raises(ConfigError) as err:
            config_from_dict(dict(MINIMAL, seed=seed))
        assert err.value.field == "seed"

    def test_unknown_key_suggests_close_match(self):
        raw = dict(MINIMAL, bandwith=0.2)
        with pytest.raises(ConfigError) as err:
            config_from_dict(raw)
        assert "bandwidth" in str(err.value)

    def test_field_name_max_iter_is_not_a_key(self):
        raw = {"method": "evi_mmd", "target": "eight", "N": 10, "max_iter": 5}
        with pytest.raises(ConfigError) as err:
            config_from_dict(raw)
        assert err.value.field == "max_iter"
        assert "'maxIter'" in str(err.value)

    def test_missing_required_key(self):
        raw = {"method": "evi_mmd", "target": "eight", "N": 10}
        with pytest.raises(ConfigError) as err:
            config_from_dict(raw)
        assert err.value.field == "maxIter"

    def test_svgd_and_lmc_default_stride_100(self):
        raw = dict(MINIMAL, method="svgd")
        assert config_from_dict(raw).metrics_stride == 100
        raw = dict(MINIMAL, method="lmc")
        assert config_from_dict(raw).metrics_stride == 100

    def test_gaussian_target_requires_dimension(self):
        raw = dict(MINIMAL, target="gaussian")
        with pytest.raises(ConfigError) as err:
            config_from_dict(raw)
        assert err.value.field == "target_d"
        raw["target_d"] = 6
        assert config_from_dict(raw).tau_star == 6.0

    def test_energy_distance_requires_two_sample(self):
        raw = dict(MINIMAL, method="energy_distance")
        with pytest.raises(ConfigError):
            config_from_dict(raw)
        raw["two_sample"] = True
        assert config_from_dict(raw).empirical

    def test_svgd_rejects_two_sample(self):
        raw = dict(MINIMAL, method="svgd", two_sample=True)
        with pytest.raises(ConfigError):
            config_from_dict(raw)

    def test_csv_target_forces_two_sample_and_defers_tau(self):
        raw = dict(MINIMAL, target="csv", target_csv="data.csv")
        cfg = config_from_dict(raw)
        assert cfg.empirical and cfg.two_sample
        assert cfg.tau_star is None

    def test_minibatch_exceeding_generated_size_rejected(self):
        raw = dict(MINIMAL, two_sample=True, M=100, L=500)
        with pytest.raises(ConfigError) as err:
            config_from_dict(raw)
        assert err.value.field == "L"

    def test_schedule_whose_last_bandwidth_square_underflows_rejected(self):
        # h(maxIter) = 1e-200 / 5000**0.5 + 1e-200; its square is 0.0
        raw = dict(MINIMAL, a=1e-200, b=1e-200)
        with pytest.raises(ConfigError) as err:
            config_from_dict(raw)
        assert err.value.field == "a"
        assert "iteration 5000" in str(err.value)

    def test_schedule_with_a_normal_last_square_accepted(self):
        cfg = config_from_dict(dict(MINIMAL, a=1e-150, b=1e-150))
        assert (cfg.a, cfg.b) == (1e-150, 1e-150)

    def test_bool_is_not_an_int(self):
        raw = dict(MINIMAL, N=True)
        with pytest.raises(ConfigError):
            config_from_dict(raw)

    def test_load_config_file_and_echo_roundtrip(self, tmp_path):
        import yaml

        path = tmp_path / "cfg.yaml"
        path.write_text(yaml.safe_dump(MINIMAL))
        cfg = load_config(str(path))
        echo = tmp_path / "echo.yaml"
        dump_config(cfg, str(echo))
        cfg2 = load_config(str(echo))
        assert cfg2 == cfg

    def test_parse_error_reports_location(self, tmp_path):
        path = tmp_path / "bad.yaml"
        path.write_text("method: [unclosed\n")
        with pytest.raises(ConfigError) as err:
            load_config(str(path))
        assert "line" in str(err.value)

    def test_config_to_dict_uses_file_keys(self):
        d = config_to_dict(config_from_dict(dict(MINIMAL)))
        assert "maxIter" in d and "max_iter" not in d


class TestDatasetCsv:
    def test_small_round_trip(self, tmp_path):
        path = tmp_path / "data.csv"
        data = np.array([[0.5, -1.0], [1.25, 3.5]])
        write_dataset_csv(data, str(path))
        target = load_dataset_csv(str(path))
        assert target.n_rows == 2 and target.dim == 2
        np.testing.assert_array_equal(target.data, data)

    def test_17_digit_round_trip_is_exact(self, tmp_path):
        path = tmp_path / "data.csv"
        rng = np.random.default_rng(0)
        data = rng.standard_normal((50, 3)) * 10.0 ** rng.integers(-8, 8, size=(50, 3))
        write_dataset_csv(data, str(path))
        np.testing.assert_array_equal(load_dataset_csv(str(path)).data, data)

    def test_text_token_reports_row(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("dim_0,dim_1\n1.0,2.0\n1.0,abc\n")
        with pytest.raises(DatasetError) as err:
            load_dataset_csv(str(path))
        assert err.value.row == 3

    def test_ragged_row_rejected(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("dim_0,dim_1\n1.0,2.0\n3.0\n")
        with pytest.raises(DatasetError) as err:
            load_dataset_csv(str(path))
        assert err.value.row == 3

    def test_non_finite_rejected(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("dim_0\ninf\n")
        with pytest.raises(DatasetError):
            load_dataset_csv(str(path))

    def test_wrong_header_rejected(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("x,y\n1.0,2.0\n")
        with pytest.raises(DatasetError) as err:
            load_dataset_csv(str(path))
        assert err.value.row == 1

    def test_missing_file(self):
        with pytest.raises(DatasetError):
            load_dataset_csv("/nonexistent/nope.csv")


class TestParticlesCsv:
    def test_single_particle_exact_row(self, tmp_path):
        path = tmp_path / "p.csv"
        write_particles(ParticleSet(np.array([[0.5, -1.0]]), iteration=3), str(path))
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "iter,particle_id,dim_0,dim_1"
        assert lines[1] == "3,0,0.5,-1"

    def test_exact_text(self, tmp_path):
        path = tmp_path / "p.csv"
        positions = np.array([[-0.0, 0.1], [1e20, -2.0 / 3.0]])
        write_particles(ParticleSet(positions, iteration=12), str(path))
        assert path.read_bytes() == (
            b"iter,particle_id,dim_0,dim_1\r\n"
            b"12,0,-0,0.10000000000000001\r\n"
            b"12,1,1e+20,-0.66666666666666663\r\n"
        )

    def test_round_trip(self, tmp_path):
        path = tmp_path / "p.csv"
        ps = ParticleSet(np.random.default_rng(1).normal(size=(17, 4)), iteration=99)
        write_particles(ps, str(path))
        back = read_particles_csv(str(path))
        assert back.iteration == 99
        np.testing.assert_array_equal(back.positions, ps.positions)

    @pytest.mark.parametrize("n,d,iteration", [(1, 1, 0), (3, 2, 7), (40, 5, 123456)])
    def test_written_snapshot_reads_back(self, tmp_path, n, d, iteration):
        path = tmp_path / "p.csv"
        positions = np.random.default_rng(n).normal(size=(n, d))
        write_particles(ParticleSet(positions, iteration=iteration), str(path))
        back = read_particles_csv(str(path))
        assert back.iteration == iteration
        np.testing.assert_array_equal(back.positions, positions)

    def test_rows_from_two_iterations_rejected(self, tmp_path):
        path = tmp_path / "p.csv"
        path.write_text("iter,particle_id,dim_0\n4,0,1.0\n4,1,2.0\n\n5,2,3.0\n")
        with pytest.raises(DatasetError) as err:
            read_particles_csv(str(path))
        assert err.value.row == 5
        assert "iter 5" in str(err.value)

    @pytest.mark.parametrize(
        "ids,row",
        [((1, 0, 2), 2), ((0, 2, 1), 3), ((0, 1, 3), 4), ((0, 0, 1), 3)],
        ids=["swapped-first", "swapped-later", "gap", "repeated"],
    )
    def test_particle_ids_must_run_from_zero_in_order(self, tmp_path, ids, row):
        path = tmp_path / "p.csv"
        rows = "".join(f"2,{pid},{pid}.5\n" for pid in ids)
        path.write_text("iter,particle_id,dim_0\n" + rows)
        with pytest.raises(DatasetError) as err:
            read_particles_csv(str(path))
        assert err.value.row == row

    def test_read_points_any_handles_both_schemas(self, tmp_path):
        data = np.array([[1.0, 2.0], [3.0, 4.0]])
        d_path = tmp_path / "d.csv"
        p_path = tmp_path / "p.csv"
        write_dataset_csv(data, str(d_path))
        write_particles(ParticleSet(data, iteration=1), str(p_path))
        np.testing.assert_array_equal(read_points_any(str(d_path)), data)
        np.testing.assert_array_equal(read_points_any(str(p_path)), data)

    def test_read_points_any_opens_the_file_once(self, tmp_path, monkeypatch):
        path = tmp_path / "p.csv"
        write_particles(ParticleSet(np.array([[1.0, 2.0]]), iteration=4), str(path))
        opened = []

        def counting_open(*args, **kwargs):
            opened.append(args[0])
            return open(*args, **kwargs)

        monkeypatch.setattr(evi_mmd.io, "open", counting_open, raising=False)
        np.testing.assert_array_equal(read_points_any(str(path)), [[1.0, 2.0]])
        assert opened == [str(path)]


class TestRunRecordCsv:
    def test_header_exact(self, tmp_path):
        path = tmp_path / "r.csv"
        write_run_record(RunRecord(()), str(path))
        assert (
            path.read_text().strip()
            == "iter,h_n,free_energy,mmd2_eval,energy_dist_eval,inner_iters,displacement"
        )

    def test_round_trip_with_nan_columns(self, tmp_path):
        rows = (
            IterationRow(1, 2.0, -0.5, float("nan"), 0.25, 7, 0.125),
            IterationRow(2, float("nan"), -0.25, 0.001, 0.125, 3, 0.0625),
        )
        path = tmp_path / "r.csv"
        write_run_record(RunRecord(rows), str(path))
        back = read_run_record_csv(str(path))
        assert len(back) == 2
        assert back.rows[0].inner_iters == 7
        assert np.isnan(back.rows[0].mmd2_eval)
        assert np.isnan(back.rows[1].h_n)
        assert back.rows[1].displacement == 0.0625

    def test_exact_text(self, tmp_path):
        rows = (
            IterationRow(1, 0.1, -0.0, float("nan"), 1.0 / 3.0, 7, 1e-300),
            IterationRow(5000, 2.0 / 3.0, -123456.789, 0.0, 5e-324, 0, float("nan")),
        )
        path = tmp_path / "r.csv"
        write_run_record(RunRecord(rows), str(path))
        assert path.read_bytes() == (
            b"iter,h_n,free_energy,mmd2_eval,energy_dist_eval,inner_iters,displacement\r\n"
            b"1,0.10000000000000001,-0,nan,0.33333333333333331,7,1e-300\r\n"
            b"5000,0.66666666666666663,-123456.789,0,4.9406564584124654e-324,0,nan\r\n"
        )
        back = read_run_record_csv(str(path))
        assert back.rows[0].free_energy == 0.0 and np.signbit(back.rows[0].free_energy)
        assert back.rows[1].energy_dist_eval == 5e-324

    def test_columns_follow_iteration_row_fields(self):
        # the annotations are strings under postponed evaluation
        assert [f.type for f in fields(IterationRow)] == [
            kind.__name__ for _, kind in RUN_RECORD_COLUMNS
        ]


# A valid header and row per reader; each malformed case sits on line 4,
# after a blank line that must not shift the reported line numbers.
VALID = {
    load_dataset_csv: ("dim_0,dim_1", "1.0,2.0"),
    read_particles_csv: ("iter,particle_id,dim_0,dim_1", "3,0,1.0,2.0"),
    read_run_record_csv: (",".join(RUN_RECORD_HEADER), "1,0.5,nan,0.1,0.2,3,0.25"),
}


def _table(reader, bad_line):
    header, row = VALID[reader]
    return f"{header}\n{row}\n\n{bad_line}\n"


MALFORMED = [
    case
    for reader in VALID
    for case in [
        (reader, "missing", None, None),
        (reader, "empty", "", None),
        (reader, "not-utf8", b"\xff\xfe\x00d\x00i\x00m\x00", None),
        (reader, "wrong-header", "x,y\n1.0,2.0\n", 1),
        (reader, "blank-header", "\n1.0,2.0\n", 1),
        (reader, "ragged", _table(reader, "1"), 4),
    ]
] + [
    (load_dataset_csv, "token", _table(load_dataset_csv, "1.0,abc"), 4),
    (read_particles_csv, "token", _table(read_particles_csv, "abc,1,1.0,2.0"), 4),
    (read_run_record_csv, "token", _table(read_run_record_csv, "2,x,nan,0.1,0.2,3,0.25"), 4),
    (read_run_record_csv, "int-column", _table(read_run_record_csv, "2,0.5,0,0,0,3.5,0"), 4),
    (load_dataset_csv, "non-finite", _table(load_dataset_csv, "inf,1.0"), 4),
    (read_particles_csv, "non-finite", _table(read_particles_csv, "3,1,1.0,nan"), 4),
    (read_particles_csv, "no-coordinates", "iter,particle_id\n3,0\n", 1),
    (read_particles_csv, "negative-iter", "iter,particle_id,dim_0\n-1,0,1.0\n", None),
    (read_run_record_csv, "iter-order", _table(read_run_record_csv, "1,1,1,1,1,1,1"), None),
]


@pytest.mark.parametrize(
    "reader,content,row",
    [(reader, content, row) for reader, _, content, row in MALFORMED],
    ids=[f"{reader.__name__}-{case}" for reader, case, _, _ in MALFORMED],
)
def test_malformed_file_is_dataset_error(tmp_path, reader, content, row):
    path = tmp_path / "bad.csv"
    if isinstance(content, bytes):
        path.write_bytes(content)
    elif content is not None:
        path.write_text(content)
    with pytest.raises(DatasetError) as err:
        reader(str(path))
    assert err.value.row == row
