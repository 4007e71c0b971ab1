"""The benchmark's traced mode replaces names in the package's modules by
lookup (see ``bench/tracing.py``).  A tiny traced run keeps a rename of a
hooked name from silently breaking ``bench/run.py --trace 1``."""

import ast
import json
import os
import subprocess
import sys

import pytest

from evi_mmd.io import RUN_RECORD_HEADER

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
CHILD = os.path.join(ROOT, "bench", "child.py")

EVI_MMD = {"method": "evi_mmd", "target": "eight", "N": 20, "L": 20, "maxIter": 2}
EVI_MMD_WAVE = dict(EVI_MMD, target="wave")
SVGD = {"method": "svgd", "target": "eight", "N": 20, "maxIter": 30}
EXPLICIT = {
    "method": "explicit_mmd", "target": "eight", "N": 20, "L": 20, "maxIter": 4,
    "metrics_stride": 2,
}
ENERGY = {
    "method": "energy_distance", "target": "gaussian", "target_d": 2, "two_sample": True,
    "M": 100, "N": 20, "L": 20, "maxIter": 2,
}


@pytest.mark.parametrize(
    "config",
    [EVI_MMD, EVI_MMD_WAVE, SVGD, EXPLICIT, ENERGY],
    ids=["evi_mmd", "evi_mmd_wave", "svgd", "explicit_mmd", "energy_distance"],
)
def test_traced_child_run(tmp_path, config):
    raw = dict(config, n_reference=100, seed=3, out_dir=str(tmp_path / "run"))
    result_path = tmp_path / "r.json"
    proc = subprocess.run(
        [sys.executable, CHILD, ROOT, "trace", str(result_path), json.dumps(raw)],
        capture_output=True,
        text=True,
        timeout=300,
        # leave no bytecode cache beside the benchmark's sources
        env=dict(os.environ, PYTHONDONTWRITEBYTECODE="1"),
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(result_path.read_text())
    assert result["failures"] == []
    if raw["method"] in ("evi_mmd", "svgd"):
        # the child's loop marks wrap the run functions runner looks up per run
        marks = result["marks"]
        assert marks["config"] <= marks["loop_start"] <= marks["loop_end"] <= marks["done"]
    out = tmp_path / "run"
    final = f"particles_iter{raw['maxIter']:06d}.csv"
    for name in ("run_record.csv", final, "config_resolved.yaml"):
        assert (out / name).is_file(), name
    counts = result["trace"]["counts"]
    # Only the median heuristic of the automatic bandwidth (a: auto) computes
    # raw distances, and only the methods that read the schedule build it;
    # energy distance goes through gram and cross_gram.
    expected = 1 if raw["method"] in ("evi_mmd", "explicit_mmd") else 0
    assert counts.get("kernels.pairwise_distances.calls", 0) == expected
    if raw["method"] == "svgd":
        assert counts["baselines.svgd_step.calls"] == 30
        # the step's kernel sums come from the factored products, not a Gram
        assert counts.get("kernels.gram.calls", 0) == 0
    elif raw["method"] == "explicit_mmd":
        # one gradient per step, one objective value per recorded row
        assert counts["free_energy.value_and_grad.calls"] == 4
        assert counts["free_energy.value.calls"] == 2
    else:
        assert counts["free_energy.value_and_grad.calls"] > 0
        assert "free_energy.value.calls" not in counts
        # one objective evaluation at the start of each inner solve, one per trial
        assert counts["solver.evals"] == (
            counts["solver.trial_evals"] + counts["solver.lbfgs_minimize.calls"]
        )
    if raw["target"] == "wave":
        # the wave target's shifted evaluation falls back to the traced
        # density_and_grad on all N·L = 400 probes
        calls = counts["targets.density_and_grad.calls"]
        assert calls > 0
        assert counts["targets.density_and_grad.points"] == 400 * calls


def test_bench_run_record_header_matches_the_package():
    """``bench/run.py`` checks run records against its own copy of the header;
    read it with ``ast`` so no bytecode is written beside the benchmark."""
    with open(os.path.join(ROOT, "bench", "run.py"), encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    [bench_header] = [
        ast.literal_eval(node.value)
        for node in tree.body
        if isinstance(node, ast.Assign)
        and any(isinstance(t, ast.Name) and t.id == "RUN_RECORD_HEADER" for t in node.targets)
    ]
    assert tuple(bench_header) == RUN_RECORD_HEADER
