#!/usr/bin/env python3
"""The evi-mmd benchmark: end-to-end and per-layer figures of the sampler.

Every measured run is a fresh interpreter running
``evi_mmd.run_experiment(config_from_dict(...))`` on the sources in ``src/``,
the path ``evi-mmd run`` takes.  See ``bench/README.md`` for the workloads
and every metric.

Usage (from the repository root):

    python3 bench/run.py --workload eight-density --seed 1 --seconds 50 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 50

``--trace 0`` measures the end-to-end metrics with tracing off; ``--trace 1``
runs the traced child runs that give the per-layer metrics and the tracing
overhead; ``--workload all`` runs every workload both ways.  Human-readable
lines come first; the last line of standard output is one JSON object with
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.  Outputs go
to ``.bench_out/`` under the repository root.
"""

import argparse
import csv
import glob
import hashlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter, defaultdict

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
OUT = os.path.join(ROOT, ".bench_out")
CHILD = os.path.join(BENCH_DIR, "child.py")
CHILD_TIMEOUT_S = 90
# A benchmark run starts no child after this many seconds, so that it ends,
# with its result printed, well within 180 s even when the program hangs.
HARD_LIMIT_S = 150

# One process at a time, with every BLAS/OpenMP pool pinned to one thread, so
# that a run neither competes with itself nor depends on the core count.
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
THREADS = "1"

# Each run cycles through `cases` configs whose seeds derive from --seed, so
# that the figures average over inputs as well as over repeats.
WORKLOADS = {
    # Density regime at the acceptance-criterion-1 settings, cut to 3 outer
    # iterations: the mixture sweep over N*L = 100k probes is most of the
    # loop, so targets, free_energy and solver changes show here.
    "eight-density": {
        "cases": 5,
        "raw": {
            "method": "evi_mmd",
            "target": "eight",
            "N": 200,
            "L": 500,
            "tau_star": 2.0,
            "a": "auto",
            "b": 0.1,
            "c": 0.5,
            "n_reference": 2000,
            "eval_bandwidth": 0.5,
            "maxIter": 3,
        },
    },
    # Thousands of cheap SVGD steps: N x N Gram and 200-point target batches,
    # never the solver or free_energy.  The no-change check for those layers,
    # and it shows per-call overhead a large-batch optimisation could add.
    "svgd-eight": {
        "cases": 3,
        "raw": {"method": "svgd", "target": "eight", "N": 200, "maxIter": 2000},
    },
}

RUN_RECORD_HEADER = ["iter", "h_n", "free_energy", "mmd2_eval", "energy_dist_eval", "inner_iters", "displacement"]
# Columns a method leaves NaN by design; every other value must be finite.
NAN_COLUMNS = {"svgd": {"free_energy"}}

TARGET_SPANS = ("targets.density", "targets.density_and_grad", "targets.grad_density")
KERNEL_SPANS = ("kernels.gram", "kernels.cross_gram", "kernels.pairwise_distances")

# Exact work counts: they repeat exactly across runs of one commit and seed.
WORK_COUNTS = (
    [f"{name}.{what}" for name in TARGET_SPANS for what in ("calls", "points")]
    + ["free_energy.value.calls", "free_energy.value_and_grad.calls", "solver.lbfgs_minimize.calls"]
    + ["solver.inner_iters", "solver.max_inner_hits", "solver.trial_evals", "solver.evals"]
    + [f"{name}.{what}" for name in KERNEL_SPANS for what in ("calls", "pairs")]
    + ["kernels.bytes_computed", "metrics.evaluate.calls", "baselines.svgd_step.calls"]
    + ["io.files_written", "io.bytes_written"]
)


def case_seed(workload, seed, case):
    digest = hashlib.sha256(f"{workload}/{seed}/{case}".encode()).digest()
    return int.from_bytes(digest[:4], "big")


def child_env():
    env = dict(os.environ)
    env.pop("EVI_MMD_SEED", None)
    env.pop("PYTHONPATH", None)
    env.update({name: THREADS for name in THREAD_VARS})
    return env


def spawn(mode, raw=None, timeout=CHILD_TIMEOUT_S):
    """Run one child to completion; returns its result dict, or None and
    the error text."""
    result_path = os.path.join(OUT, "child_result.json")
    if os.path.exists(result_path):
        os.remove(result_path)
    cmd = [sys.executable, CHILD, ROOT, mode, result_path]
    if raw is not None:
        shutil.rmtree(raw["out_dir"], ignore_errors=True)
        cmd.append(json.dumps(raw))
    spawned = time.monotonic()
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, env=child_env(), capture_output=True, text=True, timeout=timeout
        )
    except subprocess.TimeoutExpired:
        return None, f"{mode} child timed out after {timeout:.0f} s"
    if proc.returncode != 0:
        return None, f"{mode} child exited {proc.returncode}: {proc.stderr.strip()[-2000:]}"
    with open(result_path, encoding="utf-8") as fh:
        result = json.load(fh)
    result["spawned"] = spawned
    return result, None


def sha256_file(path):
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def expected_rows(raw):
    if raw["method"] == "svgd":
        stride = raw.get("metrics_stride", 100)
        return sum(1 for n in range(1, raw["maxIter"] + 1) if n % stride == 0 or n == raw["maxIter"])
    return raw["maxIter"]


def _number(token):
    try:
        return float(token)
    except ValueError:
        return None


def check_outputs(raw):
    """Check a finished run's artifacts; returns (problems, outputs)."""
    out_dir = raw["out_dir"]
    record_path = os.path.join(out_dir, "run_record.csv")
    snapshot_path = os.path.join(out_dir, f"particles_iter{raw['maxIter']:06d}.csv")
    try:
        with open(record_path, newline="") as fh:
            rows = list(csv.reader(fh))
        with open(snapshot_path, newline="") as fh:
            snapshot = list(csv.reader(fh))
    except OSError as exc:
        return [f"missing artifact: {exc}"], {}
    if not rows or rows[0] != RUN_RECORD_HEADER:
        return ["run_record.csv lacks its header"], {}
    problems = []
    if len(rows) - 1 != expected_rows(raw):
        problems.append(f"run_record.csv has {len(rows) - 1} rows, expected {expected_rows(raw)}")
    nan_columns = NAN_COLUMNS.get(raw["method"], set())
    for line, row in enumerate(rows[1:], start=2):
        values = [_number(token) for token in row]
        if len(values) != len(RUN_RECORD_HEADER) or None in values:
            problems.append(f"run_record.csv line {line} is malformed")
            continue
        for name, value in zip(RUN_RECORD_HEADER, values):
            if math.isfinite(value) == (name in nan_columns):
                problems.append(f"run_record.csv line {line}: {name}={value}")
    coordinates = [_number(token) for row in snapshot[1:] for token in row]
    if len(snapshot) - 1 != raw["N"] or not all(v is not None and math.isfinite(v) for v in coordinates):
        problems.append("final snapshot has the wrong row count or non-finite values")
    last = dict(zip(RUN_RECORD_HEADER, rows[-1]))
    outputs = {
        "run_record_sha256": sha256_file(record_path),
        "snapshot_sha256": sha256_file(snapshot_path),
        "final_mmd2": _number(last["mmd2_eval"]),
        "final_energy_dist": _number(last["energy_dist_eval"]),
    }
    return problems[:5], outputs


def code_hash():
    h = hashlib.sha256()
    for path in sorted(glob.glob(os.path.join(ROOT, "src", "evi_mmd", "**", "*.py"), recursive=True)):
        h.update(os.path.relpath(path, ROOT).encode())
        with open(path, "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()


class Ledger:
    """Digests and work counts of every run of this checkout, keyed by the
    source hash, workload and case seed: runs of one commit must agree."""

    def __init__(self, path):
        self.path = path
        try:
            with open(path, encoding="utf-8") as fh:
                self.entries = json.load(fh)
        except (OSError, ValueError):
            self.entries = {}

    def agree(self, key, facts):
        entry = self.entries.setdefault(key, {})
        clashes = [name for name, value in facts.items() if name in entry and entry[name] != value]
        for name, value in facts.items():
            entry.setdefault(name, value)
        return clashes

    def save(self):
        tmp = self.path + ".tmp"
        with open(tmp, "w", encoding="utf-8") as fh:
            json.dump(self.entries, fh, indent=1, sort_keys=True)
        os.replace(tmp, self.path)


def environment():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), "unknown")
    except OSError:
        cpu = "unknown"
    env = {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": sys.version.split()[0],
        "threads": {name: THREADS for name in THREAD_VARS},
    }
    # Also the warm-up: it compiles the package's bytecode before any timing.
    libs, error = spawn("env")
    if error:
        raise RuntimeError(error)
    env.update(numpy=libs["numpy"], blas=libs["blas"])
    return env


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


class Measurement:
    """All child runs of one benchmark run and the checks on them."""

    def __init__(self, workload, seed, ledger, hard_deadline):
        spec = WORKLOADS[workload]
        self.hard_deadline = hard_deadline
        self.workload = workload
        self.max_iter = spec["raw"]["maxIter"]
        self.cases = []
        for k in range(spec["cases"]):
            s = case_seed(workload, seed, k)
            out_dir = os.path.join(OUT, "runs", f"{workload}-{seed}-{k}")
            self.cases.append(dict(spec["raw"], seed=s, out_dir=out_dir))
        self.ledger = ledger
        self.source = code_hash()
        self.records = []
        self.failures = []

    def attempt(self, case, mode):
        raw = dict(self.cases[case])
        if mode != "run":
            raw["out_dir"] += "-" + mode
        started = time.monotonic()
        timeout = min(CHILD_TIMEOUT_S, self.hard_deadline - started)
        result, error = spawn(mode, raw, timeout) if timeout > 0 else (None, "no time left for this child")
        record = {"case": case, "mode": mode, "problems": [error] if error else []}
        if result is not None:
            record.update(result)
            record["problems"] += result.get("failures", [])[:5]
            if mode != "probe":
                problems, outputs = check_outputs(raw)
                record["problems"] += problems
                record.update(outputs)
                if not problems:
                    self._check_repeat(record)
        record["wall_s"] = time.monotonic() - started
        self.records.append(record)
        if record["problems"]:
            self.failures.append(f"case {case} {mode}: {'; '.join(record['problems'])}")
        return record

    def _check_repeat(self, record):
        facts = {k: record[k] for k in ("run_record_sha256", "snapshot_sha256")}
        if "trace" in record:
            counts = Counter(record["trace"]["counts"])
            facts["work_counts"] = {name: counts[name] for name in WORK_COUNTS}
        key = f"{self.source}/{self.workload}/{self.cases[record['case']]['seed']}"
        clashes = self.ledger.agree(key, facts)
        if clashes:
            record["problems"].append(f"differs from an earlier run of the same code: {clashes}")

    def ok(self, mode=None):
        return [r for r in self.records if not r["problems"] and (mode is None or r["mode"] == mode)]

    def by_case(self, mode, field):
        out = defaultdict(list)
        for r in self.ok(mode):
            out[r["case"]].append(field(r))
        return out

    def run_until(self, deadline, plan, extra):
        """Run the mandatory ``plan`` of (case, mode) pairs, then repeat
        ``extra`` while the next child is expected to end before
        ``deadline``."""
        walls = defaultdict(list)
        for case, mode in plan:
            walls[mode].append(self.attempt(case, mode)["wall_s"])
        i = 0
        while True:
            case, mode = extra[i % len(extra)]
            expected = statistics.median(walls[mode]) if walls[mode] else 0.0
            if time.monotonic() + expected > deadline:
                return
            walls[mode].append(self.attempt(case, mode)["wall_s"])
            i += 1


def loop_s(r):
    return r["marks"]["loop_end"] - r["marks"]["loop_start"]


def run_s(r):
    return r["marks"]["done"] - r["marks"]["config"]


def setup_s(r):
    return r["marks"]["loop_start"] - r["spawned"]


def measure_end_to_end(m, deadline):
    n = len(m.cases)
    m.run_until(deadline, [(k, "run") for k in range(n)], [(k, mode) for k in range(n) for mode in ("probe", "run")])
    runs = m.ok("run")
    case_run = m.by_case("run", run_s)
    case_loop = m.by_case("run", loop_s)
    if len(case_run) < n:
        return None, {}
    samples = {
        "run_s": [run_s(r) for r in runs],
        "setup_s": [setup_s(r) for r in m.ok() if "loop_start" in r["marks"]],
        "iters_per_s": [m.max_iter / loop_s(r) for r in runs],
        "peak_rss_mib": [r["peak_rss_mib"] for r in runs],
    }
    metrics = {
        # Cases differ in work, so each case contributes its median.
        "run_s": statistics.fmean(statistics.median(v) for v in case_run.values()),
        "setup_s": statistics.median(samples["setup_s"]),
        "iters_per_s": n * m.max_iter / sum(statistics.median(v) for v in case_loop.values()),
        "peak_rss_mib": statistics.median(samples["peak_rss_mib"]),
        "ok_ratio": len(m.ok()) / len(m.records),
    }
    return metrics, samples


def layer_metrics(counts, total, self_time, durations, outer_iters):
    """Per-layer figures from summed counts and span times (see README)."""
    c = Counter(counts)
    total = defaultdict(float, total)
    self_time = defaultdict(float, self_time)
    out = {}
    for name in TARGET_SPANS:
        out[name + ".calls"] = c[name + ".calls"]
        out[name + ".points"] = c[name + ".points"]
        out[name + ".s"] = total[name]
    target_s = sum(total[name] for name in TARGET_SPANS)
    points = sum(c[name + ".points"] for name in TARGET_SPANS)
    out["targets.points_per_s"] = points / target_s if target_s > 0 else 0.0
    out["targets.sweeps_per_iter"] = sum(c[name + ".calls"] for name in TARGET_SPANS) / outer_iters
    for name in ("free_energy.value", "free_energy.value_and_grad"):
        out[name + ".calls"] = c[name + ".calls"]
        out[name + ".s"] = total[name]
    out["free_energy.self_s"] = self_time["free_energy.value"] + self_time["free_energy.value_and_grad"]
    out["solver.lbfgs_minimize.calls"] = c["solver.lbfgs_minimize.calls"]
    out["solver.lbfgs_minimize.s"] = total["solver.lbfgs_minimize"]
    out["solver.self_s"] = self_time["solver.lbfgs_minimize"]
    for name in ("inner_iters", "max_inner_hits", "trial_evals"):
        out["solver." + name] = c["solver." + name]
    inner, trials = c["solver.inner_iters"], c["solver.trial_evals"]
    out["solver.ls_accept_ratio"] = inner / trials if trials else 0.0
    out["solver.evals_per_inner"] = c["solver.evals"] / inner if inner else 0.0
    for name in KERNEL_SPANS:
        out[name + ".calls"] = c[name + ".calls"]
        out[name + ".pairs"] = c[name + ".pairs"]
        out[name + ".s"] = total[name]
    out["kernels.bytes_computed"] = c["kernels.bytes_computed"]
    for name in ("metrics.evaluate", "baselines.svgd_step"):
        out[name + ".calls"] = c[name + ".calls"]
        out[name + ".s"] = total[name]
        out[name + ".ms_p50"] = 1e3 * statistics.median(durations[name]) if durations.get(name) else 0.0
    out["metrics.evaluator_init.s"] = total["metrics.evaluator_init"]
    out["io.write_run_record.s"] = total["io.write_run_record"]
    out["io.write_particles.s"] = total["io.write_particles"]
    out["io.bytes_written"] = c["io.bytes_written"]
    out["io.files_written"] = c["io.files_written"]
    out["runner.build_targets.s"] = total["runner.build_targets"]
    out["runner.reference_samples.s"] = total["runner.reference_samples"]
    return out


def quality(m, mode):
    """The last evaluation row, averaged over cases (one run per case)."""
    finals = [records[0] for records in m.by_case(mode, lambda r: r).values()]
    return {name: statistics.fmean(r[name] for r in finals) for name in ("final_mmd2", "final_energy_dist")}


def measure_layers(m, deadline):
    n = len(m.cases)
    plan = [(0, "trace"), (0, "run")] + [(k, "trace") for k in range(1, n)]
    m.run_until(deadline, plan, [(0, "trace"), (0, "run")])
    traced = m.by_case("trace", lambda r: r)
    if len(traced) < n or not m.ok("run"):
        return None
    counts, total, self_time, durations = Counter(), Counter(), Counter(), defaultdict(list)
    for case, records in traced.items():
        counts.update(records[0]["trace"]["counts"])
        # Times: the median over this case's traced runs; cases are summed.
        for name in records[0]["trace"]["total_s"]:
            for sums, key in ((total, "total_s"), (self_time, "self_s")):
                sums[name] += statistics.median(r["trace"][key].get(name, 0.0) for r in records)
        for r in records:
            for name, values in r["trace"]["durations_s"].items():
                durations[name].extend(values)
    metrics = layer_metrics(counts, total, self_time, durations, n * m.max_iter)
    for name, value in quality(m, "trace").items():
        metrics["quality." + name] = value
    traced_run = statistics.median(run_s(r) for r in traced[0])
    untraced_run = statistics.median(run_s(r) for r in m.ok("run"))
    metrics["trace.overhead_share"] = traced_run / untraced_run - 1.0
    return metrics


def declared_units(trace):
    """Name -> unit of the metrics BENCHMARK.json declares for this mode."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    return {item["name"]: item["unit"] for item in spec["per_layer" if trace else "end_to_end"]}


def benchmark(workload, seed, seconds, trace, ledger):
    """One benchmark run; prints its lines and returns the result object."""
    start = time.monotonic()
    os.makedirs(os.path.join(OUT, "runs"), exist_ok=True)
    env = environment()
    m = Measurement(workload, seed, ledger, start + HARD_LIMIT_S)
    deadline = start + seconds
    units = declared_units(trace)
    if trace:
        values, samples = measure_layers(m, deadline), {}
    else:
        values, samples = measure_end_to_end(m, deadline)
    if values is not None and set(values) != set(units):
        raise RuntimeError(f"computed metrics differ from BENCHMARK.json: {sorted(set(values) ^ set(units))}")
    correct = values is not None and not m.failures
    metrics = {name: {"value": (values or {}).get(name, 0.0), "unit": unit} for name, unit in units.items()}

    print(f"# workload {workload} seed {seed} trace {trace}: {len(m.records)} child runs over {len(m.cases)} cases")
    print("# environment " + json.dumps(env, sort_keys=True))
    for name, metric in metrics.items():
        print(f"{name:40s} {metric['value']:.6g} {metric['unit']}")
    for name, series in samples.items():
        q1, q3 = quartiles(series)
        median = statistics.median(series)
        print(f"# samples {name}: n={len(series)} median={median:.6g} q1={q1:.6g} q3={q3:.6g} spread={(q3 - q1) / median:.3f}")
    if not trace and values is not None:
        for name, value in quality(m, "run").items():
            print(f"{name:40s} {value:.6g} (mean over cases)")
    print(f"{'fail_ratio':40s} {len(m.records) - len(m.ok())}/{len(m.records)}")
    digests = {}
    for r in m.ok():
        if "run_record_sha256" in r:
            digests[m.cases[r["case"]]["seed"]] = [r["run_record_sha256"], r["snapshot_sha256"]]
    for case_seed_value, (record_hash, snapshot_hash) in sorted(digests.items()):
        print(f"# digest case-seed {case_seed_value} run_record {record_hash} final-snapshot {snapshot_hash}")
    for failure in m.failures:
        print("# FAILED " + failure)

    result = {
        "correct": correct,
        "attempted": len(m.records),
        "failed": len(m.records) - len(m.ok()),
        "metrics": metrics,
    }
    os.makedirs(os.path.join(OUT, "results"), exist_ok=True)
    with open(os.path.join(OUT, "results", f"{workload}-seed{seed}-trace{trace}.json"), "w") as fh:
        json.dump({"result": result, "environment": env, "source_sha256": m.source,
                   "cases": m.cases, "children": m.records, "failures": m.failures}, fh, indent=1)
    return result


def main(argv=None):
    parser = argparse.ArgumentParser(description="evi-mmd benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "evi_mmd", "__init__.py")):
        print(f"bench: no evi_mmd sources under {ROOT}/src", file=sys.stderr)
        return 2
    os.makedirs(OUT, exist_ok=True)
    ledger = Ledger(os.path.join(OUT, "ledger.json"))
    try:
        if args.workload != "all":
            result = benchmark(args.workload, args.seed, args.seconds, args.trace, ledger)
            print(json.dumps(result))
            return 0
        results = {}
        for workload in WORKLOADS:
            for trace in (0, 1):
                results[f"{workload}/trace{trace}"] = benchmark(workload, args.seed, args.seconds, trace, ledger)
        print(json.dumps(results))
        return 0 if all(r["correct"] for r in results.values()) else 1
    finally:
        ledger.save()


if __name__ == "__main__":
    sys.exit(main())
