"""Command-line entry points.

Subcommands:

* ``run <config.yaml>``: execute an experiment; artifacts land in the
  config's out_dir.  ``EVI_MMD_SEED`` overrides the master seed.
* ``sample-target <name>``: emit exact samples of a built-in target.
* ``metrics``: two-sample discrepancies between two CSV files.

Exit codes: 0 success, 2 configuration/validation error, 3 dataset or I/O
error, 4 numerical failure (partial trace written when available), 1 anything
unexpected.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import replace
from typing import Optional

import numpy as np

from . import io as io_csv
from .config import DENSITY_TARGETS, check_value, config_from_dict, load_config
from .errors import (
    ConfigError,
    DatasetError,
    InvalidArgumentError,
    NumericalFailureError,
)
from .metrics import RunEvaluator
from .model import GAUSSIAN, NEGATIVE_EUCLIDEAN, KernelConfig
from .runner import make_density_target, run_experiment

EXIT_OK = 0
EXIT_UNEXPECTED = 1
EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_NUMERICAL = 4

SEED_ENV_VAR = "EVI_MMD_SEED"


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="evi-mmd",
        description="Deterministic particle sampling by kernel-discrepancy minimization",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run an experiment from a YAML config")
    run_p.add_argument("config", help="path to the config file")
    run_p.add_argument(
        "--strict-deterministic",
        action="store_true",
        help="force fully sequential evaluation (bit-reproducible runs)",
    )
    run_p.add_argument("--out-dir", default=None, help="override the config out_dir")

    sample_p = sub.add_parser("sample-target", help="emit exact target samples")
    sample_p.add_argument("name", choices=DENSITY_TARGETS)
    sample_p.add_argument("--n", type=int, required=True, help="number of samples")
    sample_p.add_argument("--seed", type=int, default=0)
    sample_p.add_argument("--out", required=True, help="output CSV path")
    sample_p.add_argument("--d", type=int, default=None, help="dimension (gaussian)")
    sample_p.add_argument("--sigma", type=float, default=1.0, help="scale (gaussian)")

    metrics_p = sub.add_parser("metrics", help="two-sample discrepancies between CSVs")
    metrics_p.add_argument("--x", required=True, help="first sample CSV")
    metrics_p.add_argument("--y", required=True, help="second sample CSV")
    metrics_p.add_argument(
        "--kernel", choices=(GAUSSIAN, NEGATIVE_EUCLIDEAN), default=GAUSSIAN
    )
    metrics_p.add_argument("--h", type=float, default=0.5, help="Gaussian bandwidth")

    return parser


def _cmd_run(args) -> int:
    cfg = load_config(args.config)
    if args.out_dir is not None:
        cfg = replace(cfg, out_dir=args.out_dir)
    if args.strict_deterministic:
        cfg = replace(cfg, strict_deterministic=True)
    env_seed = os.environ.get(SEED_ENV_VAR)
    if env_seed is not None:
        try:
            seed = int(env_seed)
        except ValueError:
            seed = env_seed  # the seed check rejects the string by name
        cfg = replace(cfg, seed=check_value("seed", SEED_ENV_VAR, seed))
    return run_experiment(cfg)


def _cmd_sample_target(args) -> int:
    # Only the target fields and the seed are read; the run fields are placeholders.
    raw = dict(
        method="evi_mmd", target=args.name, N=2, maxIter=1, seed=args.seed, target_sigma=args.sigma
    )
    if args.d is not None:
        raw["target_d"] = args.d
    n = check_value("N", "n", args.n)
    cfg = config_from_dict(raw)
    target = make_density_target(cfg)
    rng = np.random.default_rng(cfg.seed)
    samples = target.exact_sampler(rng, n)
    io_csv.write_dataset_csv(samples, args.out)
    return EXIT_OK


def _cmd_metrics(args) -> int:
    x = io_csv.read_points_any(args.x)
    y = io_csv.read_points_any(args.y)
    if args.kernel == GAUSSIAN:
        kernel = KernelConfig.gaussian(args.h)
    else:
        kernel = KernelConfig.negative_euclidean()
    mmd2, energy = RunEvaluator(y, kernel).evaluate(x)
    print("mmd2=%.17g" % mmd2)
    print("energy_distance=%.17g" % energy)
    return EXIT_OK


def main(argv: Optional[list] = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "run":
            return _cmd_run(args)
        if args.command == "sample-target":
            return _cmd_sample_target(args)
        if args.command == "metrics":
            return _cmd_metrics(args)
        raise RuntimeError(f"unhandled command {args.command!r}")
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except InvalidArgumentError as exc:
        print(f"invalid argument: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (DatasetError, OSError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except NumericalFailureError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        if exc.partial_record_error is not None:
            error = exc.partial_record_error
            print(f"could not write partial run record: {error}", file=sys.stderr)
        elif exc.partial_record_path is not None:
            print(f"partial run record written to {exc.partial_record_path}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    raise SystemExit(main())
