"""Experiment configuration: YAML key-value documents with a strict schema.

Unknown keys are rejected (with a close-match suggestion), every value is
validated against the constraints of its consuming module, and defaults
follow the recommended tuning ledger: the proximal ratio defaults to the
problem dimension, the schedule scale to the median pairwise distance of the
initial particles ("auto"), the floor b to 0.1, and the decay c to 0.5.
"""

from __future__ import annotations

import difflib
from dataclasses import dataclass, fields, replace
from typing import Optional, Tuple, Union

import yaml

from .errors import ConfigError, InvalidArgumentError
from .model import BandwidthSchedule
from .solver import check_schedule

METHODS = ("evi_mmd", "explicit_mmd", "energy_distance", "svgd", "lmc")
TARGETS = ("star", "eight", "wave", "gaussian", "csv")
_DENSITY_ONLY_METHODS = ("svgd", "lmc")

# Built-in 2-d toys; the gaussian target takes its dimension from target_d
# and csv targets resolve dimension at load time.
_TOY_DIM = {"star": 2, "eight": 2, "wave": 2}


@dataclass(frozen=True)
class ExperimentConfig:
    """Resolved experiment description.

    ``tau_star`` may be None only for csv targets, whose dimension (and hence
    the default ratio) is unknown until the dataset is loaded.
    """

    method: str
    target: str
    N: int
    max_iter: int
    L: int = 100
    tau_star: Optional[float] = None
    a: Union[str, float] = "auto"
    b: float = 0.1
    c: float = 0.5
    eta0: float = 0.1
    bandwidth: float = 0.1
    lmc_a: float = 0.1
    lmc_b: float = 1.0
    lmc_c: float = 0.55
    seed: int = 0
    out_dir: str = "runs"
    metrics_stride: int = 1
    n_reference: int = 2000
    eval_bandwidth: float = 0.5
    snapshot_iters: Tuple[int, ...] = (50, 500)
    two_sample: bool = False
    M: int = 10000
    target_d: Optional[int] = None
    target_sigma: float = 1.0
    target_csv: Optional[str] = None
    strict_deterministic: bool = False

    @property
    def dim(self) -> Optional[int]:
        """Target dimension when derivable without touching data files."""
        if self.target in _TOY_DIM:
            return _TOY_DIM[self.target]
        if self.target == "gaussian":
            return self.target_d
        return None

    @property
    def empirical(self) -> bool:
        return self.target == "csv" or self.two_sample


# YAML key -> ExperimentConfig field.  Keys are the field names, except the
# config-file dialect's camelCase maxIter.
_KEY_TO_FIELD = {
    {"max_iter": "maxIter"}.get(f.name, f.name): f.name for f in fields(ExperimentConfig)
}

_REQUIRED_KEYS = ("method", "target", "N", "maxIter")


def _as_int(key: str, value) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"expected an integer, got {value!r}", field=key)
    return value


def check_seed(seed: int, field: str = "seed") -> int:
    """``seed`` once it fits numpy's unsigned 64-bit seed range."""
    if not 0 <= seed < 2**64:
        raise ConfigError(f"must fit in an unsigned 64-bit integer, got {seed}", field=field)
    return seed


def _as_positive_int(key: str, value) -> int:
    v = _as_int(key, value)
    if v < 1:
        raise ConfigError(f"must be >= 1, got {v}", field=key)
    return v


def _as_float(key: str, value) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"expected a number, got {value!r}", field=key)
    return float(value)


def _as_positive_float(key: str, value) -> float:
    v = _as_float(key, value)
    if not v > 0:
        raise ConfigError(f"must be > 0, got {v}", field=key)
    return v


def _as_bool(key: str, value) -> bool:
    if not isinstance(value, bool):
        raise ConfigError(f"expected true/false, got {value!r}", field=key)
    return value


def _as_str(key: str, value) -> str:
    if not isinstance(value, str):
        raise ConfigError(f"expected a string, got {value!r}", field=key)
    return value


def _validate_raw(raw: dict) -> dict:
    """Type-check and normalize a raw key-value mapping into field values."""
    out = {}
    for key, value in raw.items():
        if key not in _KEY_TO_FIELD:
            hint = difflib.get_close_matches(key, _KEY_TO_FIELD, n=1)
            suggestion = f"; did you mean {hint[0]!r}?" if hint else ""
            raise ConfigError(f"unknown key{suggestion}", field=key)
        out[_KEY_TO_FIELD[key]] = value

    for key in _REQUIRED_KEYS:
        if _KEY_TO_FIELD[key] not in out:
            raise ConfigError("required key is missing", field=key)

    method = _as_str("method", out["method"])
    if method not in METHODS:
        raise ConfigError(f"must be one of {METHODS}, got {method!r}", field="method")
    target = _as_str("target", out["target"])
    if target not in TARGETS:
        raise ConfigError(f"must be one of {TARGETS}, got {target!r}", field="target")
    out["method"], out["target"] = method, target

    out["N"] = _as_positive_int("N", out["N"])
    out["max_iter"] = _as_positive_int("maxIter", out["max_iter"])

    checkers = {
        "L": lambda v: _as_positive_int("L", v),
        "tau_star": lambda v: None if v is None else _as_positive_float("tau_star", v),
        "b": lambda v: _as_positive_float("b", v),
        "c": lambda v: _as_positive_float("c", v),
        "eta0": lambda v: _as_positive_float("eta0", v),
        "bandwidth": lambda v: _as_positive_float("bandwidth", v),
        "lmc_a": lambda v: _as_positive_float("lmc_a", v),
        "lmc_b": lambda v: _as_positive_float("lmc_b", v),
        "lmc_c": lambda v: _as_positive_float("lmc_c", v),
        "metrics_stride": lambda v: _as_positive_int("metrics_stride", v),
        "n_reference": lambda v: _as_positive_int("n_reference", v),
        "eval_bandwidth": lambda v: _as_positive_float("eval_bandwidth", v),
        "two_sample": lambda v: _as_bool("two_sample", v),
        "M": lambda v: _as_positive_int("M", v),
        "target_d": lambda v: _as_positive_int("target_d", v),
        "target_sigma": lambda v: _as_positive_float("target_sigma", v),
        "target_csv": lambda v: _as_str("target_csv", v),
        "out_dir": lambda v: _as_str("out_dir", v),
        "strict_deterministic": lambda v: _as_bool("strict_deterministic", v),
    }
    for name, check in checkers.items():
        if name in out:
            out[name] = check(out[name])

    if "seed" in out:
        out["seed"] = check_seed(_as_int("seed", out["seed"]))

    if "a" in out and out["a"] != "auto":
        out["a"] = _as_positive_float("a", out["a"])

    if "snapshot_iters" in out:
        iters = out["snapshot_iters"]
        if not isinstance(iters, (list, tuple)) or not all(
            isinstance(i, int) and not isinstance(i, bool) and i >= 1 for i in iters
        ):
            raise ConfigError(
                f"expected a list of integers >= 1, got {iters!r}", field="snapshot_iters"
            )
        out["snapshot_iters"] = tuple(iters)

    return out


def _resolve(out: dict) -> ExperimentConfig:
    """Fill cross-field defaults and enforce method/target compatibility."""
    method, target = out["method"], out["target"]

    if target == "gaussian" and out.get("target_d") is None:
        raise ConfigError("gaussian target requires target_d", field="target_d")
    if target == "csv" and out.get("target_csv") is None:
        raise ConfigError("csv target requires target_csv", field="target_csv")
    if target == "csv":
        out["two_sample"] = True

    cfg = ExperimentConfig(**out)

    if cfg.method in _DENSITY_ONLY_METHODS and cfg.empirical:
        raise ConfigError(
            f"method {cfg.method!r} needs a fully specified density target "
            "(two_sample/csv is not supported)",
            field="method",
        )
    if cfg.method == "energy_distance" and not cfg.empirical:
        raise ConfigError(
            "energy_distance is a two-sample method; set two_sample: true or "
            "use a csv target",
            field="method",
        )

    if "metrics_stride" not in out:
        cfg = replace(cfg, metrics_stride=100 if cfg.method in ("svgd", "lmc") else 1)
    if cfg.tau_star is None and cfg.dim is not None:
        cfg = replace(cfg, tau_star=float(cfg.dim))
    if cfg.a != "auto":
        # The run builds a Gaussian kernel at every bandwidth down to h(maxIter).
        try:
            check_schedule(BandwidthSchedule(a=cfg.a, b=cfg.b, c=cfg.c), cfg.max_iter)
        except InvalidArgumentError as exc:
            raise ConfigError(str(exc), field="a") from None
    if cfg.L > cfg.M and cfg.empirical and cfg.target != "csv":
        raise ConfigError(f"mini-batch L={cfg.L} exceeds training size M={cfg.M}", field="L")
    return cfg


def config_from_dict(raw: dict) -> ExperimentConfig:
    """Validate a raw mapping (e.g. parsed YAML) into an ExperimentConfig."""
    if not isinstance(raw, dict):
        raise ConfigError(f"config document must be a mapping, got {type(raw).__name__}")
    return _resolve(_validate_raw(raw))


def load_config(path: str) -> ExperimentConfig:
    """Parse and validate a YAML config file."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = yaml.safe_load(fh)
    except yaml.YAMLError as exc:
        mark = getattr(exc, "problem_mark", None)
        location = f" at line {mark.line + 1}, column {mark.column + 1}" if mark else ""
        raise ConfigError(f"could not parse {path}{location}: {exc}") from exc
    if raw is None:
        raise ConfigError(f"config file {path} is empty")
    return config_from_dict(raw)


def config_to_dict(cfg: ExperimentConfig) -> dict:
    """Serializable form of a resolved config (the echo-file content).

    Unset optional fields (None) are omitted so the echo re-loads cleanly.
    """
    out = {}
    field_to_key = {v: k for k, v in _KEY_TO_FIELD.items()}
    for f in fields(cfg):
        value = getattr(cfg, f.name)
        if value is None:
            continue
        if isinstance(value, tuple):
            value = list(value)
        out[field_to_key[f.name]] = value
    return out


def dump_config(cfg: ExperimentConfig, path: str) -> None:
    """Write the resolved-config echo file (deterministic key order)."""
    with open(path, "w", encoding="utf-8") as fh:
        yaml.safe_dump(config_to_dict(cfg), fh, sort_keys=True)
