"""Experiment configuration: YAML key-value documents with a strict schema.

Each ExperimentConfig field carries its check and, where it differs from the
field name, its config-file key, so validation is one pass over the fields:
unknown keys are rejected (with a close-match suggestion), fields without a
default are required, and positive reals must be finite.  Defaults follow the
recommended tuning ledger: the proximal ratio defaults to the target
dimension, set when the run builds the target, the schedule scale to the
median pairwise distance of the initial particles ("auto"), the floor b to
0.1, and the decay c to 0.5.  Only ``SCHEDULE_METHODS`` read (and check) the
bandwidth schedule a, b, c.
"""

from __future__ import annotations

import difflib
import sys
from dataclasses import MISSING, dataclass, field, fields, replace
from typing import Optional, Tuple, Union

import yaml

from .errors import ConfigError, InvalidArgumentError
from .model import BandwidthSchedule
from .solver import check_schedule

METHODS = ("evi_mmd", "explicit_mmd", "energy_distance", "svgd", "lmc")
DENSITY_TARGETS = ("star", "eight", "wave", "gaussian")
TARGETS = DENSITY_TARGETS + ("csv",)
_DENSITY_ONLY_METHODS = ("svgd", "lmc")
SCHEDULE_METHODS = ("evi_mmd", "explicit_mmd")


def _as_int(key: str, value) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"expected an integer, got {value!r}", field=key)
    return value


def _as_positive_int(key: str, value) -> int:
    v = _as_int(key, value)
    if v < 1:
        raise ConfigError(f"must be >= 1, got {v}", field=key)
    return v


def _as_seed(key: str, value) -> int:
    seed = _as_int(key, value)
    if not 0 <= seed < 2**64:
        raise ConfigError(f"must fit in an unsigned 64-bit integer, got {seed}", field=key)
    return seed


def _as_positive_float(key: str, value) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"expected a number, got {value!r}", field=key)
    # Also rejects ints too large for a float.
    if not abs(value) <= sys.float_info.max:
        raise ConfigError(f"must be finite, got {value}", field=key)
    v = float(value)
    if not v > 0:
        raise ConfigError(f"must be > 0, got {v}", field=key)
    return v


def _as_positive_float_or(special):
    """A positive-real check that also lets ``special`` through."""
    return lambda key, value: value if value == special else _as_positive_float(key, value)


def _as_bool(key: str, value) -> bool:
    if not isinstance(value, bool):
        raise ConfigError(f"expected true/false, got {value!r}", field=key)
    return value


def _as_str(key: str, value) -> str:
    if not isinstance(value, str):
        raise ConfigError(f"expected a string, got {value!r}", field=key)
    return value


def _one_of(choices: Tuple[str, ...]):
    def check(key: str, value) -> str:
        if _as_str(key, value) not in choices:
            raise ConfigError(f"must be one of {choices}, got {value!r}", field=key)
        return value

    return check


def _as_iterations(key: str, value) -> Tuple[int, ...]:
    if not isinstance(value, (list, tuple)) or not all(
        isinstance(i, int) and not isinstance(i, bool) and i >= 1 for i in value
    ):
        raise ConfigError(f"expected a list of integers >= 1, got {value!r}", field=key)
    return tuple(value)


def _field(check, default=MISSING, key: Optional[str] = None):
    """A config field checked by ``check(key, value)``, whose errors name the
    config-file ``key`` (given only where it differs from the field name)."""
    return field(default=default, metadata={"check": check, "key": key})


@dataclass(frozen=True)
class ExperimentConfig:
    """Resolved experiment description.

    An unset ``tau_star`` stays None here: the run sets it to the dimension
    of the target it builds (:func:`evi_mmd.runner.run_experiment`) and
    records that value in the config echo.
    """

    method: str = _field(_one_of(METHODS))
    target: str = _field(_one_of(TARGETS))
    N: int = _field(_as_positive_int)
    max_iter: int = _field(_as_positive_int, key="maxIter")
    L: int = _field(_as_positive_int, 100)
    tau_star: Optional[float] = _field(_as_positive_float_or(None), None)
    a: Union[str, float] = _field(_as_positive_float_or("auto"), "auto")
    b: float = _field(_as_positive_float, 0.1)
    c: float = _field(_as_positive_float, 0.5)
    eta0: float = _field(_as_positive_float, 0.1)
    bandwidth: float = _field(_as_positive_float, 0.1)
    lmc_a: float = _field(_as_positive_float, 0.1)
    lmc_b: float = _field(_as_positive_float, 1.0)
    lmc_c: float = _field(_as_positive_float, 0.55)
    seed: int = _field(_as_seed, 0)
    out_dir: str = _field(_as_str, "runs")
    metrics_stride: int = _field(_as_positive_int, 1)
    n_reference: int = _field(_as_positive_int, 2000)
    eval_bandwidth: float = _field(_as_positive_float, 0.5)
    snapshot_iters: Tuple[int, ...] = _field(_as_iterations, (50, 500))
    two_sample: bool = _field(_as_bool, False)
    M: int = _field(_as_positive_int, 10000)
    target_d: Optional[int] = _field(_as_positive_int, None)
    target_sigma: float = _field(_as_positive_float, 1.0)
    target_csv: Optional[str] = _field(_as_str, None)
    strict_deterministic: bool = _field(_as_bool, False)

    @property
    def empirical(self) -> bool:
        return self.target == "csv" or self.two_sample


# Config-file key -> ExperimentConfig field, in field order.
_FIELDS = {f.metadata["key"] or f.name: f for f in fields(ExperimentConfig)}


def check_value(name: str, key: str, value):
    """``value`` through field ``name``'s check, its errors naming ``key``."""
    return ExperimentConfig.__dataclass_fields__[name].metadata["check"](key, value)


def _validate_raw(raw: dict) -> dict:
    """Type-check and normalize a raw key-value mapping into field values."""
    for key in raw:
        if key not in _FIELDS:
            hint = difflib.get_close_matches(str(key), _FIELDS, n=1)
            suggestion = f"; did you mean {hint[0]!r}?" if hint else ""
            raise ConfigError(f"unknown key{suggestion}", field=key)
    out = {}
    for key, f in _FIELDS.items():
        if key in raw:
            out[f.name] = f.metadata["check"](key, raw[key])
        elif f.default is MISSING:
            raise ConfigError("required key is missing", field=key)
    return out


def _resolve(out: dict) -> ExperimentConfig:
    """Fill cross-field defaults and enforce method/target compatibility."""
    target = out["target"]
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
    if cfg.a == "auto" and cfg.method in SCHEDULE_METHODS and cfg.N < 2:
        # The automatic scale is a median distance between initial particles.
        raise ConfigError(f"must be >= 2 when a is auto, got {cfg.N}", field="N")
    if cfg.a != "auto" and cfg.method in SCHEDULE_METHODS:
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
    for key, f in _FIELDS.items():
        value = getattr(cfg, f.name)
        if value is not None:
            out[key] = list(value) if isinstance(value, tuple) else value
    return out


def dump_config(cfg: ExperimentConfig, path: str) -> None:
    """Write the resolved-config echo file (deterministic key order)."""
    with open(path, "w", encoding="utf-8") as fh:
        yaml.safe_dump(config_to_dict(cfg), fh, sort_keys=True)
