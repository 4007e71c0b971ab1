"""Experiment configuration: YAML key-value documents with a strict schema.

Each ExperimentConfig field carries its check and, where it differs from the
field name, its config-file key, so validation is one pass over the fields:
unknown keys are rejected (with a close-match suggestion) and fields without
a default are required.  Counts and positive reals go through the library's
own checks, :func:`~evi_mmd.model._check_count` and
:func:`~evi_mmd.model._check_positive`, and :func:`check_value` turns every
rejected value into a :class:`ConfigError` naming its key.  Defaults follow the
recommended tuning ledger: the proximal ratio defaults to the target
dimension, set when the run builds the target, the schedule scale to the
median pairwise distance of the initial particles ("auto"), the floor b to
0.1, and the decay c to 0.5.  Only ``SCHEDULE_METHODS`` read (and check) the
bandwidth schedule a, b, c.
"""

from __future__ import annotations

import difflib
from dataclasses import MISSING, dataclass, field, fields, replace
from functools import partial
from typing import Optional, Tuple, Union

import yaml

from .errors import ConfigError, InvalidArgumentError
from .model import BandwidthSchedule, _check_count, _check_positive
from .solver import check_schedule

METHODS = ("evi_mmd", "explicit_mmd", "energy_distance", "svgd", "lmc")
DENSITY_TARGETS = ("star", "eight", "wave", "gaussian")
TARGETS = DENSITY_TARGETS + ("csv",)
_DENSITY_ONLY_METHODS = ("svgd", "lmc")
SCHEDULE_METHODS = ("evi_mmd", "explicit_mmd")


def _or(special, check):
    """``check`` that also lets ``special`` through."""
    return lambda value, name: value if value == special else check(value, name)


def _as_bool(value, name: str) -> bool:
    if not isinstance(value, bool):
        raise InvalidArgumentError(f"{name} must be true or false, got {value!r}")
    return value


def _as_str(value, name: str) -> str:
    if not isinstance(value, str):
        raise InvalidArgumentError(f"{name} must be a string, got {value!r}")
    return value


def _one_of(choices: Tuple[str, ...]):
    def check(value, name: str) -> str:
        if _as_str(value, name) not in choices:
            raise InvalidArgumentError(f"{name} must be one of {choices}, got {value!r}")
        return value

    return check


def _as_iterations(value, name: str) -> Tuple[int, ...]:
    if not isinstance(value, (list, tuple)):
        raise InvalidArgumentError(f"{name} must be a list of integers >= 1, got {value!r}")
    return tuple(_check_count(i, f"{name} entry") for i in value)


def _field(check, default=MISSING, key: Optional[str] = None):
    """A config field checked by ``check(value, key)``, which raises
    :class:`InvalidArgumentError` as the model's checks do; its errors name
    the config-file ``key`` (given only where it differs from the field
    name)."""
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
    N: int = _field(_check_count)
    max_iter: int = _field(_check_count, key="maxIter")
    L: int = _field(_check_count, 100)
    tau_star: Optional[float] = _field(_or(None, _check_positive), None)
    a: Union[str, float] = _field(_or("auto", _check_positive), "auto")
    b: float = _field(_check_positive, 0.1)
    c: float = _field(_check_positive, 0.5)
    eta0: float = _field(_check_positive, 0.1)
    bandwidth: float = _field(_check_positive, 0.1)
    lmc_a: float = _field(_check_positive, 0.1)
    lmc_b: float = _field(_check_positive, 1.0)
    lmc_c: float = _field(_check_positive, 0.55)
    seed: int = _field(partial(_check_count, minimum=0, maximum=2**64 - 1), 0)
    out_dir: str = _field(_as_str, "runs")
    metrics_stride: int = _field(_check_count, 1)
    n_reference: int = _field(_check_count, 2000)
    eval_bandwidth: float = _field(_check_positive, 0.5)
    snapshot_iters: Tuple[int, ...] = _field(_as_iterations, (50, 500))
    two_sample: bool = _field(_as_bool, False)
    M: int = _field(_check_count, 10000)
    target_d: Optional[int] = _field(_check_count, None)
    target_sigma: float = _field(_check_positive, 1.0)
    target_csv: Optional[str] = _field(_as_str, None)
    strict_deterministic: bool = _field(_as_bool, False)

    @property
    def empirical(self) -> bool:
        return self.target == "csv" or self.two_sample


# Config-file key -> ExperimentConfig field, in field order.
_FIELDS = {f.metadata["key"] or f.name: f for f in fields(ExperimentConfig)}


def check_value(name: str, key: str, value):
    """``value`` through field ``name``'s check; a rejected value raises a
    :class:`ConfigError` naming ``key``."""
    try:
        return ExperimentConfig.__dataclass_fields__[name].metadata["check"](value, key)
    except InvalidArgumentError as exc:
        raise ConfigError(str(exc).removeprefix(f"{key} "), field=key) from None


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
            out[f.name] = check_value(f.name, key, raw[key])
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
