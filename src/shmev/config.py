"""Declarative run configuration: YAML with strict, schema-versioned sections.

Unknown keys are rejected and every value is type-checked before any work
starts.  A file may carry several command sections (a whole study); each
command validates and consumes only its own section plus the globals.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Mapping

import yaml

from .errors import ConfigError

CONFIG_SCHEMA_VERSION = 1

_GLOBAL_KEYS = {"schema_version", "seed", "out_dir", "threads",
                "simulate", "fit", "predict", "diagnose", "map", "evaluate"}


def _check_keys(mapping: Mapping, allowed: set[str], context: str) -> None:
    unknown = set(mapping) - allowed
    if unknown:
        raise ConfigError(f"{context}: unknown keys {sorted(unknown)}")


def _need(mapping: Mapping, key: str, context: str):
    if key not in mapping:
        raise ConfigError(f"{context}: missing required key '{key}'")
    return mapping[key]


def _as_int(value, context: str, minimum: int | None = None) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{context}: expected an integer, got {value!r}")
    if minimum is not None and value < minimum:
        raise ConfigError(f"{context}: must be >= {minimum}, got {value}")
    return value


def _as_float(value, context: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{context}: expected a number, got {value!r}")
    return float(value)


def _as_str(value, context: str) -> str:
    if not isinstance(value, str):
        raise ConfigError(f"{context}: expected a string, got {value!r}")
    return value


def _as_bool(value, context: str) -> bool:
    if not isinstance(value, bool):
        raise ConfigError(f"{context}: expected a boolean, got {value!r}")
    return value


def _as_float_list(value, context: str, length: int | None = None) -> tuple[float, ...]:
    if not isinstance(value, (list, tuple)):
        raise ConfigError(f"{context}: expected a list of numbers")
    out = tuple(_as_float(v, context) for v in value)
    if length is not None and len(out) != length:
        raise ConfigError(f"{context}: expected {length} numbers, got {len(out)}")
    return out


def load_config(path: str | Path) -> dict:
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file not found: {path}")
    try:
        raw = yaml.safe_load(path.read_text(encoding="utf-8"))
    except yaml.YAMLError as exc:
        raise ConfigError(f"{path}: unparseable YAML ({exc})") from exc
    if not isinstance(raw, dict):
        raise ConfigError(f"{path}: top level must be a mapping")
    _check_keys(raw, _GLOBAL_KEYS, str(path))
    version = _as_int(_need(raw, "schema_version", str(path)), "schema_version")
    if version != CONFIG_SCHEMA_VERSION:
        raise ConfigError(f"unsupported schema_version {version} (expected {CONFIG_SCHEMA_VERSION})")
    _as_int(_need(raw, "seed", str(path)), "seed", minimum=0)
    return raw


@dataclass(frozen=True)
class SimulateSection:
    scenario: str = "WEI"
    sites: int = 27
    train_blocks: int = 20
    test_blocks: int = 100
    shape_trend: tuple[float, float, float] = (0.7, 0.1, -0.1)
    scale_trend: tuple[float, float, float] = (9.0, 2.0, 1.0)
    count_trend: tuple[float, float, float] = (-0.9, 0.2, -0.3)
    shape_spread: float = 0.05
    scale_spread: float = 1.5
    gp_variance: float = 0.2
    gp_range: float = 0.3
    trials_per_block: int = 366

    @classmethod
    def from_mapping(cls, m: Mapping, context: str = "simulate") -> "SimulateSection":
        _check_keys(m, set(cls.__dataclass_fields__), context)
        kwargs: dict[str, Any] = {}
        if "scenario" in m:
            scenario = _as_str(m["scenario"], f"{context}.scenario")
            if scenario not in ("WEI", "WEI_gp", "GM"):
                raise ConfigError(f"{context}.scenario: must be WEI, WEI_gp, or GM")
            kwargs["scenario"] = scenario
        for key in ("sites", "train_blocks", "test_blocks", "trials_per_block"):
            if key in m:
                kwargs[key] = _as_int(m[key], f"{context}.{key}", minimum=1)
        for key in ("shape_trend", "scale_trend", "count_trend"):
            if key in m:
                kwargs[key] = _as_float_list(m[key], f"{context}.{key}", length=3)
        for key in ("shape_spread", "scale_spread", "gp_variance", "gp_range"):
            if key in m:
                value = _as_float(m[key], f"{context}.{key}")
                if value < 0.0:
                    raise ConfigError(f"{context}.{key}: must be >= 0")
                kwargs[key] = value
        return cls(**kwargs)


@dataclass(frozen=True)
class SamplerSection:
    chains: int = 4
    iterations: int = 2000
    warmup_fraction: float = 0.5
    leapfrog_steps: int = 32
    target_accept: float = 0.8
    step_jitter: float = 0.2

    @classmethod
    def from_mapping(cls, m: Mapping, context: str = "sampler") -> "SamplerSection":
        _check_keys(m, set(cls.__dataclass_fields__), context)
        kwargs: dict[str, Any] = {}
        # a chain needs a warmup and a kept iteration
        for key, minimum in (("chains", 1), ("iterations", 2), ("leapfrog_steps", 1)):
            if key in m:
                kwargs[key] = _as_int(m[key], f"{context}.{key}", minimum=minimum)
        for key in ("warmup_fraction", "target_accept", "step_jitter"):
            if key in m:
                kwargs[key] = _as_float(m[key], f"{context}.{key}")
        for key in ("warmup_fraction", "target_accept"):
            if key in kwargs and not 0.0 < kwargs[key] < 1.0:
                raise ConfigError(f"{context}.{key}: must lie in (0, 1)")
        if "step_jitter" in kwargs and not 0.0 <= kwargs["step_jitter"] < 1.0:
            raise ConfigError(f"{context}.step_jitter: must lie in [0, 1)")
        return cls(**kwargs)


@dataclass(frozen=True)
class QcSection:
    max_missing_days: int = 30
    min_retained_years: int = 73
    drop_flagged: bool = True

    @classmethod
    def from_mapping(cls, m: Mapping, context: str = "qc") -> "QcSection":
        _check_keys(m, set(cls.__dataclass_fields__), context)
        kwargs: dict[str, Any] = {}
        for key in ("max_missing_days", "min_retained_years"):
            if key in m:
                kwargs[key] = _as_int(m[key], f"{context}.{key}", minimum=0)
        if "drop_flagged" in m:
            kwargs["drop_flagged"] = _as_bool(m["drop_flagged"], f"{context}.drop_flagged")
        return cls(**kwargs)


@dataclass(frozen=True)
class PriorSection:
    mode: str = "elicit"
    gamma_intercept_center: float | None = 2.0 / 3.0
    interval_fraction: float = 0.5
    intervals: Mapping[str, tuple[float, float]] | None = None
    explicit: Mapping | None = None

    @classmethod
    def from_mapping(cls, m: Mapping, context: str = "priors") -> "PriorSection":
        _check_keys(m, {"mode", "gamma_intercept_center", "interval_fraction", "intervals", "explicit"}, context)
        mode = _as_str(m.get("mode", "elicit"), f"{context}.mode")
        if mode not in ("elicit", "explicit"):
            raise ConfigError(f"{context}.mode: must be 'elicit' or 'explicit'")
        kwargs: dict[str, Any] = {"mode": mode}
        if "gamma_intercept_center" in m:
            value = m["gamma_intercept_center"]
            kwargs["gamma_intercept_center"] = None if value is None else _as_float(value, f"{context}.gamma_intercept_center")
        if "interval_fraction" in m:
            kwargs["interval_fraction"] = _as_float(m["interval_fraction"], f"{context}.interval_fraction")
        if "intervals" in m:
            raw = m["intervals"]
            if not isinstance(raw, Mapping):
                raise ConfigError(f"{context}.intervals: expected a mapping")
            kwargs["intervals"] = {
                str(k): tuple(_as_float_list(v, f"{context}.intervals.{k}", length=2)) for k, v in raw.items()
            }
        if mode == "explicit":
            if "explicit" not in m:
                raise ConfigError(f"{context}: explicit mode requires an 'explicit' prior mapping")
            kwargs["explicit"] = m["explicit"]
        return cls(**kwargs)


@dataclass(frozen=True)
class FitSection:
    model: str
    events: str
    train_blocks: int
    covariates: str | None = None
    covariate_columns: tuple[str, ...] = ()
    stations: tuple[str, ...] | None = None
    trials_per_block: int = 366
    wet_day_threshold: float = 0.0
    qc: QcSection | None = None
    sampler: SamplerSection = field(default_factory=SamplerSection)
    priors: PriorSection = field(default_factory=PriorSection)

    @classmethod
    def from_mapping(cls, m: Mapping, context: str = "fit") -> "FitSection":
        _check_keys(
            m,
            {"model", "events", "covariates", "covariate_columns", "stations", "train_blocks",
             "trials_per_block", "wet_day_threshold", "qc", "sampler", "priors"},
            context,
        )
        model = _as_str(_need(m, "model", context), f"{context}.model")
        if model not in ("shmev", "hmev", "gev"):
            raise ConfigError(f"{context}.model: must be shmev, hmev, or gev")
        kwargs: dict[str, Any] = {
            "model": model,
            "events": _as_str(_need(m, "events", context), f"{context}.events"),
            "train_blocks": _as_int(_need(m, "train_blocks", context), f"{context}.train_blocks", minimum=1),
        }
        if "covariates" in m:
            kwargs["covariates"] = _as_str(m["covariates"], f"{context}.covariates")
        if "covariate_columns" in m:
            cols = m["covariate_columns"]
            if not isinstance(cols, (list, tuple)) or not all(isinstance(c, str) for c in cols):
                raise ConfigError(f"{context}.covariate_columns: expected a list of strings")
            kwargs["covariate_columns"] = tuple(cols)
        if "stations" in m:
            stations = m["stations"]
            if not isinstance(stations, (list, tuple)) or not stations or not all(isinstance(s, str) for s in stations):
                raise ConfigError(f"{context}.stations: expected a non-empty list of station ids")
            kwargs["stations"] = tuple(stations)
        if "trials_per_block" in m:
            kwargs["trials_per_block"] = _as_int(m["trials_per_block"], f"{context}.trials_per_block", minimum=1)
        if "wet_day_threshold" in m:
            value = _as_float(m["wet_day_threshold"], f"{context}.wet_day_threshold")
            if value < 0.0:
                raise ConfigError(f"{context}.wet_day_threshold: must be >= 0")
            kwargs["wet_day_threshold"] = value
        if "qc" in m:
            kwargs["qc"] = QcSection.from_mapping(m["qc"], f"{context}.qc")
        if "sampler" in m:
            kwargs["sampler"] = SamplerSection.from_mapping(m["sampler"], f"{context}.sampler")
        if "priors" in m:
            kwargs["priors"] = PriorSection.from_mapping(m["priors"], f"{context}.priors")
        section = cls(**kwargs)
        if model == "shmev" and (section.covariates is None or not section.covariate_columns):
            raise ConfigError(f"{context}: shmev requires 'covariates' and 'covariate_columns'")
        return section


def _positive_periods(value, context: str) -> tuple[float, ...]:
    periods = _as_float_list(value, context)
    if not periods or any(t <= 1.0 for t in periods):
        raise ConfigError(f"{context}: return periods must all exceed 1 year")
    return periods


@dataclass(frozen=True)
class PredictSection:
    fit_dir: str
    return_periods: tuple[float, ...] = (10.0, 25.0, 50.0, 100.0)
    blocks_per_draw: int = 100
    stations: tuple[str, ...] | None = None

    @classmethod
    def from_mapping(cls, m: Mapping, context: str = "predict") -> "PredictSection":
        _check_keys(m, {"fit_dir", "return_periods", "blocks_per_draw", "stations"}, context)
        kwargs: dict[str, Any] = {"fit_dir": _as_str(_need(m, "fit_dir", context), f"{context}.fit_dir")}
        if "return_periods" in m:
            kwargs["return_periods"] = _positive_periods(m["return_periods"], f"{context}.return_periods")
        if "blocks_per_draw" in m:
            kwargs["blocks_per_draw"] = _as_int(m["blocks_per_draw"], f"{context}.blocks_per_draw", minimum=1)
        if "stations" in m:
            stations = m["stations"]
            if not isinstance(stations, (list, tuple)) or not all(isinstance(s, str) for s in stations):
                raise ConfigError(f"{context}.stations: expected a list of station ids")
            kwargs["stations"] = tuple(stations)
        return cls(**kwargs)


@dataclass(frozen=True)
class DiagnoseSection:
    fit_dir: str

    @classmethod
    def from_mapping(cls, m: Mapping, context: str = "diagnose") -> "DiagnoseSection":
        _check_keys(m, {"fit_dir"}, context)
        return cls(fit_dir=_as_str(_need(m, "fit_dir", context), f"{context}.fit_dir"))


@dataclass(frozen=True)
class MapSection:
    fit_dir: str
    grid: str
    return_periods: tuple[float, ...] = (25.0, 50.0)
    blocks_per_draw: int = 100

    @classmethod
    def from_mapping(cls, m: Mapping, context: str = "map") -> "MapSection":
        _check_keys(m, {"fit_dir", "grid", "return_periods", "blocks_per_draw"}, context)
        kwargs: dict[str, Any] = {
            "fit_dir": _as_str(_need(m, "fit_dir", context), f"{context}.fit_dir"),
            "grid": _as_str(_need(m, "grid", context), f"{context}.grid"),
        }
        if "return_periods" in m:
            kwargs["return_periods"] = _positive_periods(m["return_periods"], f"{context}.return_periods")
        if "blocks_per_draw" in m:
            kwargs["blocks_per_draw"] = _as_int(m["blocks_per_draw"], f"{context}.blocks_per_draw", minimum=1)
        return cls(**kwargs)


@dataclass(frozen=True)
class EvaluateSection:
    fits: Mapping[str, str]
    test_maxima: str
    threshold_return_time: float = 2.0
    blocks_per_draw: int = 100

    @classmethod
    def from_mapping(cls, m: Mapping, context: str = "evaluate") -> "EvaluateSection":
        _check_keys(m, {"fits", "test_maxima", "threshold_return_time", "blocks_per_draw"}, context)
        fits = _need(m, "fits", context)
        if not isinstance(fits, Mapping) or not fits:
            raise ConfigError(f"{context}.fits: expected a non-empty mapping of label -> fit dir")
        kwargs: dict[str, Any] = {
            "fits": {str(k): _as_str(v, f"{context}.fits.{k}") for k, v in fits.items()},
            "test_maxima": _as_str(_need(m, "test_maxima", context), f"{context}.test_maxima"),
        }
        if "threshold_return_time" in m:
            value = _as_float(m["threshold_return_time"], f"{context}.threshold_return_time")
            if value < 1.0:
                raise ConfigError(f"{context}.threshold_return_time: must be >= 1")
            kwargs["threshold_return_time"] = value
        if "blocks_per_draw" in m:
            kwargs["blocks_per_draw"] = _as_int(m["blocks_per_draw"], f"{context}.blocks_per_draw", minimum=1)
        return cls(**kwargs)


_SECTION_TYPES = {
    "simulate": SimulateSection,
    "fit": FitSection,
    "predict": PredictSection,
    "diagnose": DiagnoseSection,
    "map": MapSection,
    "evaluate": EvaluateSection,
}


def parse_section(raw: dict, command: str):
    if command not in _SECTION_TYPES:
        raise ConfigError(f"unknown command {command!r}")
    if command not in raw:
        raise ConfigError(f"config has no '{command}' section")
    section = raw[command]
    if not isinstance(section, Mapping):
        raise ConfigError(f"'{command}' section must be a mapping")
    return _SECTION_TYPES[command].from_mapping(section, command)
