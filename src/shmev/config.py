"""Declarative run configuration: YAML with strict, schema-versioned sections.

Unknown keys are rejected and every value is type-checked before any work
starts.  A file may carry several command sections (a whole study); each
command validates and consumes only its own section plus the globals.  The
``simulate`` section and the ``fit`` section's ``sampler``, ``qc`` and
``priors`` parse straight into the library's own configs (``ScenarioConfig``,
``SamplerConfig``, ``QcPolicy``, and ``ElicitationRules`` or an explicit
``ShmevPriorSpec``), so a key left out takes that config's default.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Mapping

import yaml

from .errors import ConfigError
from .hmc import SamplerConfig
from .ingest import ElicitationRules, QcPolicy
from .model import ShmevPriorSpec
from .simulate import SCENARIOS, ScenarioConfig

CONFIG_SCHEMA_VERSION = 1

_GLOBAL_KEYS = {"schema_version", "seed", "out_dir", "threads",
                "simulate", "fit", "predict", "diagnose", "map", "evaluate"}


def _check_keys(mapping: Mapping, allowed: set[str], context: str) -> None:
    unknown = set(mapping) - allowed
    if unknown:
        raise ConfigError(f"{context}: unknown keys {sorted(unknown, key=str)}")


def _need(mapping: Mapping, key: str, context: str):
    if key not in mapping:
        raise ConfigError(f"{context}: missing required key '{key}'")
    return mapping[key]


def _as_mapping(value, context: str) -> Mapping:
    if not isinstance(value, Mapping):
        raise ConfigError(f"{context}: expected a mapping, got {value!r}")
    return value


def _as_int(value, context: str, minimum: int | None = None) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{context}: expected an integer, got {value!r}")
    if minimum is not None and value < minimum:
        raise ConfigError(f"{context}: must be >= {minimum}, got {value}")
    return value


def _as_float(value, context: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{context}: expected a number, got {value!r}")
    if not math.isfinite(value):
        raise ConfigError(f"{context}: must be finite, got {value}")
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


# ---------------------------------------------------------------------------
# Library configs built from sections
# ---------------------------------------------------------------------------

# each section key's parser takes the value and its key path, checks the
# value and returns what the library config's field gets
def _count(minimum: int):
    return lambda value, context: _as_int(value, context, minimum)


def _checked(parse, rule: str, holds):
    """``parse``, then a ``ConfigError`` saying ``rule`` unless ``holds``."""
    def check(value, context: str):
        out = parse(value, context)
        if not holds(out):
            raise ConfigError(f"{context}: {rule}")
        return out

    return check


def _intervals(value, context: str) -> dict[str, tuple[float, float]]:
    out = {}
    for name, bounds in _as_mapping(value, context).items():
        lo, hi = _as_float_list(bounds, f"{context}.{name}", length=2)
        if not lo < hi:
            raise ConfigError(f"{context}.{name}: must satisfy lo < hi, got [{lo}, {hi}]")
        out[str(name)] = (lo, hi)
    return out


_NON_NEGATIVE = _checked(_as_float, "must be >= 0", lambda x: x >= 0.0)
_FRACTION = _checked(_as_float, "must lie in (0, 1)", lambda x: 0.0 < x < 1.0)

_SCENARIO_KEYS = {
    "scenario": _checked(_as_str, "must be WEI, WEI_gp, or GM", lambda s: s in SCENARIOS),
    **dict.fromkeys(("sites", "train_blocks", "test_blocks", "trials_per_block"), _count(1)),
    **dict.fromkeys(("shape_trend", "scale_trend", "count_trend"), lambda v, c: _as_float_list(v, c, length=3)),
    **dict.fromkeys(("shape_spread", "scale_spread", "gp_variance", "gp_range"), _NON_NEGATIVE),
}
_SAMPLER_KEYS = {
    # a chain needs a warmup and a kept iteration
    "chains": _count(1),
    "iterations": _count(2),
    "leapfrog_steps": _count(1),
    "warmup_fraction": _FRACTION,
    "target_accept": _FRACTION,
    "step_jitter": _checked(_as_float, "must lie in [0, 1)", lambda x: 0.0 <= x < 1.0),
}
_MODEL = _checked(_as_str, "must be shmev, hmev, or gev", lambda s: s in ("shmev", "hmev", "gev"))
_MODE = _checked(_as_str, "must be 'elicit' or 'explicit'", lambda s: s in ("elicit", "explicit"))
_QC_KEYS = {"max_missing_days": _count(0), "min_retained_years": _count(0), "drop_flagged": _as_bool}
_ELICITATION_KEYS = {
    "gamma_intercept_center": lambda v, c: None if v is None else _as_float(v, c),
    "interval_fraction": _checked(_as_float, "must be > 0", lambda x: x > 0.0),
    "intervals": _intervals,
}

# the YAML keys whose library field has another name
_FIELD_NAMES = {"sites": "n_sites", "chains": "n_chains", "iterations": "n_iterations"}

# input without a qc section is taken as pre-cleaned (e.g. simulator
# output): no year or station is filtered out
_PRE_CLEANED = QcPolicy(max_missing_days=366, min_retained_years=0)


def _construct(factory, context: str, *args, **kwargs):
    """``factory(*args, **kwargs)``, with the ``ValueError`` a library config
    raises on the values reported as a ``ConfigError`` naming ``context``."""
    try:
        return factory(*args, **kwargs)
    except ValueError as exc:
        raise ConfigError(f"{context}: {exc}") from exc


def _build(cls, section, context: str, keys: Mapping, **fixed):
    """``cls`` built from ``section``, each key checked by its parser in
    ``keys``; a field the section leaves out keeps its default."""
    section = _as_mapping(section, context)
    _check_keys(section, set(keys), context)
    kwargs = {_FIELD_NAMES.get(k, k): keys[k](v, f"{context}.{k}") for k, v in section.items()}
    return _construct(cls, context, **kwargs, **fixed)


def _explicit_prior(value, context: str, n_coefficients: int) -> ShmevPriorSpec:
    """A shmev prior given in full, in the form ``model.json`` stores it:
    ``n_coefficients`` normal priors (``mean``, ``sd``) for each coefficient
    vector and an inverse-gamma prior (``shape``, ``scale``) for each latent
    Gumbel scale."""
    spec = _as_mapping(value, context)
    _check_keys(spec, {"beta_gamma", "beta_delta", "beta_lambda", "sigma_gamma", "sigma_delta"}, context)

    def params(prior, where: str, names: tuple[str, str]) -> dict[str, float]:
        prior = _as_mapping(prior, where)
        _check_keys(prior, set(names), where)
        return {name: _as_float(_need(prior, name, where), f"{where}.{name}") for name in names}

    out: dict[str, Any] = {}
    for key in ("beta_gamma", "beta_delta", "beta_lambda"):
        priors = _need(spec, key, context)
        if not isinstance(priors, (list, tuple)) or len(priors) != n_coefficients:
            raise ConfigError(
                f"{context}.{key}: expected a list of {n_coefficients} priors, "
                "one per covariate column plus the intercept"
            )
        out[key] = [params(q, f"{context}.{key}[{i}]", ("mean", "sd")) for i, q in enumerate(priors)]
    for key in ("sigma_gamma", "sigma_delta"):
        out[key] = params(_need(spec, key, context), f"{context}.{key}", ("shape", "scale"))
    return _construct(ShmevPriorSpec.from_dict, context, out)


def _priors(value, context: str, model: str, n_coefficients: int) -> ElicitationRules | ShmevPriorSpec:
    section = _as_mapping(value, context)
    _check_keys(section, {"mode", "explicit", *_ELICITATION_KEYS}, context)
    mode = _MODE(section.get("mode", "elicit"), f"{context}.mode")
    rules = _build(
        ElicitationRules, {k: v for k, v in section.items() if k in _ELICITATION_KEYS}, context, _ELICITATION_KEYS
    )
    if mode == "elicit":
        return rules
    if model != "shmev":
        raise ConfigError(f"{context}.mode: explicit priors apply to the shmev model only, not {model}")
    return _explicit_prior(_need(section, "explicit", context), f"{context}.explicit", n_coefficients)


@dataclass(frozen=True)
class FitSection:
    model: str
    events: str
    train_blocks: int
    qc: QcPolicy
    sampler: SamplerConfig
    # the rules a prior is elicited by, or a shmev prior given in full
    priors: ElicitationRules | ShmevPriorSpec
    covariates: str | None = None
    covariate_columns: tuple[str, ...] = ()
    stations: tuple[str, ...] | None = None
    trials_per_block: int = 366
    wet_day_threshold: float = 0.0

    @classmethod
    def from_mapping(cls, m: Mapping, seed: int, context: str = "fit") -> "FitSection":
        _check_keys(
            m,
            {"model", "events", "covariates", "covariate_columns", "stations", "train_blocks",
             "trials_per_block", "wet_day_threshold", "qc", "sampler", "priors"},
            context,
        )
        model = _MODEL(_need(m, "model", context), f"{context}.model")
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
        if model == "shmev" and ("covariates" not in kwargs or not kwargs.get("covariate_columns")):
            raise ConfigError(f"{context}: shmev requires 'covariates' and 'covariate_columns'")
        if "stations" in m:
            stations = m["stations"]
            if not isinstance(stations, (list, tuple)) or not stations or not all(isinstance(s, str) for s in stations):
                raise ConfigError(f"{context}.stations: expected a non-empty list of station ids")
            kwargs["stations"] = tuple(stations)
        if "trials_per_block" in m:
            kwargs["trials_per_block"] = _as_int(m["trials_per_block"], f"{context}.trials_per_block", minimum=1)
        if "wet_day_threshold" in m:
            kwargs["wet_day_threshold"] = _NON_NEGATIVE(m["wet_day_threshold"], f"{context}.wet_day_threshold")
        kwargs["qc"] = _build(QcPolicy, m["qc"], f"{context}.qc", _QC_KEYS) if "qc" in m else _PRE_CLEANED
        kwargs["sampler"] = _build(SamplerConfig, m.get("sampler", {}), f"{context}.sampler", _SAMPLER_KEYS, seed=seed)
        kwargs["priors"] = _priors(
            m.get("priors", {}), f"{context}.priors", model, len(kwargs.get("covariate_columns", ())) + 1
        )
        return cls(**kwargs)


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
    "predict": PredictSection,
    "diagnose": DiagnoseSection,
    "map": MapSection,
    "evaluate": EvaluateSection,
}


def parse_section(raw: dict, command: str):
    """The checked config of ``command``'s section of ``raw``; the simulate
    and fit configs carry ``raw["seed"]``."""
    if command not in ("simulate", "fit", *_SECTION_TYPES):
        raise ConfigError(f"unknown command {command!r}")
    if command not in raw:
        raise ConfigError(f"config has no '{command}' section")
    section = raw[command]
    if not isinstance(section, Mapping):
        raise ConfigError(f"'{command}' section must be a mapping")
    if command == "simulate":
        return _build(ScenarioConfig, section, command, _SCENARIO_KEYS, seed=raw["seed"])
    if command == "fit":
        return FitSection.from_mapping(section, raw["seed"], command)
    return _SECTION_TYPES[command].from_mapping(section, command)
