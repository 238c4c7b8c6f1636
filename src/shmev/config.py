"""Declarative run configuration: YAML with strict, schema-versioned sections.

Unknown keys are rejected and every value is type-checked before any work
starts.  A file may carry several command sections (a whole study); each
command validates and consumes only its own section plus the globals.
Every section is parsed by one builder from a key table, which maps each
YAML key to the parser of its value, straight into the config the section
sets: ``ScenarioConfig`` for ``simulate``, ``SamplerConfig``, ``QcPolicy``
and ``ElicitationRules`` (or an explicit ``ShmevPriorSpec``) for the ``fit``
section's subsections, and the section classes below.  A key left out takes
that class's default; a field without a default is a required key.
"""
from __future__ import annotations

import math
from dataclasses import MISSING, dataclass, fields
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


def _values(cls, section, context: str, keys: Mapping, given=()) -> dict[str, Any]:
    """The fields of ``cls`` that ``section`` sets, each key checked by its
    parser in ``keys``.  A field without a default is a required key unless
    it is ``given`` apart from the section."""
    section = _as_mapping(section, context)
    _check_keys(section, set(keys), context)
    key_of = {_FIELD_NAMES.get(k, k): k for k in keys}
    for f in fields(cls):
        if f.default is MISSING and f.default_factory is MISSING and f.name not in given:
            _need(section, key_of[f.name], context)
    return {_FIELD_NAMES.get(k, k): keys[k](v, f"{context}.{k}") for k, v in section.items()}


def _build(cls, section, context: str, keys: Mapping, **fixed):
    """``cls`` built from ``section`` and ``fixed``; a field the section
    leaves out keeps its default."""
    return _construct(cls, context, **_values(cls, section, context, keys, fixed), **fixed)


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


def _strings(what: str, min_items: int = 0):
    """A parser of a list of at least ``min_items`` strings, which names
    anything else ``what`` it expected."""
    def parse(value, context: str) -> tuple[str, ...]:
        if not isinstance(value, (list, tuple)) or len(value) < min_items or not all(isinstance(s, str) for s in value):
            raise ConfigError(f"{context}: expected {what}")
        return tuple(value)

    return parse


def _station_ids(value, context: str) -> tuple[str, ...]:
    """A non-empty list of station ids, none of them repeated."""
    ids = _strings("a non-empty list of station ids", min_items=1)(value, context)
    repeated = [s for k, s in enumerate(ids) if s in ids[:k]]
    if repeated:
        raise ConfigError(f"{context}: repeated station {repeated[0]!r}")
    return ids


def _fit_dirs(value, context: str) -> dict[str, str]:
    if not isinstance(value, Mapping) or not value:
        raise ConfigError(f"{context}: expected a non-empty mapping of label -> fit dir")
    return {str(k): _as_str(v, f"{context}.{k}") for k, v in value.items()}


_PERIODS = _checked(_as_float_list, "return periods must all exceed 1 year", lambda p: bool(p) and min(p) > 1.0)


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


@dataclass(frozen=True)
class PredictSection:
    fit_dir: str
    return_periods: tuple[float, ...] = (10.0, 25.0, 50.0, 100.0)
    blocks_per_draw: int = 100
    stations: tuple[str, ...] | None = None


@dataclass(frozen=True)
class DiagnoseSection:
    fit_dir: str


@dataclass(frozen=True)
class MapSection:
    fit_dir: str
    grid: str
    return_periods: tuple[float, ...] = (25.0, 50.0)
    blocks_per_draw: int = 100


@dataclass(frozen=True)
class EvaluateSection:
    fits: Mapping[str, str]
    test_maxima: str
    threshold_return_time: float = 2.0
    blocks_per_draw: int = 100


# the fit section's keys besides its qc, sampler and priors subsections
_FIT_KEYS = {
    "model": _MODEL,
    "events": _as_str,
    "covariates": _as_str,
    "covariate_columns": _strings("a list of strings"),
    "stations": _station_ids,
    "train_blocks": _count(1),
    "trials_per_block": _count(1),
    "wet_day_threshold": _NON_NEGATIVE,
}
_FIT_SUBSECTIONS = ("qc", "sampler", "priors")

# each command's section: the config it builds and the parser of each key
_SECTIONS = {
    "simulate": (ScenarioConfig, _SCENARIO_KEYS),
    "fit": (FitSection, _FIT_KEYS),
    "predict": (PredictSection, {
        "fit_dir": _as_str,
        "return_periods": _PERIODS,
        "blocks_per_draw": _count(1),
        "stations": _strings("a list of station ids"),
    }),
    "diagnose": (DiagnoseSection, {"fit_dir": _as_str}),
    "map": (MapSection, {
        "fit_dir": _as_str,
        "grid": _as_str,
        "return_periods": _PERIODS,
        "blocks_per_draw": _count(1),
    }),
    "evaluate": (EvaluateSection, {
        "fits": _fit_dirs,
        "test_maxima": _as_str,
        "threshold_return_time": _checked(_as_float, "must be >= 1", lambda x: x >= 1.0),
        "blocks_per_draw": _count(1),
    }),
}


def _fit(section: Mapping, seed: int, context: str = "fit") -> FitSection:
    """The fit section: its keys by ``_FIT_KEYS``, then the rules that
    depend on other keys.  Without a qc section the input is taken as
    pre-cleaned, the sampler draws from ``seed``, shmev needs covariates,
    and the priors depend on the model and the covariate count."""
    scalars = {k: v for k, v in section.items() if k not in _FIT_SUBSECTIONS}
    kwargs = _values(FitSection, scalars, context, _FIT_KEYS, given=_FIT_SUBSECTIONS)
    columns = kwargs.get("covariate_columns", ())
    if kwargs["model"] == "shmev" and ("covariates" not in kwargs or not columns):
        raise ConfigError(f"{context}: shmev requires 'covariates' and 'covariate_columns'")
    return FitSection(
        **kwargs,
        qc=_build(QcPolicy, section["qc"], f"{context}.qc", _QC_KEYS) if "qc" in section else _PRE_CLEANED,
        sampler=_build(SamplerConfig, section.get("sampler", {}), f"{context}.sampler", _SAMPLER_KEYS, seed=seed),
        priors=_priors(section.get("priors", {}), f"{context}.priors", kwargs["model"], len(columns) + 1),
    )


def parse_section(raw: dict, command: str):
    """The checked config of ``command``'s section of ``raw``; the simulate
    and fit configs carry ``raw["seed"]``."""
    if command not in _SECTIONS:
        raise ConfigError(f"unknown command {command!r}")
    if command not in raw:
        raise ConfigError(f"config has no '{command}' section")
    section = raw[command]
    if not isinstance(section, Mapping):
        raise ConfigError(f"'{command}' section must be a mapping")
    if command == "fit":
        return _fit(section, raw["seed"])
    cls, keys = _SECTIONS[command]
    seed = {"seed": raw["seed"]} if command == "simulate" else {}
    return _build(cls, section, command, keys, **seed)
