import copy
import math
from dataclasses import fields
from pathlib import Path

import pytest

from shmev import config
from shmev.config import FitSection, load_config, parse_section
from shmev.errors import ConfigError
from shmev.hmc import SamplerConfig
from shmev.ingest import ElicitationRules, QcPolicy
from shmev.simulate import ScenarioConfig

CONFIGS = Path(__file__).resolve().parents[1] / "configs"
COMMANDS = ("simulate", "fit", "diagnose", "predict", "map", "evaluate")


@pytest.mark.parametrize("name", ["wei_study.yaml", "nc_study.yaml"])
def test_shipped_configs_parse(name):
    raw = load_config(CONFIGS / name)
    sections = [command for command in COMMANDS if command in raw]
    assert sections
    for command in sections:
        parse_section(raw, command)


def test_shipped_sections_become_the_library_configs():
    wei = load_config(CONFIGS / "wei_study.yaml")
    assert parse_section(wei, "simulate") == ScenarioConfig(seed=20240601)
    fit = parse_section(wei, "fit")
    assert fit.sampler == SamplerConfig(seed=20240601)
    # no qc section: the input is taken as pre-cleaned
    assert fit.qc == QcPolicy(max_missing_days=366, min_retained_years=0)
    assert fit.priors == ElicitationRules()

    nc = parse_section(load_config(CONFIGS / "nc_study.yaml"), "fit")
    assert isinstance(nc, FitSection)
    assert nc.qc == QcPolicy()
    assert nc.sampler == SamplerConfig(seed=1870)
    assert nc.priors == ElicitationRules(gamma_intercept_center=0.6667)


def test_every_field_is_set_by_exactly_one_key():
    """Each field of a config that a section builds is set by one YAML key
    and by no other; only the seed comes from outside the section."""
    tables = [
        *config._SECTIONS.values(),
        (SamplerConfig, config._SAMPLER_KEYS),
        (QcPolicy, config._QC_KEYS),
        (ElicitationRules, config._ELICITATION_KEYS),
    ]
    for cls, keys in tables:
        set_by = [config._FIELD_NAMES.get(key, key) for key in keys]
        if cls is FitSection:
            set_by += config._FIT_SUBSECTIONS
        assert sorted(set_by) == sorted(f.name for f in fields(cls) if f.name != "seed"), cls.__name__


def _paths(node, path=()):
    """The key path of every mapping value and list item under ``node``."""
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, value in items:
        yield path + (key,)
        yield from _paths(value, path + (key,))


BAD_VALUES = [None, "x", True, -1, 0, 1.5, math.nan, [1], {"a": 1}]


@pytest.mark.parametrize("name", ["wei_study.yaml", "nc_study.yaml", "explicit"])
def test_every_bad_value_is_config_error(name):
    """Any key of a shipped config set to a value of the wrong type or range
    either parses or raises a ``ConfigError``, never another exception."""
    if name == "explicit":
        raw = load_config(CONFIGS / "nc_study.yaml")
        normals = {key: [{"mean": 0.0, "sd": 1.0} for _ in range(5)] for key in ("beta_gamma", "beta_delta", "beta_lambda")}
        raw["fit"]["priors"] = {
            "mode": "explicit",
            "explicit": {
                **normals,
                "sigma_gamma": {"shape": 3.0, "scale": 0.1},
                "sigma_delta": {"shape": 3.0, "scale": 1.0},
            },
        }
    else:
        raw = load_config(CONFIGS / name)
    for command in (c for c in COMMANDS if c in raw):
        for path in _paths(raw[command]):
            for value in BAD_VALUES:
                body = copy.deepcopy(raw)
                node = body[command]
                for key in path[:-1]:
                    node = node[key]
                node[path[-1]] = value
                try:
                    parse_section(body, command)
                except ConfigError:
                    pass
