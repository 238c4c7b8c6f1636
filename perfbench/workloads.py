"""Workload definitions: seeded inputs, run configurations and stage lists.

Every workload starts from the ``simulate`` CLI stage at the workload seed.
The simulator's compact event file is rewritten as a full daily series
(every calendar day, dry days as ``0.0``, a seeded share of missing and
flagged dry days), so ``fit`` parses daily-archive row counts and runs its
QC section.  Missing and flagged values only ever land on dry days, so the
events the model sees are exactly the simulated ones.

A *variant* is one directory holding the run configurations and stage
outputs of one pass; the set-up artifacts live in ``inputs/`` (and, for
``wei-predict``, ``setup_fit/``) next to the variant directories, so every
variant's configurations resolve to the same relative paths and the
manifests of two variants can be compared byte for byte.
"""
from __future__ import annotations

import calendar
import csv
import datetime as dt
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

WORKLOADS = ("wei-fit", "wei-predict", "per-site")

PREDICT_PERIODS = [2.0, 5.0, 10.0, 20.0, 50.0, 100.0]
MAP_PERIODS = [2.0, 10.0, 100.0]
FIRST_YEAR = 2001  # the simulator labels training blocks 2001, 2002, ...

# at most this many missing and flagged dry days per station-year, far
# below the QC budget, so every station keeps all of its training years
_MAX_MISSING_PER_YEAR = 8
_MAX_FLAGGED_PER_YEAR = 4
_QC_MAX_MISSING_DAYS = 30


CHAINS = 2
THREADS = 2
TRIALS_PER_BLOCK = 366
SETUP_REPEATS = 3
# the wei-predict set-up fit only has to produce draws for the timed
# predictive stages, so it runs a short trajectory to keep set-up cheap
SETUP_FIT_LEAPFROG = 8


@dataclass(frozen=True)
class Scale:
    sites: int
    train_blocks: int
    test_blocks: int
    leapfrog_steps: int
    fit_iterations: int          # wei-fit: shmev fit
    predict_fit_iterations: int  # wei-predict: set-up shmev fit
    blocks_per_draw: int         # wei-predict: M
    map_axis_points: int         # wei-predict: grid is axis x axis
    site_stations: int           # per-site: stations fitted
    site_iterations: int         # per-site: hmev and gev fits


SCALES = {
    # the paper's WEI study shape: S=27, J=20, 1091 unconstrained dims.
    # Iterations, draws and station counts are sized so that one pass takes
    # 9-14 s on a 2-core machine and two or three passes fit a 30 s run;
    # 80 per-site iterations give the 40 warmup draws the sampler needs
    # before it adapts its mass matrix.
    "wei": Scale(
        sites=27,
        train_blocks=20,
        test_blocks=100,
        leapfrog_steps=32,
        fit_iterations=100,
        predict_fit_iterations=40,
        blocks_per_draw=40,
        map_axis_points=4,
        site_stations=4,
        site_iterations=80,
    ),
    # seconds per run, for the benchmark's own tests
    "smoke": Scale(
        sites=4,
        train_blocks=5,
        test_blocks=20,
        leapfrog_steps=8,
        fit_iterations=20,
        predict_fit_iterations=20,
        blocks_per_draw=10,
        map_axis_points=2,
        site_stations=2,
        site_iterations=12,
    ),
}


@dataclass(frozen=True)
class Stage:
    """One CLI invocation: ``shmev <command> --config <config> --out <out>``."""

    name: str     # metric stem, e.g. fit_shmev -> fit_shmev_s
    command: str
    config: str   # file name inside the variant directory
    out: str      # output directory name inside the variant directory
    model: str | None = None


def shmev_dim(scale: Scale) -> int:
    """Unconstrained dimension of the spatial model with two covariates."""
    return 3 * 3 + 2 + 2 * scale.sites * scale.train_blocks


def hmev_dim(scale: Scale) -> int:
    return 5 + 2 * scale.train_blocks


def kept_draws(iterations: int) -> int:
    """Post-warmup draws over all chains at the CLI's default warmup fraction 0.5."""
    return CHAINS * (iterations - iterations // 2)


def station_ids(scale: Scale) -> list[str]:
    return [f"S{i + 1:02d}" for i in range(scale.sites)]


def site_stations(scale: Scale) -> list[str]:
    return station_ids(scale)[: scale.site_stations]


# ---------------------------------------------------------------------------
# Configurations
# ---------------------------------------------------------------------------

def _simulate_section(scale: Scale) -> dict:
    return {
        "scenario": "WEI",
        "sites": scale.sites,
        "train_blocks": scale.train_blocks,
        "test_blocks": scale.test_blocks,
        "trials_per_block": TRIALS_PER_BLOCK,
    }


def _fit_section(scale: Scale, model: str, iterations: int, stations=None, leapfrog=None) -> dict:
    section = {
        "model": model,
        "events": "../inputs/daily.csv",
        "train_blocks": scale.train_blocks,
        "trials_per_block": TRIALS_PER_BLOCK,
        "qc": {
            "max_missing_days": _QC_MAX_MISSING_DAYS,
            "min_retained_years": scale.train_blocks - 1,
            "drop_flagged": True,
        },
        "sampler": {
            "chains": CHAINS,
            "iterations": iterations,
            "leapfrog_steps": leapfrog or scale.leapfrog_steps,
        },
    }
    if model == "shmev":
        section["covariates"] = "../inputs/covariates.csv"
        section["covariate_columns"] = ["z1", "z2"]
    if stations is not None:
        section["stations"] = list(stations)
    return section


def _write_config(path: Path, seed: int, sections: dict) -> None:
    # JSON is valid YAML, so the CLI's YAML loader reads these directly
    path.write_text(json.dumps({"schema_version": 1, "seed": seed, **sections}, indent=1) + "\n")


def write_configs(workload: str, scale: Scale, seed: int, variant: Path) -> list[Stage]:
    """Write the variant's configurations; return its timed stages in order."""
    variant.mkdir(parents=True, exist_ok=True)
    simulate = {"simulate": _simulate_section(scale)}
    _write_config(variant / "simulate.yaml", seed, simulate)
    if workload == "wei-fit":
        _write_config(variant / "study.yaml", seed, {
            **simulate,
            "fit": _fit_section(scale, "shmev", scale.fit_iterations),
            "diagnose": {"fit_dir": "fit"},
        })
        return [
            Stage("fit_shmev", "fit", "study.yaml", "fit", model="shmev"),
            Stage("diagnose", "diagnose", "study.yaml", "diagnose"),
        ]
    if workload == "wei-predict":
        m = scale.blocks_per_draw
        _write_config(variant / "study.yaml", seed, {
            **simulate,
            "fit": _fit_section(scale, "shmev", scale.predict_fit_iterations,
                                leapfrog=SETUP_FIT_LEAPFROG),
            "predict": {"fit_dir": "../setup_fit", "return_periods": PREDICT_PERIODS, "blocks_per_draw": m},
            "map": {"fit_dir": "../setup_fit", "grid": "../inputs/grid.csv",
                    "return_periods": MAP_PERIODS, "blocks_per_draw": m},
            "evaluate": {"fits": {"shmev": "../setup_fit"}, "test_maxima": "../inputs/test_maxima.csv",
                         "threshold_return_time": 2.0, "blocks_per_draw": m},
        })
        return [
            Stage("predict", "predict", "study.yaml", "predict"),
            Stage("map", "map", "study.yaml", "map"),
            Stage("evaluate", "evaluate", "study.yaml", "evaluate"),
        ]
    if workload == "per-site":
        stations = site_stations(scale)
        for model in ("hmev", "gev"):
            _write_config(variant / f"fit_{model}.yaml", seed, {
                **simulate,
                "fit": _fit_section(scale, model, scale.site_iterations, stations),
            })
        return [
            Stage("fit_hmev", "fit", "fit_hmev.yaml", "fit_hmev", model="hmev"),
            Stage("fit_gev", "fit", "fit_gev.yaml", "fit_gev", model="gev"),
        ]
    raise ValueError(f"unknown workload {workload!r}")


def setup_stages(workload: str) -> list[Stage]:
    """CLI stages of the set-up, run from the ``setup`` variant."""
    stages = [Stage("simulate", "simulate", "simulate.yaml", "../inputs")]
    if workload == "wei-predict":
        stages.append(Stage("setup_fit", "fit", "study.yaml", "../setup_fit", model="shmev"))
    return stages


# ---------------------------------------------------------------------------
# Derived inputs
# ---------------------------------------------------------------------------

def write_daily_series(compact: Path, out: Path, n_years: int, seed: int) -> int:
    """Rewrite the simulator's event file as a full daily series.

    Each station-year keeps its simulated magnitudes, in order, on seeded
    distinct days; every other day is dry (``0.0``), and a seeded handful
    of dry days is written missing (empty value) or flagged.  Returns the
    number of data rows written.
    """
    per_year: dict[str, dict[int, list[str]]] = {}
    with open(compact, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        next(reader)
        for station, date, value, _flag in reader:
            per_year.setdefault(station, {}).setdefault(int(date[:4]), []).append(value)
    rng = np.random.default_rng(np.random.SeedSequence([seed, 7]))
    years = range(FIRST_YEAR, FIRST_YEAR + n_years)
    iso = {y: [(dt.date(y, 1, 1) + dt.timedelta(days=d)).isoformat() for d in range(366)] for y in years}
    rows = 0
    with open(out, "w", encoding="utf-8", newline="") as fh:
        fh.write("station,date,prcp_mm,qflag\n")
        for station in sorted(per_year):
            for year in years:
                values = per_year[station].get(year, [])
                n_days = 366 if calendar.isleap(year) else 365
                cells = ["0.0,"] * n_days
                wet = np.sort(rng.choice(n_days, size=len(values), replace=False))
                for day, value in zip(wet, values):
                    cells[day] = value + ","
                dry = np.setdiff1d(np.arange(n_days), wet)
                n_missing = int(rng.integers(0, _MAX_MISSING_PER_YEAR + 1))
                n_flagged = int(rng.integers(0, _MAX_FLAGGED_PER_YEAR + 1))
                marked = rng.choice(dry, size=n_missing + n_flagged, replace=False)
                for day in marked[:n_missing]:
                    cells[day] = ","
                for day in marked[n_missing:]:
                    cells[day] = "0.0,Q"
                dates = iso[year]
                fh.writelines(f"{station},{dates[d]},{cells[d]}\n" for d in range(n_days))
                rows += n_days
    return rows


def write_grid(covariates: Path, out: Path, axis_points: int) -> int:
    """Regular grid over the box spanned by the training covariates."""
    with open(covariates, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        values = np.array([[float(v) for v in row[1:]] for row in reader if row])
    axes = [np.linspace(values[:, k].min(), values[:, k].max(), axis_points) for k in range(values.shape[1])]
    points = np.stack([a.ravel() for a in np.meshgrid(*axes, indexing="ij")], axis=1)
    lines = [",".join(header[1:])] + [",".join(repr(float(v)) for v in p) for p in points]
    out.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return points.shape[0]
