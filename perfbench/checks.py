"""Output checks for each CLI stage.  A stage whose check reports a problem
counts as failed, exactly like a non-zero exit."""
from __future__ import annotations

import csv
import hashlib
import json
import math
from pathlib import Path

import numpy as np

from workloads import (
    MAP_PERIODS,
    PREDICT_PERIODS,
    Scale,
    Stage,
    hmev_dim,
    kept_draws,
    shmev_dim,
    site_stations,
    station_ids,
)

# the spatial fit's median FSE (fractional squared error) against the
# held-out maxima must stay below this; it only catches gross breakage
FSE_MEDIAN_BOUND = 1.0


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def manifest_hashes(out: Path) -> dict[str, str]:
    manifest = json.loads((out / "manifest.json").read_text())
    return {a["path"]: a["sha256"] for a in manifest["artifacts"]}


def _manifest_problems(out: Path) -> list[str]:
    if not (out / "manifest.json").exists():
        return [f"{out.name}: no manifest.json"]
    problems = []
    for rel, digest in manifest_hashes(out).items():
        path = out / rel
        if not path.exists():
            problems.append(f"{out.name}/{rel}: listed in the manifest but missing")
        elif _sha256(path) != digest:
            problems.append(f"{out.name}/{rel}: hash differs from the manifest")
    return problems


def _read_rows(path: Path) -> list[dict[str, str]]:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def _finite(values) -> bool:
    return all(math.isfinite(float(v)) for v in values)


def _draw_problems(path: Path, n_draws: int, dim: int) -> list[str]:
    draws = np.load(path)
    if draws.shape != (n_draws, dim):
        return [f"{path.name}: shape {draws.shape}, expected {(n_draws, dim)}"]
    if not np.all(np.isfinite(draws)):
        return [f"{path}: non-finite draws"]
    return []


def _return_level_problems(rows, key: str, n_keys: int, periods) -> list[str]:
    """Rows per key, finite values, ordered band and monotone in T."""
    by_key: dict[str, list[dict]] = {}
    for row in rows:
        by_key.setdefault(row[key], []).append(row)
    problems = []
    if len(by_key) != n_keys or any(len(v) != len(periods) for v in by_key.values()):
        problems.append(f"expected {n_keys} x {len(periods)} rows, got {len(rows)}")
    for name, group in by_key.items():
        group.sort(key=lambda r: float(r["T"]))
        cols = {c: [float(r[c]) for r in group] for c in ("rl_q05", "rl_mean", "rl_q95")}
        if not all(_finite(v) for v in cols.values()):
            problems.append(f"{name}: non-finite return level")
            continue
        if any(not lo <= mid <= hi for lo, mid, hi in zip(cols["rl_q05"], cols["rl_mean"], cols["rl_q95"])):
            problems.append(f"{name}: rl_q05 <= rl_mean <= rl_q95 violated")
        if any(np.any(np.diff(v) < 0.0) for v in cols.values()):
            problems.append(f"{name}: return levels decrease in T")
    return problems


def _fit_problems(out: Path, scale: Scale, model: str, iterations: int) -> list[str]:
    n_draws = kept_draws(iterations)
    if model == "shmev":
        return _draw_problems(out / "draws.npy", n_draws, shmev_dim(scale))
    dim = hmev_dim(scale) if model == "hmev" else 3
    problems = []
    for station in site_stations(scale):
        problems += _draw_problems(out / "sites" / station / "draws.npy", n_draws, dim)
    return problems


def check_stage(stage: Stage, out: Path, scale: Scale, workload: str) -> list[str]:
    """Problems found in one stage's outputs (empty when all is well)."""
    problems = _manifest_problems(out)
    if problems:
        return problems
    if stage.command == "simulate":
        n = len(_read_rows(out / "covariates.csv"))
        if n != scale.sites:
            problems.append(f"covariates.csv: {n} stations, expected {scale.sites}")
    elif stage.command == "fit":
        iterations = {
            "wei-fit": scale.fit_iterations,
            "wei-predict": scale.predict_fit_iterations,
            "per-site": scale.site_iterations,
        }[workload]
        problems += _fit_problems(out, scale, stage.model, iterations)
    elif stage.command == "diagnose":
        rows = _read_rows(out / "diagnostics.csv")
        if len(rows) != shmev_dim(scale) or not _finite(r["rhat"] for r in rows):
            problems.append("diagnostics.csv: wrong row count or non-finite R-hat")
        expected = 1 + kept_draws(scale.fit_iterations) * shmev_dim(scale)
        with open(out / "trace.csv", "rb") as fh:
            n_lines = sum(1 for _ in fh)
        if n_lines != expected:
            problems.append(f"trace.csv: {n_lines} lines, expected {expected}")
    elif stage.command == "predict":
        problems += _return_level_problems(
            _read_rows(out / "predictions.csv"), "station", scale.sites, PREDICT_PERIODS
        )
    elif stage.command == "map":
        rows = _read_rows(out / "return_levels.csv")
        for row in rows:
            row["point"] = f"{row['z1']},{row['z2']}"
        problems += _return_level_problems(rows, "point", scale.map_axis_points ** 2, MAP_PERIODS)
    elif stage.command == "evaluate":
        rows = _read_rows(out / "evaluation.csv")
        sites = [r for r in rows if r["site"] != "median"]
        if sorted(r["site"] for r in sites) != station_ids(scale):
            problems.append("evaluation.csv: not one row per station")
        if not all(_finite((r["fse"], r["bias"], r["width"])) for r in sites):
            problems.append("evaluation.csv: non-finite site metric")
        medians = [float(r["fse"]) for r in rows if r["site"] == "median" and r["model"] == "shmev"]
        if len(medians) != 1 or not medians[0] < FSE_MEDIAN_BOUND:
            problems.append(f"evaluation.csv: median FSE {medians} not below {FSE_MEDIAN_BOUND}")
    return problems
