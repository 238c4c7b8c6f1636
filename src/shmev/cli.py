"""Command-line entry point: simulate / fit / diagnose / predict / map / evaluate.

Every command reads a declarative YAML config, writes its artifacts under a
single output directory, and records a manifest (seed, resolved config,
content hashes) from which the run is reproducible.  Failures remove any
partial outputs, emit a machine-readable error report on stderr, and exit
with 2 (config), 3 (data), or 4 (numeric/convergence).
"""
from __future__ import annotations

import argparse
import csv
import hashlib
import json
import os
import sys
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from . import __version__
from .config import (
    EvaluateSection,
    FitSection,
    MapSection,
    PredictSection,
    SimulateSection,
    load_config,
    parse_section,
)
from .data import StandardizationSnapshot
from .errors import ConfigError, ConvergenceError, DataError, NumericError, ShmevError
from .hmc import PosteriorDraws, SamplerConfig, rhat_ess, run_hmc, trace_export
from .ingest import (
    ElicitationRules,
    QcPolicy,
    build_dataset,
    dataset_to_rows,
    elicit_hmev_priors,
    elicit_priors,
    load_and_qc,
    read_covariate_file,
    training_events,
    write_covariate_file,
    write_event_file,
)
from .metrics import EvalResult, evaluate_site, write_eval_report
from .model import (
    GevPriorSpec,
    GevTarget,
    HmevLayout,
    HmevTarget,
    ShmevLayout,
    ShmevPriorSpec,
    ShmevTarget,
)
from .predictive import (
    GridCovariates,
    PredictiveConfig,
    gev_per_draw_quantiles,
    hmev_site_params,
    predictive_cdf,
    return_level_map,
    shmev_site_params,
    write_return_level_field,
)
from .simulate import ScenarioConfig, simulate_scenario

MANIFEST_SCHEMA_VERSION = 1
MODEL_SCHEMA_VERSION = 1

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_NUMERIC = 4


# ---------------------------------------------------------------------------
# Artifact/session plumbing
# ---------------------------------------------------------------------------

def _sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _canonical_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


class ArtifactSession:
    """Tracks files written by a command so failures leave nothing behind."""

    def __init__(self, out_dir: Path):
        self.out_dir = out_dir
        out_dir.mkdir(parents=True, exist_ok=True)
        self.created: list[Path] = []

    def path(self, *parts: str) -> Path:
        p = self.out_dir.joinpath(*parts)
        p.parent.mkdir(parents=True, exist_ok=True)
        self.created.append(p)
        return p

    def cleanup(self) -> None:
        for p in reversed(self.created):
            try:
                p.unlink(missing_ok=True)
            except OSError:
                pass
        for root, dirs, files in os.walk(self.out_dir, topdown=False):
            if not dirs and not files:
                try:
                    Path(root).rmdir()
                except OSError:
                    pass

    def write_manifest(self, command: str, seed: int, resolved_config: dict) -> Path:
        artifacts = sorted(
            str(p.relative_to(self.out_dir)) for p in self.created if p.exists()
        )
        manifest = {
            "schema_version": MANIFEST_SCHEMA_VERSION,
            "command": command,
            "seed": seed,
            "package_version": __version__,
            "config": resolved_config,
            "config_sha256": hashlib.sha256(_canonical_json(resolved_config).encode()).hexdigest(),
            "artifacts": [
                {"path": rel, "sha256": _sha256(self.out_dir / rel)} for rel in artifacts
            ],
        }
        path = self.path("manifest.json")
        path.write_text(json.dumps(manifest, sort_keys=True, indent=1) + "\n")
        return path


def _write_csv(path: Path, header: Sequence[str], rows) -> Path:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow(row)
    return path


def _fmt(value) -> str:
    return repr(float(value))


# ---------------------------------------------------------------------------
# Fit artifact layout
# ---------------------------------------------------------------------------

@dataclass(eq=False)
class FittedModel:
    """In-memory view of a fit directory."""

    kind: str
    meta: dict
    draws: np.ndarray | None = None
    chain: np.ndarray | None = None
    per_site_draws: dict[str, np.ndarray] = field(default_factory=dict)
    per_site_chain: dict[str, np.ndarray] = field(default_factory=dict)
    snapshot: StandardizationSnapshot | None = None

    @property
    def stations(self) -> list[str]:
        return list(self.meta["stations"])

    def site_z(self, station: str) -> np.ndarray:
        for site in self.meta["sites"]:
            if site["station"] == station:
                return np.asarray(site["z"], dtype=float)
        raise DataError(f"station {station!r} not present in the fit")

    def shmev_layout(self) -> ShmevLayout:
        lay = self.meta["layout"]
        return ShmevLayout(lay["p"], lay["J"], lay["S"])

    def hmev_layout(self) -> HmevLayout:
        return HmevLayout(self.meta["layout"]["J"])

    def magnitude_range(self, station: str | None = None) -> tuple[float, float]:
        ranges = self.meta["magnitude_range"]
        if station is not None and station in ranges:
            lo, hi = ranges[station]
        else:
            lo, hi = ranges["__pooled__"]
        return float(lo), float(hi)


def load_fit(fit_dir: str | Path) -> FittedModel:
    fit_dir = Path(fit_dir)
    meta_path = fit_dir / "model.json"
    if not meta_path.exists():
        raise DataError(f"no model.json under {fit_dir}")
    meta = json.loads(meta_path.read_text())
    if meta.get("schema_version") != MODEL_SCHEMA_VERSION:
        raise DataError(f"unsupported fit schema_version {meta.get('schema_version')}")
    snapshot = (
        StandardizationSnapshot.from_dict(meta["snapshot"]) if meta.get("snapshot") else None
    )
    fitted = FittedModel(kind=meta["model"], meta=meta, snapshot=snapshot)
    if fitted.kind == "shmev":
        fitted.draws = np.load(fit_dir / "draws.npy")
        fitted.chain = np.load(fit_dir / "chain.npy")
    else:
        for station in meta["stations"]:
            fitted.per_site_draws[station] = np.load(fit_dir / "sites" / station / "draws.npy")
            fitted.per_site_chain[station] = np.load(fit_dir / "sites" / station / "chain.npy")
    return fitted


def _posterior_from_arrays(draws, chain, names, diag) -> PosteriorDraws:
    n_chains = int(diag["n_chains"])
    return PosteriorDraws(
        draws=draws,
        chain=chain,
        param_names=list(names),
        n_chains=n_chains,
        n_kept_per_chain=draws.shape[0] // n_chains,
        accept_prob=np.asarray(diag["accept_prob"], dtype=float),
        divergences=np.asarray(diag["divergences"], dtype=int),
        step_sizes=np.asarray(diag["step_sizes"], dtype=float),
    )


def _diag_dict(post: PosteriorDraws) -> dict:
    return {
        "n_chains": post.n_chains,
        "accept_prob": [float(v) for v in post.accept_prob],
        "divergences": [int(v) for v in post.divergences],
        "step_sizes": [float(v) for v in post.step_sizes],
        "max_rhat": None if post.rhat is None else float(np.nanmax(post.rhat)),
        "min_ess": None if post.ess is None else float(np.nanmin(post.ess)),
    }


def _summary_rows(station: str, post: PosteriorDraws):
    q = np.quantile(post.draws, [0.05, 0.5, 0.95], axis=0)
    means = post.draws.mean(axis=0)
    sds = post.draws.std(axis=0, ddof=1)
    for k, name in enumerate(post.param_names):
        rhat = "" if post.rhat is None else _fmt(post.rhat[k])
        ess = "" if post.ess is None or np.isnan(post.ess[k]) else _fmt(post.ess[k])
        yield [station, name, _fmt(means[k]), _fmt(sds[k]), _fmt(q[0, k]), _fmt(q[1, k]), _fmt(q[2, k]), rhat, ess]


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------

def cmd_simulate(section: SimulateSection, session: ArtifactSession, seed: int) -> None:
    cfg = ScenarioConfig(
        scenario=section.scenario,
        n_sites=section.sites,
        train_blocks=section.train_blocks,
        test_blocks=section.test_blocks,
        shape_trend=section.shape_trend,
        scale_trend=section.scale_trend,
        count_trend=section.count_trend,
        shape_spread=section.shape_spread,
        scale_spread=section.scale_spread,
        gp_variance=section.gp_variance,
        gp_range=section.gp_range,
        trials_per_block=section.trials_per_block,
        seed=seed,
    )
    synth = simulate_scenario(cfg)
    write_event_file(session.path("events.csv"), dataset_to_rows(synth.train))
    names = list(synth.train.snapshot.names)
    table = {site.station: site.raw for site in synth.train.sites}
    write_covariate_file(session.path("covariates.csv"), names, table)
    maxima_rows = []
    for s, site in enumerate(synth.train.sites):
        for j in range(cfg.test_blocks):
            value = synth.test_maxima[s, j]
            if np.isfinite(value):
                maxima_rows.append([site.station, j, _fmt(value)])
    _write_csv(session.path("test_maxima.csv"), ["station", "block", "max_mm"], maxima_rows)
    truth_rows = [
        [
            site.station,
            _fmt(synth.fields.coords[s, 0]),
            _fmt(synth.fields.coords[s, 1]),
            _fmt(synth.fields.shape_loc[s]),
            _fmt(synth.fields.scale_loc[s]),
            _fmt(synth.fields.event_prob[s]),
            synth.fields.family,
        ]
        for s, site in enumerate(synth.train.sites)
    ]
    _write_csv(
        session.path("truth.csv"),
        ["station", "z1", "z2", "shape_loc", "scale_loc", "event_prob", "family"],
        truth_rows,
    )
    synth.train.snapshot.save(session.path("snapshot.json"))


def _qc_policy(section: FitSection) -> QcPolicy:
    if section.qc is None:
        # pre-cleaned input (e.g. simulator output): no year/station filtering
        return QcPolicy(
            max_missing_days=366,
            min_retained_years=0,
            drop_flagged=True,
            wet_day_threshold=section.wet_day_threshold,
        )
    return QcPolicy(
        max_missing_days=section.qc.max_missing_days,
        min_retained_years=section.qc.min_retained_years,
        drop_flagged=section.qc.drop_flagged,
        wet_day_threshold=section.wet_day_threshold,
    )


def _select_records(records, stations):
    by_name = {rec.station: rec for rec in records}
    if stations is None:
        return [by_name[name] for name in sorted(by_name)]
    missing = [name for name in stations if name not in by_name]
    if missing:
        raise DataError(f"stations not present after QC: {missing}")
    return [by_name[name] for name in stations]


def _elicitation_rules(section: FitSection) -> ElicitationRules:
    return ElicitationRules(
        gamma_intercept_center=section.priors.gamma_intercept_center,
        interval_fraction=section.priors.interval_fraction,
        intervals=section.priors.intervals,
    )


def _sampler_config(section: FitSection, seed: int) -> SamplerConfig:
    s = section.sampler
    return SamplerConfig(
        n_chains=s.chains,
        n_iterations=s.iterations,
        warmup_fraction=s.warmup_fraction,
        leapfrog_steps=s.leapfrog_steps,
        target_accept=s.target_accept,
        step_jitter=s.step_jitter,
        seed=seed,
    )


def _chain_inits(target, config: SamplerConfig, seed: int) -> np.ndarray:
    base = target.initial_vector()
    rng = np.random.default_rng(np.random.SeedSequence([seed, 1]))
    return base[None, :] + config.init_spread * rng.standard_normal((config.n_chains, base.size))


def _site_seed(seed: int, index: int) -> int:
    return int(np.random.SeedSequence([seed, 2, index]).generate_state(1)[0])


def _magnitude_ranges(events_by_station: Mapping[str, list[np.ndarray]]) -> dict:
    ranges = {}
    pooled_lo, pooled_hi = np.inf, 0.0
    for station, blocks in events_by_station.items():
        mags = np.concatenate([b for b in blocks if b.size]) if blocks else np.zeros(0)
        if mags.size == 0:
            raise DataError(f"station {station} has no positive events in the train window")
        lo, hi = float(mags.min()), float(mags.max())
        ranges[station] = [lo, hi]
        pooled_lo, pooled_hi = min(pooled_lo, lo), max(pooled_hi, hi)
    ranges["__pooled__"] = [pooled_lo, pooled_hi]
    return ranges


@contextmanager
def _elicitation(context: str):
    """Report the ``ValueError`` a prior elicitation raises on degenerate data
    (equal magnitudes or maxima, too few events) as a ``DataError``."""
    try:
        yield
    except ValueError as exc:
        raise DataError(f"{context}: {exc}") from exc


def cmd_fit(
    section: FitSection,
    session: ArtifactSession,
    seed: int,
    threads: int,
    base_dir: Path,
) -> None:
    policy = _qc_policy(section)
    cov_table: dict | None = None
    if section.covariates is not None:
        _, cov_table = read_covariate_file(base_dir / section.covariates)
    records, ledger = load_and_qc(base_dir / section.events, policy, cov_table)
    if not records:
        raise DataError("no stations survive quality control")
    ledger.save(session.path("qc_ledger.csv"))
    if ledger.rejects:
        # the file as the config names it, so the bytes do not depend on
        # where the config lives
        _write_csv(
            session.path("rejects.csv"),
            ["file", "line", "reason", "row"],
            ([section.events, r["line"], r["reason"], r["row"]] for r in ledger.rejects),
        )
        print(f"fit: {len(ledger.rejects)} malformed rows rejected; see rejects.csv", file=sys.stderr)
    selected = _select_records(records, section.stations)
    sampler_cfg = _sampler_config(section, seed)

    events_by_station = {
        rec.station: training_events(rec, section.train_blocks, section.wet_day_threshold)
        for rec in selected
    }
    meta: dict = {
        "schema_version": MODEL_SCHEMA_VERSION,
        "model": section.model,
        "trials_per_block": section.trials_per_block,
        "train_blocks": section.train_blocks,
        "covariate_columns": list(section.covariate_columns),
        "stations": [rec.station for rec in selected],
        "magnitude_range": _magnitude_ranges(events_by_station),
        "sampler": {
            "chains": sampler_cfg.n_chains,
            "iterations": sampler_cfg.n_iterations,
            "warmup_fraction": sampler_cfg.warmup_fraction,
            "leapfrog_steps": sampler_cfg.leapfrog_steps,
            "target_accept": sampler_cfg.target_accept,
            "seed": seed,
        },
    }

    summary_path = session.path("summary.csv")
    summary_header = ["station", "param", "mean", "sd", "q05", "q50", "q95", "rhat", "ess"]

    if section.model == "shmev":
        dataset = build_dataset(
            selected,
            section.train_blocks,
            section.covariate_columns,
            section.wet_day_threshold,
            section.trials_per_block,
        )
        if section.priors.mode == "explicit":
            prior = ShmevPriorSpec.from_dict(section.priors.explicit)
        else:
            with _elicitation("prior elicitation"):
                prior = elicit_priors(dataset, _elicitation_rules(section))
        target = ShmevTarget(dataset, prior)
        init = _chain_inits(target, sampler_cfg, seed)
        post = run_hmc(target, sampler_cfg, init, target.layout.param_names(), n_workers=threads)
        np.save(session.path("draws.npy"), post.draws)
        np.save(session.path("chain.npy"), post.chain)
        meta["layout"] = {
            "p": dataset.n_covariates,
            "J": dataset.n_blocks,
            "S": dataset.n_sites,
        }
        meta["param_names"] = post.param_names
        meta["sites"] = [
            {"station": s.station, "z": [float(v) for v in s.z], "raw": dict(s.raw)}
            for s in dataset.sites
        ]
        meta["snapshot"] = dataset.snapshot.to_dict()
        meta["priors"] = prior.to_dict()
        meta["diagnostics"] = _diag_dict(post)
        _write_csv(summary_path, summary_header, _summary_rows("", post))
    else:
        per_site_meta = {}
        per_site_priors = {}
        summary_rows = []
        sites_meta = []
        for idx, rec in enumerate(selected):
            blocks = events_by_station[rec.station]
            site_seed = _site_seed(seed, idx)
            site_cfg = replace(sampler_cfg, seed=site_seed)
            if section.model == "gev":
                maxima = np.array([b.max() for b in blocks if b.size])
                if maxima.size < 2:
                    raise DataError(f"station {rec.station}: too few block maxima for a GEV fit")
                with _elicitation(f"station {rec.station}"):
                    prior = GevPriorSpec.from_maxima(maxima)
                target = GevTarget(maxima, prior)
                names = list(GevTarget.layout_names)
            else:
                with _elicitation(f"station {rec.station}"):
                    prior = elicit_hmev_priors(
                        blocks, section.trials_per_block, _elicitation_rules(section)
                    )
                target = HmevTarget(blocks, section.trials_per_block, prior)
                names = target.layout.param_names()
            init = _chain_inits(target, site_cfg, site_seed)
            post = run_hmc(target, site_cfg, init, names, n_workers=threads)
            np.save(session.path("sites", rec.station, "draws.npy"), post.draws)
            np.save(session.path("sites", rec.station, "chain.npy"), post.chain)
            per_site_meta[rec.station] = _diag_dict(post)
            per_site_priors[rec.station] = prior.to_dict()
            summary_rows.extend(_summary_rows(rec.station, post))
            sites_meta.append({"station": rec.station, "z": [1.0], "raw": dict(rec.covariates)})
        meta["layout"] = {"J": section.train_blocks}
        meta["param_names"] = names
        meta["sites"] = sites_meta
        meta["snapshot"] = None
        meta["priors"] = per_site_priors
        meta["diagnostics"] = per_site_meta
        _write_csv(summary_path, summary_header, summary_rows)

    session.path("model.json").write_text(json.dumps(meta, sort_keys=True, indent=1) + "\n")


def _fit_posteriors(fitted: FittedModel):
    """Yield (station, PosteriorDraws) pairs for diagnostics/export."""
    if fitted.kind == "shmev":
        post = _posterior_from_arrays(
            fitted.draws, fitted.chain, fitted.meta["param_names"], fitted.meta["diagnostics"]
        )
        yield "", post
    else:
        for station in fitted.stations:
            diag = fitted.meta["diagnostics"][station]
            yield station, _posterior_from_arrays(
                fitted.per_site_draws[station],
                fitted.per_site_chain[station],
                fitted.meta["param_names"],
                diag,
            )


def cmd_diagnose(section, session: ArtifactSession, base_dir: Path) -> None:
    fitted = load_fit(base_dir / section.fit_dir)
    rows = []
    for station, post in _fit_posteriors(fitted):
        rhat, ess, degenerate = (post.rhat, post.ess, post.degenerate)
        if rhat is None and post.n_chains >= 2:
            rhat, ess, degenerate = rhat_ess(post)
        prefix = ("sites", station) if station else ()
        trace_export(post, session.path(*prefix, "trace.csv"))
        for k, name in enumerate(post.param_names):
            rows.append(
                [
                    station,
                    name,
                    "" if rhat is None else _fmt(rhat[k]),
                    "" if ess is None or np.isnan(ess[k]) else _fmt(ess[k]),
                    int(degenerate[k]) if degenerate is not None else "",
                ]
            )
    _write_csv(session.path("diagnostics.csv"), ["station", "param", "rhat", "ess", "degenerate"], rows)


def _predictive_config(fitted: FittedModel, blocks_per_draw: int) -> PredictiveConfig:
    return PredictiveConfig(
        blocks_per_draw=blocks_per_draw,
        trials_per_block=int(fitted.meta["trials_per_block"]),
    )


def _station_grid(fitted: FittedModel, station: str | None, config: PredictiveConfig) -> np.ndarray:
    lo, hi = fitted.magnitude_range(station)
    return np.geomspace(config.grid_low_factor * lo, config.grid_high_factor * hi, config.grid_size)


def _site_quantile_fn(fitted: FittedModel, station: str, config: PredictiveConfig, rng):
    """Per-draw quantile provider for one station under any fitted model."""
    if fitted.kind == "gev":
        draws = fitted.per_site_draws[station]
        return lambda probs: gev_per_draw_quantiles(draws, probs)
    if fitted.kind == "shmev":
        params = shmev_site_params(fitted.draws, fitted.shmev_layout(), fitted.site_z(station))
    else:
        params = hmev_site_params(fitted.per_site_draws[station], fitted.hmev_layout())
    est = predictive_cdf(params, _station_grid(fitted, station, config), config, rng)
    return est.per_draw_quantiles


def cmd_predict(section: PredictSection, session: ArtifactSession, seed: int, base_dir: Path) -> None:
    fitted = load_fit(base_dir / section.fit_dir)
    config = _predictive_config(fitted, section.blocks_per_draw)
    stations = list(section.stations) if section.stations else fitted.stations
    periods = np.asarray(sorted(section.return_periods), dtype=float)
    probs = 1.0 - 1.0 / periods
    streams = np.random.SeedSequence([seed, 3]).spawn(len(stations))
    rows = []
    for idx, station in enumerate(stations):
        rng = np.random.default_rng(streams[idx])
        quantile_fn = _site_quantile_fn(fitted, station, config, rng)
        q = quantile_fn(probs)
        for t_idx, period in enumerate(periods):
            col = q[:, t_idx]
            rows.append(
                [
                    station,
                    _fmt(period),
                    _fmt(col.mean()),
                    _fmt(np.quantile(col, 0.05)),
                    _fmt(np.quantile(col, 0.95)),
                ]
            )
    _write_csv(
        session.path("predictions.csv"),
        ["station", "T", "rl_mean", "rl_q05", "rl_q95"],
        rows,
    )


def _read_grid_file(path: Path, snapshot: StandardizationSnapshot) -> GridCovariates:
    if not path.exists():
        raise DataError(f"grid file not found: {path}")
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = [h.strip() for h in next(reader, [])]
        rows = []
        for lineno, row in enumerate(reader, start=2):
            if not row or all(not c.strip() for c in row):
                continue
            if len(row) != len(header):
                raise DataError(f"{path}:{lineno}: wrong field count")
            try:
                rows.append([float(v) for v in row])
            except ValueError as exc:
                raise DataError(f"{path}:{lineno}: non-numeric grid value") from exc
    if tuple(header) != tuple(snapshot.names):
        raise DataError(
            f"grid columns {header} must match the training snapshot {list(snapshot.names)}"
        )
    return GridCovariates(names=tuple(header), values=np.asarray(rows, dtype=float), snapshot=snapshot)


def cmd_map(section: MapSection, session: ArtifactSession, seed: int, base_dir: Path) -> None:
    fitted = load_fit(base_dir / section.fit_dir)
    if fitted.kind != "shmev":
        raise ConfigError("return-level maps require a spatial (shmev) fit")
    config = _predictive_config(fitted, section.blocks_per_draw)
    grid = _read_grid_file(base_dir / section.grid, fitted.snapshot)
    field_ = return_level_map(
        fitted.draws,
        fitted.shmev_layout(),
        grid,
        section.return_periods,
        config,
        seed,
        _station_grid(fitted, None, config),
    )
    raster_path = session.path("return_levels.csv")
    write_return_level_field(field_, raster_path)
    session.created.append(raster_path.with_suffix(raster_path.suffix + ".meta.json"))


def _read_test_maxima(path: Path) -> dict[str, np.ndarray]:
    if not path.exists():
        raise DataError(f"test maxima file not found: {path}")
    per_station: dict[str, list[float]] = {}
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or [h.strip() for h in header] != ["station", "block", "max_mm"]:
            raise DataError(f"{path}: expected header station,block,max_mm")
        for lineno, row in enumerate(reader, start=2):
            if not row or all(not c.strip() for c in row):
                continue
            if len(row) != 3:
                raise DataError(f"{path}:{lineno}: wrong field count")
            try:
                value = float(row[2])
            except ValueError as exc:
                raise DataError(f"{path}:{lineno}: non-numeric maximum") from exc
            if not np.isfinite(value):
                raise DataError(f"{path}:{lineno}: non-finite maximum")
            per_station.setdefault(row[0].strip(), []).append(value)
    return {k: np.asarray(v, dtype=float) for k, v in per_station.items()}


def cmd_evaluate(section: EvaluateSection, session: ArtifactSession, seed: int, base_dir: Path) -> None:
    maxima = _read_test_maxima(base_dir / section.test_maxima)
    results: list[tuple[str, EvalResult]] = []
    for label_idx, (label, fit_dir) in enumerate(sorted(section.fits.items())):
        fitted = load_fit(base_dir / fit_dir)
        config = _predictive_config(fitted, section.blocks_per_draw)
        stations = [s for s in fitted.stations if s in maxima]
        if not stations:
            raise DataError(f"fit {label!r} shares no stations with the test maxima")
        streams = np.random.SeedSequence([seed, 4, label_idx]).spawn(len(stations))
        for idx, station in enumerate(stations):
            rng = np.random.default_rng(streams[idx])
            quantile_fn = _site_quantile_fn(fitted, station, config, rng)
            results.append(
                (label, evaluate_site(station, quantile_fn, maxima[station], section.threshold_return_time))
            )
    write_eval_report(results, session.path("evaluation.csv"))


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

def _resolved_config(raw: dict, command: str, seed: int) -> dict:
    # the output location is deliberately left out: artifacts must not depend
    # on where they are written
    resolved = {k: raw[k] for k in raw if k in ("schema_version", command)}
    resolved["seed"] = seed
    resolved["command"] = command
    return resolved


def run_command(command: str, config_path: str | Path, out_dir: str | Path | None = None,
                seed: int | None = None, threads: int | None = None) -> Path:
    """Programmatic equivalent of the CLI; returns the output directory."""
    config_path = Path(config_path)
    raw = load_config(config_path)
    section = parse_section(raw, command)
    seed = int(raw["seed"]) if seed is None else int(seed)
    out = Path(out_dir) if out_dir is not None else (
        Path(raw["out_dir"]) / command if "out_dir" in raw else None
    )
    if out is None:
        raise ConfigError("no output directory: pass --out or set out_dir in the config")
    threads = threads if threads is not None else int(raw.get("threads", 0)) or (os.cpu_count() or 1)
    base_dir = config_path.parent
    session = ArtifactSession(out)
    try:
        if command == "simulate":
            cmd_simulate(section, session, seed)
        elif command == "fit":
            cmd_fit(section, session, seed, threads, base_dir)
        elif command == "diagnose":
            cmd_diagnose(section, session, base_dir)
        elif command == "predict":
            cmd_predict(section, session, seed, base_dir)
        elif command == "map":
            cmd_map(section, session, seed, base_dir)
        elif command == "evaluate":
            cmd_evaluate(section, session, seed, base_dir)
        else:
            raise ConfigError(f"unknown command {command!r}")
        session.write_manifest(command, seed, _resolved_config(raw, command, seed))
    except BaseException:
        session.cleanup()
        raise
    return out


def main(argv: Sequence[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="shmev",
        description="Spatial hierarchical Bayesian extreme-value modeling of daily rainfall",
    )
    parser.add_argument(
        "command",
        choices=["simulate", "fit", "diagnose", "predict", "map", "evaluate"],
    )
    parser.add_argument("--config", required=True, help="path to the YAML run configuration")
    parser.add_argument("--seed", type=int, default=None, help="override the config seed")
    parser.add_argument("--threads", type=int, default=None,
                        help="worker processes for a fit's chains (serial where fork is unavailable)")
    parser.add_argument("--out", default=None, help="output directory (overrides config out_dir)")
    args = parser.parse_args(argv)

    def report(exc: BaseException, code: int) -> int:
        payload = {
            "error": type(exc).__name__,
            "message": str(exc),
            "command": args.command,
            "exit_code": code,
        }
        print(json.dumps(payload, sort_keys=True), file=sys.stderr)
        return code

    try:
        out = run_command(args.command, args.config, args.out, args.seed, args.threads)
    except ConfigError as exc:
        return report(exc, EXIT_CONFIG)
    except DataError as exc:
        return report(exc, EXIT_DATA)
    except (NumericError, ConvergenceError) as exc:
        return report(exc, EXIT_NUMERIC)
    except ShmevError as exc:
        return report(exc, 1)
    print(f"{args.command}: artifacts written to {out}")
    return EXIT_OK


if __name__ == "__main__":
    raise SystemExit(main())
