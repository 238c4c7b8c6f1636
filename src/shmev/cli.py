"""Command-line entry point: simulate / fit / diagnose / predict / map / evaluate.

Every command reads a declarative YAML config, writes its artifacts under a
single output directory, and records a manifest (seed, resolved config,
content hashes) from which the run is reproducible.  Failures remove any
partial outputs, emit a machine-readable error report on stderr, and exit
with 2 (config), 3 (data), or 4 (numeric/convergence).
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
from contextlib import contextmanager
from dataclasses import asdict, dataclass, replace
from pathlib import Path
from typing import Iterable, Iterator, Mapping, Sequence

import numpy as np

from . import __version__
from .config import (
    EvaluateSection,
    FitSection,
    MapSection,
    PredictSection,
    _as_int,
    load_config,
    parse_section,
)
from .data import StandardizationSnapshot
from .errors import ConfigError, ConvergenceError, DataError, NumericError, ShmevError
# run_hmc, the one-job form of run_hmc_jobs, and rhat_ess, which
# PosteriorDraws.convergence calls, stay importable from here
from .hmc import CHAIN_STATS, HmcJob, PosteriorDraws, SamplerConfig, rhat_ess, run_hmc, run_hmc_jobs
from .ingest import (
    build_dataset,
    dataset_to_rows,
    elicit_hmev_priors,
    elicit_priors,
    load_and_qc,
    number_cell,
    read_covariate_file,
    read_grid_file,
    read_test_maxima,
    trace_export,
    training_events,
    write_covariate_file,
    write_event_file,
    write_table,
)
# evaluate_site, the one-station form of cmd_evaluate's rank, inversion and
# scoring steps, stays importable from here
from .metrics import EvalResult, evaluate_site, qualifying_maxima, score_site, write_eval_report
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
    PredictiveConfig,
    default_y_grid,
    gev_per_draw_quantiles,
    hmev_site_params,
    invert_quantiles,
    predictive_cdf,
    shmev_site_params,
)
from .simulate import ScenarioConfig, simulate_scenario

MANIFEST_SCHEMA_VERSION = 1
MODEL_SCHEMA_VERSION = 2

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_NUMERIC = 4

# the spread of each chain's start around the target's initial vector
_INIT_SPREAD = 0.1


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
        _write_json(path, manifest)
        return path


def _write_json(path: Path, obj) -> None:
    """Write an artifact as strict JSON, with sorted keys and a one-space
    indent; a non-finite number fails here rather than reach the file."""
    path.write_text(json.dumps(obj, sort_keys=True, indent=1, allow_nan=False) + "\n")


# ---------------------------------------------------------------------------
# Fit artifact layout
# ---------------------------------------------------------------------------

# what the predictive path needs of a station or grid point: the draws that
# describe it, its standardised covariate row and its quantile bracket
Site = tuple[np.ndarray, np.ndarray, np.ndarray]


@dataclass(eq=False)
class FittedModel:
    """In-memory view of a fit directory: one posterior per key, ``""`` for
    the spatial fit and the station for a per-site (hmev or gev) fit."""

    kind: str
    meta: dict
    posteriors: dict[str, PosteriorDraws]
    snapshot: StandardizationSnapshot | None = None

    @property
    def stations(self) -> list[str]:
        return list(self.meta["stations"])

    def site(self, station: str) -> Site:
        """A station's draws (its own in a per-site fit, the shared ones in a
        spatial fit), its standardised covariate row and its quantile bracket."""
        for site in self.meta["sites"]:
            if site["station"] == station:
                draws = self.posteriors[station if station in self.posteriors else ""].draws
                return draws, np.asarray(site["z"], dtype=float), default_y_grid(self.magnitude_range(station))
        raise DataError(f"station {station!r} not present in the fit")

    def shmev_layout(self) -> ShmevLayout:
        lay = self.meta["layout"]
        return ShmevLayout(lay["p"], lay["J"], lay["S"])

    def magnitude_range(self, station: str | None = None) -> tuple[float, float]:
        ranges = self.meta["magnitude_range"]
        if station is not None and station in ranges:
            lo, hi = ranges[station]
        else:
            lo, hi = ranges["__pooled__"]
        return float(lo), float(hi)


def _posterior_dir(key: str) -> tuple[str, ...]:
    """Where a posterior's files live in a fit directory: the spatial fit's
    at the top, a per-site fit's under ``sites/<station>``."""
    return ("sites", key) if key else ()


@contextmanager
def _damaged(*paths: Path):
    """Report fit files that cannot be read or do not agree as a ``DataError`` naming them."""
    try:
        yield
    except (OSError, EOFError, ValueError, LookupError, TypeError, AttributeError) as exc:
        raise DataError(f"damaged fit: {', '.join(map(str, paths))}: {type(exc).__name__}: {exc}") from exc


def load_fit(fit_dir: str | Path) -> FittedModel:
    fit_dir = Path(fit_dir)
    meta_path = fit_dir / "model.json"
    if not meta_path.exists():
        raise DataError(f"no model.json under {fit_dir}")
    with _damaged(meta_path):
        meta = json.loads(meta_path.read_text())
        if meta.get("schema_version") != MODEL_SCHEMA_VERSION:
            raise DataError(f"unsupported fit schema_version {meta.get('schema_version')}")
        snapshot = StandardizationSnapshot.from_dict(meta["snapshot"]) if meta.get("snapshot") else None
        # a spatial fit, the one with a snapshot, stores one posterior and
        # its diagnostics unkeyed
        keys = [""] if snapshot is not None else meta["stations"]
        diags = meta["diagnostics"]
    posteriors = {}
    for key in keys:
        draws_path = fit_dir.joinpath(*_posterior_dir(key), "draws.npy")
        with _damaged(draws_path):
            draws = np.load(draws_path)
        with _damaged(meta_path):
            diag = diags.get(key, diags)
            n_chains = int(diag["n_chains"])
            stats = {name: np.asarray(diag[name], dtype=kind) for name, kind in CHAIN_STATS.items()}
        with _damaged(draws_path, meta_path):
            posteriors[key] = PosteriorDraws(draws, list(meta["param_names"]), n_chains, **stats)
    return FittedModel(kind=meta["model"], meta=meta, posteriors=posteriors, snapshot=snapshot)


def _diag_dict(post: PosteriorDraws) -> dict:
    max_rhat = None if post.rhat is None else float(np.nanmax(post.rhat))
    return {
        "n_chains": post.n_chains,
        **{name: [kind(v) for v in getattr(post, name)] for name, kind in CHAIN_STATS.items()},
        # inf where chains sat at different values: strict JSON has no
        # Infinity, so it is the string "inf", as summary.csv writes it
        "max_rhat": "inf" if max_rhat == np.inf else max_rhat,
        # over the parameters that have an ESS: a degenerate one has none
        "min_ess": None if post.ess is None or np.isnan(post.ess).all() else float(np.nanmin(post.ess)),
    }


def _convergence_cells(post: PosteriorDraws, k: int) -> list[str]:
    """Parameter ``k``'s R-hat and ESS cells, empty where there are none."""
    rhat, ess, _ = post.convergence
    rhat_k = None if rhat is None else rhat[k]
    ess_k = None if ess is None or np.isnan(ess[k]) else ess[k]
    return [number_cell(rhat_k), number_cell(ess_k)]


def _summary_rows(station: str, post: PosteriorDraws):
    q = np.quantile(post.draws, [0.05, 0.5, 0.95], axis=0)
    means = post.draws.mean(axis=0)
    sds = post.draws.std(axis=0, ddof=1)
    for k, name in enumerate(post.param_names):
        cells = [number_cell(x) for x in (means[k], sds[k], *q[:, k])]
        yield [station, name, *cells, *_convergence_cells(post, k)]


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------

def cmd_simulate(cfg: ScenarioConfig, session: ArtifactSession) -> None:
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
                maxima_rows.append([site.station, j, number_cell(value)])
    write_table(session.path("test_maxima.csv"), ["station", "block", "max_mm"], maxima_rows)
    truth_rows = [
        [
            site.station,
            number_cell(synth.fields.coords[s, 0]),
            number_cell(synth.fields.coords[s, 1]),
            number_cell(synth.fields.shape_loc[s]),
            number_cell(synth.fields.scale_loc[s]),
            number_cell(synth.fields.event_prob[s]),
            synth.fields.family,
        ]
        for s, site in enumerate(synth.train.sites)
    ]
    write_table(
        session.path("truth.csv"),
        ["station", "z1", "z2", "shape_loc", "scale_loc", "event_prob", "family"],
        truth_rows,
    )
    _write_json(session.path("snapshot.json"), synth.train.snapshot.to_dict())


def _select_records(records, stations):
    by_name = {rec.station: rec for rec in records}
    if stations is None:
        return [by_name[name] for name in sorted(by_name)]
    missing = [name for name in stations if name not in by_name]
    if missing:
        raise DataError(f"stations not present after QC: {missing}")
    return [by_name[name] for name in stations]


def _chain_inits(target, config: SamplerConfig) -> np.ndarray:
    base = target.initial_vector()
    rng = np.random.default_rng(np.random.SeedSequence([config.seed, 1]))
    return base[None, :] + _INIT_SPREAD * rng.standard_normal((config.n_chains, base.size))


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
def _data_errors(context: str):
    """Report the ``ValueError`` a prior elicitation or a target's own check
    raises on the data (equal magnitudes or maxima, too few events, more
    events in a block than ``trials_per_block``) as a ``DataError``."""
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
    cov_table: dict | None = None
    if section.covariates is not None:
        _, cov_table = read_covariate_file(base_dir / section.covariates)
    records, ledger = load_and_qc(base_dir / section.events, section.qc, cov_table)
    if not records:
        raise DataError("no stations survive quality control")
    write_table(
        session.path("qc_ledger.csv"),
        ["station", "code", "year", "detail"],
        ([e["station"], e["code"], "" if e["year"] is None else e["year"], e["detail"]] for e in ledger.entries),
    )
    if ledger.rejects:
        # the file as the config names it, so the bytes do not depend on
        # where the config lives
        write_table(
            session.path("rejects.csv"),
            ["file", "line", "reason", "row"],
            ([section.events, r["line"], r["reason"], r["row"]] for r in ledger.rejects),
        )
        print(f"fit: {len(ledger.rejects)} malformed rows rejected; see rejects.csv", file=sys.stderr)
    selected = _select_records(records, section.stations)

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
            "chains": section.sampler.n_chains,
            "iterations": section.sampler.n_iterations,
            "warmup_fraction": section.sampler.warmup_fraction,
            "leapfrog_steps": section.sampler.leapfrog_steps,
            "target_accept": section.sampler.target_accept,
            "seed": seed,
        },
    }

    # every fit is a list of (key, sampler config, target): one keyed "" for
    # the spatial fit, one per station, in station order, for a per-site fit
    if section.model == "shmev":
        with _data_errors("training data"):
            dataset = build_dataset(
                selected,
                section.train_blocks,
                section.covariate_columns,
                list(events_by_station.values()),
                section.trials_per_block,
            )
        if isinstance(section.priors, ShmevPriorSpec):
            prior = section.priors
        else:
            with _data_errors("prior elicitation"):
                prior = elicit_priors(dataset, section.priors)
        fits = [("", section.sampler, ShmevTarget(dataset, prior))]
        meta["layout"] = {"p": dataset.n_covariates, "J": dataset.n_blocks, "S": dataset.n_sites}
        design, snapshot = dataset.design_matrix(), dataset.snapshot.to_dict()
    else:
        fits = []
        for idx, rec in enumerate(selected):
            blocks = events_by_station[rec.station]
            with _data_errors(f"station {rec.station}"):
                if section.model == "gev":
                    maxima = np.array([b.max() for b in blocks if b.size])
                    target = GevTarget(maxima, GevPriorSpec.from_maxima(maxima))
                else:
                    prior = elicit_hmev_priors(blocks, section.trials_per_block, section.priors)
                    target = HmevTarget(blocks, section.trials_per_block, prior)
            fits.append((rec.station, replace(section.sampler, seed=_site_seed(seed, idx)), target))
        meta["layout"] = {"J": section.train_blocks}
        # a per-site fit has no covariates: each station's row is the intercept
        design, snapshot = np.ones((len(selected), 1)), None
    meta["sites"] = [
        {"station": rec.station, "z": [float(v) for v in z], "raw": dict(rec.covariates)}
        for rec, z in zip(selected, design)
    ]
    meta["snapshot"] = snapshot

    jobs = [HmcJob(target, config, _chain_inits(target, config), target.param_names()) for _, config, target in fits]
    posts = run_hmc_jobs(jobs, n_workers=threads)
    diagnostics, priors, summary_rows = {}, {}, []
    for (key, _, target), post in zip(fits, posts):
        np.save(session.path(*_posterior_dir(key), "draws.npy"), post.draws)
        diagnostics[key] = _diag_dict(post)
        priors[key] = asdict(target.prior)
        summary_rows.extend(_summary_rows(key, post))
    meta["param_names"] = posts[0].param_names
    # the spatial fit's priors and diagnostics are stored unkeyed
    meta["priors"] = priors.get("", priors)
    meta["diagnostics"] = diagnostics.get("", diagnostics)
    write_table(
        session.path("summary.csv"),
        ["station", "param", "mean", "sd", "q05", "q50", "q95", "rhat", "ess"],
        summary_rows,
    )
    _write_json(session.path("model.json"), meta)


def cmd_diagnose(section, session: ArtifactSession, base_dir: Path) -> None:
    fitted = load_fit(base_dir / section.fit_dir)
    rows = []
    for key, post in fitted.posteriors.items():
        degenerate = post.convergence[2]
        trace_export(post, session.path(*_posterior_dir(key), "trace.csv"))
        for k, name in enumerate(post.param_names):
            rows.append([key, name, *_convergence_cells(post, k), "" if degenerate is None else int(degenerate[k])])
    write_table(session.path("diagnostics.csv"), ["station", "param", "rhat", "ess", "degenerate"], rows)


def _predictive_config(fitted: FittedModel, blocks_per_draw: int) -> PredictiveConfig:
    return PredictiveConfig(
        blocks_per_draw=blocks_per_draw,
        trials_per_block=int(fitted.meta["trials_per_block"]),
    )


def _site_quantiles(
    fitted: FittedModel,
    config: PredictiveConfig,
    jobs: Iterable[tuple[Site, np.ndarray, np.random.SeedSequence]],
) -> Iterator[np.ndarray]:
    """Per-draw quantiles (B, k) of each ``(site, probs, stream)`` job, in
    order, under any fitted model; a site is the ``(draws, z, bracket)`` of
    :meth:`FittedModel.site`, or of a map's grid point.  Predictive estimates
    are simulated from their site's stream as the inversion reaches them;
    GEV fits have a closed form."""
    if fitted.kind == "gev":
        return (gev_per_draw_quantiles(draws, probs) for (draws, _, _), probs, _ in jobs)

    def estimates():
        for (draws, z, bracket), probs, stream in jobs:
            if fitted.kind == "shmev":
                params = shmev_site_params(draws, fitted.shmev_layout(), z)
            else:
                params = hmev_site_params(draws, HmevLayout(fitted.meta["layout"]["J"]))
            yield predictive_cdf(params, bracket, config, np.random.default_rng(stream)), probs

    return invert_quantiles(estimates())


def _level_rows(key_cells: list[str], periods: np.ndarray, q: np.ndarray) -> Iterator[list[str]]:
    """One site's rows ``key_cells, T, rl_mean, rl_q05, rl_q95``, one per
    period, from its (B, k) per-draw quantiles."""
    # one call for both bands; the per-column means stay, as an axis-0 mean
    # of GEV's C-ordered quantiles can differ from them in the last bit
    bands = np.quantile(q, [0.05, 0.95], axis=0)
    for t, period in enumerate(periods):
        yield [*key_cells, *map(number_cell, (period, q[:, t].mean(), bands[0, t], bands[1, t]))]


def cmd_predict(section: PredictSection, session: ArtifactSession, seed: int, base_dir: Path) -> None:
    fitted = load_fit(base_dir / section.fit_dir)
    config = _predictive_config(fitted, section.blocks_per_draw)
    stations = list(section.stations) if section.stations else fitted.stations
    periods = np.asarray(sorted(section.return_periods), dtype=float)
    probs = 1.0 - 1.0 / periods
    streams = np.random.SeedSequence([seed, 3]).spawn(len(stations))
    jobs = ((fitted.site(s), probs, stream) for s, stream in zip(stations, streams))
    quantiles = _site_quantiles(fitted, config, jobs)
    rows = (row for station, q in zip(stations, quantiles) for row in _level_rows([station], periods, q))
    write_table(session.path("predictions.csv"), ["station", "T", "rl_mean", "rl_q05", "rl_q95"], rows)


def cmd_map(section: MapSection, session: ArtifactSession, seed: int, base_dir: Path) -> None:
    fitted = load_fit(base_dir / section.fit_dir)
    if fitted.snapshot is None:
        raise ConfigError("return-level maps require a spatial (shmev) fit")
    config = _predictive_config(fitted, section.blocks_per_draw)
    names, raw = read_grid_file(base_dir / section.grid, fitted.snapshot)
    periods = np.asarray(sorted(section.return_periods), dtype=float)
    probs = 1.0 - 1.0 / periods
    # every grid point is a site of the shared draws, standardised as the
    # stations were, with the pooled bracket and its own stream
    draws, bracket = fitted.posteriors[""].draws, default_y_grid(fitted.magnitude_range())
    streams = np.random.SeedSequence(seed).spawn(len(raw))
    jobs = (((draws, z, bracket), probs, stream) for z, stream in zip(fitted.snapshot.standardize(raw), streams))
    quantiles = _site_quantiles(fitted, config, jobs)
    rows = (row for point, q in zip(raw, quantiles) for row in _level_rows([number_cell(v) for v in point], periods, q))
    write_table(session.path("return_levels.csv"), [*names, "T", "rl_mean", "rl_q05", "rl_q95"], rows)
    sidecar = {
        "seed": seed,
        "blocks_per_draw": config.blocks_per_draw,
        "n_draws": int(draws.shape[0]),
        "trials_per_block": config.trials_per_block,
        "snapshot": fitted.snapshot.to_dict(),
    }
    _write_json(session.path("return_levels.csv.meta.json"), sidecar)


def cmd_evaluate(section: EvaluateSection, session: ArtifactSession, seed: int, base_dir: Path) -> None:
    maxima = read_test_maxima(base_dir / section.test_maxima)
    results: list[tuple[str, EvalResult]] = []
    for label_idx, (label, fit_dir) in enumerate(sorted(section.fits.items())):
        fitted = load_fit(base_dir / fit_dir)
        config = _predictive_config(fitted, section.blocks_per_draw)
        stations = [s for s in fitted.stations if s in maxima]
        if not stations:
            raise DataError(f"fit {label!r} shares no stations with the test maxima")
        streams = np.random.SeedSequence([seed, 4, label_idx]).spawn(len(stations))
        threshold = section.threshold_return_time
        ranked = [qualifying_maxima(maxima[station], threshold) for station in stations]
        # stations where no maximum qualifies are scored without an inversion
        jobs = (
            (fitted.site(s), probs, stream) for s, (probs, _), stream in zip(stations, ranked, streams) if probs.size
        )
        quantiles = _site_quantiles(fitted, config, jobs)
        for station, (probs, observed) in zip(stations, ranked):
            q = next(quantiles) if probs.size else None
            results.append((label, score_site(station, q, observed, threshold, maxima[station].size)))
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


def _worker_count(flag: str | int | None, raw: dict) -> int:
    """Worker processes for a fit: the ``--threads`` flag, else the config
    key ``threads``, else the number of CPUs; either must be an integer >= 1."""
    if flag is None:
        if "threads" not in raw:
            return os.cpu_count() or 1
        return _as_int(raw["threads"], "threads", minimum=1)
    if isinstance(flag, str):
        try:
            flag = int(flag)
        except ValueError:
            raise ConfigError(f"--threads: expected an integer, got {flag!r}") from None
    return _as_int(flag, "--threads", minimum=1)


def run_command(command: str, config_path: str | Path, out_dir: str | Path | None = None,
                seed: int | None = None, threads: int | None = None) -> Path:
    """Programmatic equivalent of the CLI; returns the output directory."""
    config_path = Path(config_path)
    raw = load_config(config_path)
    if seed is not None:
        # the seed the simulate and fit configs are parsed with
        raw["seed"] = _as_int(int(seed), "--seed", minimum=0)
    seed = raw["seed"]
    section = parse_section(raw, command)
    out = Path(out_dir) if out_dir is not None else (
        Path(raw["out_dir"]) / command if "out_dir" in raw else None
    )
    if out is None:
        raise ConfigError("no output directory: pass --out or set out_dir in the config")
    threads = _worker_count(threads, raw)
    base_dir = config_path.parent
    session = ArtifactSession(out)
    try:
        if command == "simulate":
            cmd_simulate(section, session)
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
    parser.add_argument("--threads", default=None,
                        help="worker processes for a fit (default: the number of CPUs); its chains run as "
                             "lockstep rows split over one worker pool (serial where fork is unavailable)")
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
