"""Daily precipitation ingestion, quality control, and prior elicitation.

Canonical event file: UTF-8 comma-separated with header
``station,date,prcp_mm,qflag`` (ISO dates; empty or ``NA`` precipitation
means a missing day; the quality flag is blank for clean records).
Covariate file: ``station`` plus one numeric column per covariate; the
reader is header-driven, with ``station,lat,lon,alt_m,dist_coast_km`` the
canonical layout.  A converter for the fixed-width GHCN daily archive
format is provided, but the columnar form is canonical.

Quality control removes flagged values, drops whole years over the
missing-day budget, and drops stations that do not exceed the minimum
retained-year count; every exclusion lands in a ledger with a reason code
and malformed rows are collected into a rejects report, never skipped
silently.
"""
from __future__ import annotations

import calendar
import csv
import datetime as dt
import logging
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Mapping, Sequence

import numpy as np

from .data import Dataset, SiteCovariates, StandardizationSnapshot
from .distributions import WeibullParams
from .errors import ConvergenceError, DataError
from .model import (
    BetaPrior,
    HmevPriorSpec,
    InverseGammaPrior,
    NormalPrior,
    ShmevPriorSpec,
)
from .special import gammaln, logit

__all__ = [
    "QcPolicy",
    "StationRecord",
    "QcLedger",
    "read_event_file",
    "read_covariate_file",
    "write_event_file",
    "write_covariate_file",
    "load_and_qc",
    "build_dataset",
    "dataset_to_rows",
    "weibull_mom",
    "ElicitationRules",
    "elicit_priors",
    "elicit_hmev_priors",
    "station_maxima",
    "convert_ghcn_dly",
]

logger = logging.getLogger(__name__)

EVENT_HEADER = ["station", "date", "prcp_mm", "qflag"]
_MISSING = {"", "NA", "NaN", "nan"}
_EPOCH_ORDINAL = dt.date(1970, 1, 1).toordinal()

# normal 95% central interval half-width in standard deviations
_Z95 = 1.96

_MOM_BRACKET = (0.05, 20.0)


@dataclass(frozen=True)
class QcPolicy:
    """Quality-control thresholds.

    A year is retained when it has at most ``max_missing_days`` missing daily
    observations; a station is retained when it keeps strictly more than
    ``min_retained_years`` years.  Wet days are values strictly above
    ``wet_day_threshold`` (default: any positive record).
    """

    max_missing_days: int = 30
    min_retained_years: int = 73
    drop_flagged: bool = True
    wet_day_threshold: float = 0.0

    def __post_init__(self):
        if self.max_missing_days < 0 or self.min_retained_years < 0 or self.wet_day_threshold < 0:
            raise ValueError("QC thresholds must be >= 0")


@dataclass(eq=False)
class StationRecord:
    """Daily series for one station after parsing (and optionally QC)."""

    station: str
    dates: np.ndarray   # datetime64[D], strictly increasing
    values: np.ndarray  # mm, NaN for missing
    flags: list[str]
    covariates: dict[str, float] = field(default_factory=dict)

    def __post_init__(self):
        if np.any(np.diff(self.dates.astype("int64")) <= 0):
            raise DataError(f"station {self.station}: dates are not strictly increasing")

    def years(self) -> np.ndarray:
        return self.dates.astype("datetime64[Y]").astype(int) + 1970


@dataclass
class QcLedger:
    """Every exclusion performed by QC, with machine-readable reason codes."""

    entries: list[dict] = field(default_factory=list)
    rejects: list[dict] = field(default_factory=list)

    def add(self, station: str, code: str, detail: str, year: int | None = None):
        self.entries.append({"station": station, "code": code, "detail": detail, "year": year})

    def reject(self, path: str, line: int, reason: str, row: str):
        self.rejects.append({"file": path, "line": line, "reason": reason, "row": row})

    def retained_years(self, station: str) -> list[int]:
        for e in self.entries:
            if e["station"] == station and e["code"] == "RETAINED_YEARS":
                return [int(y) for y in e["detail"].split()]
        return []

    def save(self, path: str | Path) -> Path:
        path = Path(path)
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["station", "code", "year", "detail"])
            for e in self.entries:
                writer.writerow([e["station"], e["code"], "" if e["year"] is None else e["year"], e["detail"]])
        return path


# ---------------------------------------------------------------------------
# File IO
# ---------------------------------------------------------------------------

class _ParseCache(dict):
    """Text -> parsed value, calling ``parse`` once per distinct text."""

    def __init__(self, parse):
        super().__init__()
        self.parse = parse

    def __missing__(self, text: str):
        value = self[text] = self.parse(text)
        return value


def _parse_day(text: str) -> int | None:
    """Days since 1970-01-01, or None for an unparseable date."""
    try:
        return dt.date.fromisoformat(text).toordinal() - _EPOCH_ORDINAL
    except ValueError:
        return None


def _parse_prcp(text: str) -> float | str:
    """Precipitation in mm (NaN for a missing day), or the reject reason."""
    if text in _MISSING:
        return np.nan
    try:
        value = float(text)
    except ValueError:
        return "unparseable precipitation"
    if value < 0.0:
        return "negative precipitation"
    if value == np.inf:
        return "non-finite precipitation"
    return value


def read_event_file(paths: str | Path | Sequence[str | Path], ledger: QcLedger | None = None):
    """Parse canonical event files into per-station day series.

    Returns ``{station: (dates, values, flags)}`` with missing values as NaN.
    Malformed rows go to the ledger's rejects report.

    A daily archive repeats few distinct texts (one date string per day for
    every station, mostly ``0.0`` values), so each distinct date and
    precipitation text is parsed once per call and looked up in a cache
    afterwards; rows append to per-station day, value and flag columns,
    sorted only for a station whose days do not already increase.
    """
    if isinstance(paths, (str, Path)):
        paths = [paths]
    ledger = ledger if ledger is not None else QcLedger()
    day_of = _ParseCache(_parse_day)
    value_of = _ParseCache(_parse_prcp)
    columns: dict[str, tuple[list[int], list[float], list[str]]] = {}
    current = None
    for path in paths:
        path = Path(path)
        if not path.exists():
            raise DataError(f"event file not found: {path}")
        with open(path, newline="", encoding="utf-8") as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            if header is None or [h.strip() for h in header] != EVENT_HEADER:
                raise DataError(f"{path}: expected header {','.join(EVENT_HEADER)}")
            for lineno, row in enumerate(reader, start=2):
                if len(row) != 4:
                    if any(c.strip() for c in row):
                        ledger.reject(str(path), lineno, "wrong field count", ",".join(row))
                    continue
                station, date_s, prcp_s, qflag = row
                station, date_s, prcp_s, qflag = station.strip(), date_s.strip(), prcp_s.strip(), qflag.strip()
                if not (station or date_s or prcp_s or qflag):
                    continue
                day = day_of[date_s]
                if day is None:
                    ledger.reject(str(path), lineno, "unparseable date", ",".join(row))
                    continue
                value = value_of[prcp_s]
                if isinstance(value, str):
                    ledger.reject(str(path), lineno, value, ",".join(row))
                    continue
                if station != current:
                    current = station
                    days, values, flags = columns.setdefault(station, ([], [], []))
                days.append(day)
                values.append(value)
                flags.append(qflag)
    out = {}
    for station in sorted(columns):
        days, values, flags = columns[station]
        days = np.array(days, dtype=np.int64)
        values = np.array(values, dtype=float)
        if np.any(np.diff(days) <= 0):
            order = np.argsort(days, kind="stable")
            days, values, flags = days[order], values[order], [flags[i] for i in order]
        dates = days.astype("datetime64[D]")
        repeated = np.flatnonzero(np.diff(days) == 0)
        if repeated.size:
            raise DataError(f"station {station}: duplicate date {dates[repeated[0]]}")
        out[station] = (dates, values, flags)
    return out, ledger


def read_covariate_file(path: str | Path) -> tuple[list[str], dict[str, dict[str, float]]]:
    """Header-driven covariate table: ``station`` plus numeric columns."""
    path = Path(path)
    if not path.exists():
        raise DataError(f"covariate file not found: {path}")
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = [h.strip() for h in next(reader, [])]
        if not header or header[0] != "station":
            raise DataError(f"{path}: first covariate column must be 'station'")
        names = header[1:]
        table: dict[str, dict[str, float]] = {}
        for lineno, row in enumerate(reader, start=2):
            if not row or all(not c.strip() for c in row):
                continue
            if len(row) != len(header):
                raise DataError(f"{path}:{lineno}: wrong field count")
            try:
                values = {n: float(v) for n, v in zip(names, row[1:])}
            except ValueError as exc:
                raise DataError(f"{path}:{lineno}: non-numeric covariate") from exc
            if not all(np.isfinite(v) for v in values.values()):
                raise DataError(f"{path}:{lineno}: non-finite covariate")
            table[row[0].strip()] = values
    return names, table


def write_event_file(path: str | Path, rows: Iterable[tuple[str, dt.date, float, str]]) -> Path:
    path = Path(path)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(EVENT_HEADER)
        for station, date, value, qflag in rows:
            writer.writerow([station, date.isoformat(), repr(float(value)), qflag])
    return path


def write_covariate_file(path: str | Path, names: Sequence[str], table: Mapping[str, Mapping[str, float]]) -> Path:
    path = Path(path)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["station", *names])
        for station in table:
            writer.writerow([station, *(repr(float(table[station][n])) for n in names)])
    return path


# ---------------------------------------------------------------------------
# Quality control
# ---------------------------------------------------------------------------

def _days_in_year(year: int) -> int:
    return 366 if calendar.isleap(year) else 365


def load_and_qc(
    event_paths,
    policy: QcPolicy = QcPolicy(),
    covariates: Mapping[str, Mapping[str, float]] | None = None,
) -> tuple[list[StationRecord], QcLedger]:
    """Parse, flag-filter, and year/station-filter the raw daily records.

    Returns retained stations (only their retained years) plus the ledger.
    """
    series, ledger = read_event_file(event_paths)
    records: list[StationRecord] = []
    for station in sorted(series):
        dates, values, flags = series[station]
        flagged = np.array([bool(f) for f in flags])
        if policy.drop_flagged and flagged.any():
            n_flagged = int(flagged.sum())
            ledger.add(station, "FLAGGED_VALUE", f"{n_flagged} flagged values removed")
            values = values.copy()
            values[flagged] = np.nan
        observed = ~np.isnan(values)
        years_all = dates.astype("datetime64[Y]").astype(int) + 1970
        retained_years: list[int] = []
        for year in np.unique(years_all):
            n_obs = int(np.count_nonzero(observed & (years_all == year)))
            missing = _days_in_year(int(year)) - n_obs
            if missing > policy.max_missing_days:
                ledger.add(station, "YEAR_MISSING_BUDGET", f"{missing} missing days", int(year))
            else:
                retained_years.append(int(year))
        if len(retained_years) <= policy.min_retained_years:
            ledger.add(
                station,
                "STATION_TOO_SHORT",
                f"{len(retained_years)} retained years <= {policy.min_retained_years}",
            )
            continue
        keep = observed & np.isin(years_all, retained_years)
        record = StationRecord(
            station=station,
            dates=dates[keep],
            values=values[keep],
            flags=[""] * int(keep.sum()),
            covariates=dict(covariates.get(station, {})) if covariates else {},
        )
        ledger.add(station, "RETAINED_YEARS", " ".join(str(y) for y in retained_years))
        records.append(record)
    return records, ledger


def build_dataset(
    records: Sequence[StationRecord],
    train_blocks: int,
    covariate_names: Sequence[str],
    wet_day_threshold: float = 0.0,
    trials_per_block: int = 366,
) -> Dataset:
    """Assemble the training dataset from each station's first K retained years.

    Ordinary events are the strictly positive daily values (above the wet-day
    threshold); counts are per calendar year; covariates are standardized
    over the training stations and the snapshot is attached to the dataset.
    """
    if not records:
        raise DataError("no stations to build a dataset from")
    raw_rows = []
    for rec in records:
        missing = [n for n in covariate_names if n not in rec.covariates]
        if missing:
            raise DataError(f"station {rec.station} lacks covariates {missing}")
        raw_rows.append([rec.covariates[n] for n in covariate_names])
    raw = np.asarray(raw_rows, dtype=float)
    means = raw.mean(axis=0)
    sds = raw.std(axis=0)
    if np.any(sds <= 0.0):
        bad = [covariate_names[i] for i in np.nonzero(sds <= 0.0)[0]]
        raise DataError(f"covariates {bad} are constant across training stations")
    snapshot = StandardizationSnapshot(tuple(covariate_names), means, sds)
    z_rows = snapshot.standardize(raw)

    # training years are each station's first K retained years; a common
    # block axis is required, so block labels are per-station year indices
    events: list[list[np.ndarray]] = []
    sites: list[SiteCovariates] = []
    for idx, rec in enumerate(records):
        events.append(training_events(rec, train_blocks, wet_day_threshold))
        sites.append(SiteCovariates(rec.station, z_rows[idx], dict(rec.covariates)))
    return Dataset(
        sites=sites,
        blocks=list(range(train_blocks)),
        events=events,
        trials_per_block=trials_per_block,
        snapshot=snapshot,
    )


def dataset_to_rows(dataset: Dataset, start_year: int = 2001):
    """Canonical-format rows for a dataset (used by the simulate exporter).

    Events within a block are written on consecutive days from January 1 of
    the block's synthetic year, preserving order, so re-ingestion is the
    identity on magnitudes and counts.
    """
    rows = []
    for s, site in enumerate(dataset.sites):
        for j, label in enumerate(dataset.blocks):
            year = start_year + j if label < start_year else label
            mags = dataset.events[s][j]
            if mags.size > _days_in_year(year):
                raise DataError(
                    f"block {label} at {site.station} has more events than days in {year}"
                )
            for i, value in enumerate(mags):
                rows.append((site.station, dt.date(year, 1, 1) + dt.timedelta(days=i), float(value), ""))
    return rows


def training_events(
    record: StationRecord, train_blocks: int, wet_day_threshold: float = 0.0
) -> list[np.ndarray]:
    """Per-block ordinary events from the station's first K retained years."""
    years = sorted(set(int(y) for y in record.years()))
    if len(years) < train_blocks:
        raise DataError(
            f"station {record.station}: {len(years)} retained years < train window {train_blocks}"
        )
    year_arr = record.years()
    out = []
    for year in years[:train_blocks]:
        vals = record.values[year_arr == year]
        out.append(np.sort(vals[vals > wet_day_threshold]))
    return out


def station_maxima(records: Sequence[StationRecord], exclude_first: int = 0) -> dict[str, np.ndarray]:
    """Annual maxima per station, optionally excluding each station's first
    ``exclude_first`` retained years (the training window)."""
    out = {}
    for rec in records:
        years = sorted(set(int(y) for y in rec.years()))[exclude_first:]
        year_arr = rec.years()
        maxima = []
        for year in years:
            vals = rec.values[year_arr == year]
            wet = vals[vals > 0.0]
            if wet.size:
                maxima.append(wet.max())
        out[rec.station] = np.asarray(maxima, dtype=float)
    return out


# ---------------------------------------------------------------------------
# Method of moments and prior elicitation
# ---------------------------------------------------------------------------

def _log_cv2_plus_one(shape: float) -> float:
    # log(Gamma(1 + 2/g)) - 2 log(Gamma(1 + 1/g)) = log(1 + CV^2)
    return float(gammaln(1.0 + 2.0 / shape) - 2.0 * gammaln(1.0 + 1.0 / shape))


_BISECT_RTOL = 4.0 * float(np.finfo(float).eps)


def _bisect(f, xa: float, xb: float, xtol: float) -> float:
    """Root of ``f`` on a sign-changing bracket ``[xa, xb]``, halving for
    halving as ``scipy.optimize.bisect`` (relative tolerance 4 eps, at most
    100 halvings)."""
    fa, fb = f(xa), f(xb)
    if fa == 0.0:
        return xa
    if fb == 0.0:
        return xb
    dm = xb - xa
    for _ in range(100):
        dm *= 0.5
        xm = xa + dm
        fm = f(xm)
        if fm * fa >= 0.0:
            xa = xm
        if fm == 0.0 or abs(dm) < xtol + _BISECT_RTOL * abs(xm):
            return xm
    raise ConvergenceError("bisection did not converge in 100 halvings")


def weibull_mom(sample) -> WeibullParams:
    """Weibull parameters matching the sample mean and coefficient of variation.

    Solves the CV equation for the shape by safeguarded bisection on
    [0.05, 20], then sets the scale from the mean; the log-moment residual
    is verified below 1e-10.
    """
    sample = np.asarray(sample, dtype=float)
    if sample.size < 2:
        raise ValueError("need at least 2 observations")
    mean = float(sample.mean())
    sd = float(sample.std(ddof=1))
    if sd <= 0.0 or mean <= 0.0:
        raise ValueError("sample must be positive with positive variance")
    target = float(np.log1p((sd / mean) ** 2))
    lo, hi = _MOM_BRACKET
    f_lo = _log_cv2_plus_one(lo) - target
    f_hi = _log_cv2_plus_one(hi) - target
    if f_lo < 0.0 or f_hi > 0.0:
        raise ConvergenceError(
            f"sample CV {sd / mean:.4f} outside the Weibull range bracketed by "
            f"shape in [{lo}, {hi}]"
        )
    shape = _bisect(lambda g: _log_cv2_plus_one(g) - target, lo, hi, xtol=1e-13)
    residual = abs(_log_cv2_plus_one(shape) - target)
    if residual >= 1e-10:
        raise ConvergenceError(f"moment equation residual {residual:.2e} >= 1e-10")
    scale = mean / float(np.exp(gammaln(1.0 + 1.0 / shape)))
    return WeibullParams(shape=shape, scale=scale)


@dataclass(frozen=True)
class ElicitationRules:
    """How prior centers and spreads are derived from the training stations.

    Centers: intercepts at the cross-station mean of the per-station
    method-of-moments estimates (the magnitude-shape intercept defaults to
    the geophysical value 2/3 instead); slopes at single-covariate
    least-squares fits.  Spreads: a "reasonable interval" around each center
    receives at least 0.95 prior mass; by default the interval is the center
    +- max(interval_fraction * |center|, cross-station spread of the
    response).  Explicit intervals may be supplied per coefficient name.
    """

    gamma_intercept_center: float | None = 2.0 / 3.0
    interval_fraction: float = 0.5
    intervals: Mapping[str, tuple[float, float]] | None = None
    sigma_gamma_mean_fraction: float = 0.05
    sigma_delta_mean_fraction: float = 0.25
    ig_shape: float = 3.0
    wide_sd_factor: float = 10.0

    def __post_init__(self):
        if self.interval_fraction <= 0.0 or self.ig_shape <= 1.0:
            raise ValueError("interval_fraction must be positive and ig_shape > 1")


def _sd_from_interval(center: float, lo: float, hi: float) -> float:
    if not lo < hi:
        raise ValueError("interval must satisfy lo < hi")
    return max(abs(hi - center), abs(center - lo)) / _Z95


def _ls_slope(z: np.ndarray, response: np.ndarray) -> float | None:
    var = float(np.var(z))
    if var < 1e-12:
        return None
    return float(np.cov(z, response, ddof=0)[0, 1] / var)


def _coefficient_priors(
    tag: str,
    Z: np.ndarray,
    response: np.ndarray,
    intercept_center: float,
    rules: ElicitationRules,
) -> tuple[NormalPrior, ...]:
    spread = float(np.std(response, ddof=1)) if response.size > 1 else abs(intercept_center)
    spread = max(spread, 1e-6)
    priors = []
    p1 = Z.shape[1]
    for k in range(p1):
        name = f"{tag}[{k}]"
        if k == 0:
            center = intercept_center
        else:
            slope = _ls_slope(Z[:, k], response)
            if slope is None:
                logger.warning(
                    "%s: covariate column %d is collinear/constant; slope prior falls back "
                    "to mean 0 with a wide sd",
                    name,
                    k,
                )
                priors.append(NormalPrior(0.0, rules.wide_sd_factor * spread / _Z95))
                continue
            center = slope
        if rules.intervals and name in rules.intervals:
            lo, hi = rules.intervals[name]
            sd = _sd_from_interval(center, lo, hi)
        else:
            half = max(rules.interval_fraction * abs(center), spread)
            sd = half / _Z95
        priors.append(NormalPrior(center, sd))
    return tuple(priors)


def elicit_priors(dataset: Dataset, rules: ElicitationRules = ElicitationRules()) -> ShmevPriorSpec:
    """Empirical-Bayes priors for the spatial model from the training stations.

    Per-station Weibull method-of-moments fits (events pooled over training
    blocks) give the magnitude responses; wet-day rates give the occurrence
    response on the logit scale.  The latent-scale priors are inverse gamma
    with means set to fixed fractions of the respective location-intercept
    centers (the scale layer is allowed to vary across years more than the
    shape layer).
    """
    if dataset.n_sites < 2:
        raise ValueError("need at least 2 stations for elicitation")
    gam_hat, dlt_hat, rate_hat = [], [], []
    counts = dataset.counts()
    n_days = dataset.n_blocks * dataset.trials_per_block
    for s in range(dataset.n_sites):
        station = dataset.sites[s].station
        pooled = np.concatenate([m for m in dataset.events[s] if m.size]) if counts[s].sum() else np.zeros(0)
        if pooled.size < 2:
            raise ValueError(f"station {station} has too few events to elicit from")
        try:
            mom = weibull_mom(pooled)
        except ValueError as exc:
            raise ValueError(f"station {station}: {exc}") from exc
        gam_hat.append(float(mom.shape))
        dlt_hat.append(float(mom.scale))
        rate = counts[s].sum() / n_days
        rate_hat.append(float(logit(np.clip(rate, 1e-6, 1.0 - 1e-6))))
    gam_hat = np.asarray(gam_hat)
    dlt_hat = np.asarray(dlt_hat)
    rate_hat = np.asarray(rate_hat)
    Z = dataset.design_matrix()

    gamma_center = (
        rules.gamma_intercept_center
        if rules.gamma_intercept_center is not None
        else float(gam_hat.mean())
    )
    beta_gamma = _coefficient_priors("beta_gamma", Z, gam_hat, gamma_center, rules)
    beta_delta = _coefficient_priors("beta_delta", Z, dlt_hat, float(dlt_hat.mean()), rules)
    beta_lambda = _coefficient_priors("beta_lambda", Z, rate_hat, float(rate_hat.mean()), rules)
    return ShmevPriorSpec(
        beta_gamma=beta_gamma,
        beta_delta=beta_delta,
        beta_lambda=beta_lambda,
        sigma_gamma=InverseGammaPrior.from_mean(
            rules.sigma_gamma_mean_fraction * beta_gamma[0].mean, rules.ig_shape
        ),
        sigma_delta=InverseGammaPrior.from_mean(
            rules.sigma_delta_mean_fraction * beta_delta[0].mean, rules.ig_shape
        ),
    )


def elicit_hmev_priors(
    events: Sequence[np.ndarray],
    trials_per_block: int,
    rules: ElicitationRules = ElicitationRules(),
    rate_concentration: float = 20.0,
) -> HmevPriorSpec:
    """Single-site priors: inverse gamma mean-matched to the station's
    method-of-moments fit, beta prior centered on its wet-day rate."""
    pooled = np.concatenate([np.asarray(m, dtype=float) for m in events if np.asarray(m).size])
    if pooled.size < 2:
        raise ValueError("too few events to elicit single-site priors")
    mom = weibull_mom(pooled)
    gamma_center = (
        rules.gamma_intercept_center if rules.gamma_intercept_center is not None else float(mom.shape)
    )
    rate = sum(np.asarray(m).size for m in events) / (len(events) * trials_per_block)
    rate = float(np.clip(rate, 1e-4, 1.0 - 1e-4))
    return HmevPriorSpec(
        mu_gamma=InverseGammaPrior.from_mean(gamma_center, rules.ig_shape),
        sigma_gamma=InverseGammaPrior.from_mean(
            rules.sigma_gamma_mean_fraction * gamma_center, rules.ig_shape
        ),
        mu_delta=InverseGammaPrior.from_mean(float(mom.scale), rules.ig_shape),
        sigma_delta=InverseGammaPrior.from_mean(
            rules.sigma_delta_mean_fraction * float(mom.scale), rules.ig_shape
        ),
        event_rate=BetaPrior(rate_concentration * rate, rate_concentration * (1.0 - rate)),
    )


# ---------------------------------------------------------------------------
# GHCN daily converter
# ---------------------------------------------------------------------------

def convert_ghcn_dly(in_path: str | Path, out_path: str | Path, element: str = "PRCP") -> Path:
    """Convert a fixed-width GHCN daily archive file to the canonical format.

    Values are tenths of mm in the archive; -9999 means missing.  The
    archive quality flag is carried through unchanged.
    """
    in_path = Path(in_path)
    rows = []
    with open(in_path, encoding="utf-8") as fh:
        for line in fh:
            if len(line) < 269 or line[17:21] != element:
                continue
            station = line[0:11].strip()
            year = int(line[11:15])
            month = int(line[15:17])
            _, month_days = calendar.monthrange(year, month)
            for day in range(month_days):
                offset = 21 + day * 8
                value = int(line[offset : offset + 5])
                qflag = line[offset + 6 : offset + 7].strip()
                date = dt.date(year, month, day + 1)
                if value == -9999:
                    rows.append((station, date, None, qflag))
                else:
                    rows.append((station, date, value / 10.0, qflag))
    rows.sort(key=lambda r: (r[0], r[1]))
    out_path = Path(out_path)
    with open(out_path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(EVENT_HEADER)
        for station, date, value, qflag in rows:
            writer.writerow(
                [station, date.isoformat(), "" if value is None else repr(float(value)), qflag]
            )
    return out_path
