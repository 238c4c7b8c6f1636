"""Synthetic-data generators for the three study scenarios.

``WEI`` draws per-block Weibull parameters from Gumbel layers truncated to
positive values (``distributions.gumbel_sample_positive``, by inverse cdf)
whose locations follow a linear spatial trend; ``WEI_gp`` adds a zero-mean
Gaussian process with exponential covariance to both location trends;
``GM`` replaces the magnitude family with a gamma distribution whose
parameters follow the trends directly (no inter-block variability), so it
lies outside the fitted model family.  Counts are binomial with a
logit-linear trend in all scenarios.  The numeric trend coefficients are
configurable defaults chosen to land magnitudes and wet-day counts in a
realistic daily-rainfall range.
"""
from __future__ import annotations

from dataclasses import dataclass
import numpy as np

from .data import Dataset, SiteCovariates, StandardizationSnapshot
from .distributions import GumbelParams, gumbel_sample_positive
from .errors import NumericError
from .special import expit

__all__ = [
    "ScenarioConfig",
    "SiteFields",
    "SyntheticDataset",
    "gp_sample",
    "simulate_scenario",
    "true_maxima_sample",
    "true_quantile_oracle",
    "true_standardized_coefficients",
]

SCENARIOS = ("WEI", "WEI_gp", "GM")

_GP_JITTER = 1e-10
_ORACLE_YEAR_CHUNK = 100_000


@dataclass(frozen=True)
class ScenarioConfig:
    scenario: str = "WEI"
    n_sites: int = 27
    train_blocks: int = 20
    test_blocks: int = 100
    shape_trend: tuple[float, float, float] = (0.7, 0.1, -0.1)
    scale_trend: tuple[float, float, float] = (9.0, 2.0, 1.0)
    count_trend: tuple[float, float, float] = (-0.9, 0.2, -0.3)
    shape_spread: float = 0.05   # Gumbel scale of the Weibull-shape layer
    scale_spread: float = 1.5    # Gumbel scale of the Weibull-scale layer
    gp_variance: float = 0.2     # alpha, WEI_gp only
    gp_range: float = 0.3        # nu, WEI_gp only
    trials_per_block: int = 366
    seed: int = 0

    def __post_init__(self):
        if self.scenario not in SCENARIOS:
            raise ValueError(f"scenario must be one of {SCENARIOS}")
        if self.n_sites < 1 or self.train_blocks < 1 or self.test_blocks < 1:
            raise ValueError("site and block counts must be >= 1")
        if self.scenario == "WEI_gp" and (self.gp_variance <= 0.0 or self.gp_range <= 0.0):
            raise ValueError("WEI_gp requires positive gp_variance and gp_range")
        if self.shape_spread < 0.0 or self.scale_spread < 0.0:
            raise ValueError("Gumbel spreads must be >= 0")


@dataclass(eq=False)
class SiteFields:
    """Ground-truth per-site parameter fields of the generating process."""

    coords: np.ndarray       # (S, 2) in the unit square
    shape_loc: np.ndarray    # Gumbel location of the Weibull shape (or gamma shape)
    scale_loc: np.ndarray    # Gumbel location of the Weibull scale (or gamma scale)
    event_prob: np.ndarray   # binomial success probability
    family: str              # "weibull" | "gamma"


@dataclass(eq=False)
class SyntheticDataset:
    config: ScenarioConfig
    fields: SiteFields
    train: Dataset
    test_maxima: np.ndarray  # (S, test_blocks), NaN where a block had no events


def gp_sample(coords: np.ndarray, variance: float, corr_range: float, rng: np.random.Generator) -> np.ndarray:
    """Zero-mean Gaussian process draw with covariance
    ``variance * exp(-d / corr_range)`` over pairwise Euclidean distances.

    A diagonal jitter of 1e-10 is added when the plain Cholesky
    factorization fails; matrices singular beyond that tolerance raise.
    """
    coords = np.atleast_2d(np.asarray(coords, dtype=float))
    if variance <= 0.0 or corr_range <= 0.0:
        raise ValueError("variance and corr_range must be positive")
    d = np.linalg.norm(coords[:, None, :] - coords[None, :, :], axis=-1)
    cov = variance * np.exp(-d / corr_range)
    try:
        chol = np.linalg.cholesky(cov)
    except np.linalg.LinAlgError:
        try:
            chol = np.linalg.cholesky(cov + _GP_JITTER * np.eye(coords.shape[0]))
        except np.linalg.LinAlgError as exc:
            raise NumericError(
                "GP covariance is singular beyond the 1e-10 jitter tolerance "
                "(duplicate coordinates?)"
            ) from exc
    return chol @ rng.standard_normal(coords.shape[0])


def _trend(coeffs, coords: np.ndarray) -> np.ndarray:
    b0, b1, b2 = coeffs
    return b0 + b1 * coords[:, 0] + b2 * coords[:, 1]


def _site_fields(cfg: ScenarioConfig, rng: np.random.Generator) -> SiteFields:
    coords = rng.random((cfg.n_sites, 2))
    shape_loc = _trend(cfg.shape_trend, coords)
    scale_loc = _trend(cfg.scale_trend, coords)
    if cfg.scenario == "WEI_gp":
        shape_loc = shape_loc + gp_sample(coords, cfg.gp_variance, cfg.gp_range, rng)
        scale_loc = scale_loc + gp_sample(coords, cfg.gp_variance, cfg.gp_range, rng)
    event_prob = expit(_trend(cfg.count_trend, coords))
    family = "gamma" if cfg.scenario == "GM" else "weibull"
    if family == "gamma" and (np.any(shape_loc <= 0.0) or np.any(scale_loc <= 0.0)):
        # positivity enforced by redrawing offending site coordinates
        for _ in range(10_000):
            bad = (shape_loc <= 0.0) | (scale_loc <= 0.0)
            if not bad.any():
                break
            coords[bad] = rng.random((int(bad.sum()), 2))
            shape_loc = _trend(cfg.shape_trend, coords)
            scale_loc = _trend(cfg.scale_trend, coords)
        else:
            raise NumericError("gamma trend stayed non-positive after resampling sites")
        event_prob = expit(_trend(cfg.count_trend, coords))
    return SiteFields(coords, shape_loc, scale_loc, event_prob, family)


def _draw_block_params(loc: float, spread: float, size: int, rng) -> np.ndarray:
    """Per-block positive parameter draws; a zero spread degenerates to the location."""
    if spread == 0.0:
        if loc <= 0.0:
            raise NumericError("degenerate latent layer needs a positive location")
        return np.full(size, float(loc))
    return gumbel_sample_positive(GumbelParams(loc, spread), rng, size=size)


def _simulate_blocks(
    cfg: ScenarioConfig, fields: SiteFields, n_blocks: int, rng: np.random.Generator, part: str = "training"
):
    """Per-site lists of per-block magnitude arrays, drawn per the scenario;
    a non-finite or non-positive magnitude in a ``part`` block fails."""
    events: list[list[np.ndarray]] = []
    for s in range(cfg.n_sites):
        n_events = rng.binomial(cfg.trials_per_block, fields.event_prob[s], size=n_blocks)
        if fields.family == "weibull":
            gam = _draw_block_params(fields.shape_loc[s], cfg.shape_spread, n_blocks, rng)
            dlt = _draw_block_params(fields.scale_loc[s], cfg.scale_spread, n_blocks, rng)
            site_events = [
                dlt[j] * rng.weibull(gam[j], size=int(n_events[j])) for j in range(n_blocks)
            ]
        else:
            site_events = [
                rng.gamma(fields.shape_loc[s], fields.scale_loc[s], size=int(n_events[j]))
                for j in range(n_blocks)
            ]
        for j, mags in enumerate(site_events):
            if not np.all((mags > 0.0) & (mags < np.inf)):
                raise NumericError(
                    f"scenario {cfg.scenario} drew a non-finite or non-positive magnitude at site "
                    f"S{s + 1:02d}, {part} block {j + 1} of {n_blocks}"
                )
        events.append(site_events)
    return events


def _train_dataset(cfg: ScenarioConfig, fields: SiteFields, events) -> Dataset:
    names = ("z1", "z2")
    means = fields.coords.mean(axis=0)
    sds = fields.coords.std(axis=0)
    snapshot = StandardizationSnapshot(names=names, means=means, sds=sds)
    z_rows = snapshot.standardize(fields.coords)
    sites = [
        SiteCovariates(
            station=f"S{idx + 1:02d}",
            z=z_rows[idx],
            raw={"z1": float(fields.coords[idx, 0]), "z2": float(fields.coords[idx, 1])},
        )
        for idx in range(cfg.n_sites)
    ]
    blocks = list(range(2001, 2001 + cfg.train_blocks))
    return Dataset(
        sites=sites,
        blocks=blocks,
        events=events,
        trials_per_block=cfg.trials_per_block,
        snapshot=snapshot,
    )


def simulate_scenario(cfg: ScenarioConfig) -> SyntheticDataset:
    """Generate one training dataset and an independent test-maxima sample
    from the same parameter fields.  Fully deterministic under the seed."""
    root = np.random.SeedSequence(cfg.seed)
    field_ss, train_ss, test_ss = root.spawn(3)
    fields = _site_fields(cfg, np.random.default_rng(field_ss))
    train_events = _simulate_blocks(cfg, fields, cfg.train_blocks, np.random.default_rng(train_ss))
    test_events = _simulate_blocks(cfg, fields, cfg.test_blocks, np.random.default_rng(test_ss), "test")
    test_maxima = np.full((cfg.n_sites, cfg.test_blocks), np.nan)
    for s in range(cfg.n_sites):
        for j in range(cfg.test_blocks):
            mags = test_events[s][j]
            if mags.size:
                test_maxima[s, j] = mags.max()
    return SyntheticDataset(
        config=cfg,
        fields=fields,
        train=_train_dataset(cfg, fields, train_events),
        test_maxima=test_maxima,
    )


def true_maxima_sample(
    cfg: ScenarioConfig, site: int, n_years: int, oracle_seed: int = 0
) -> np.ndarray:
    """Brute-force annual maxima from the generating process at one site.

    Simulates every ordinary event of every year (in chunks) and takes the
    per-year maximum; years with no events are dropped.
    """
    fields = _site_fields(cfg, np.random.default_rng(np.random.SeedSequence(cfg.seed).spawn(3)[0]))
    rng = np.random.default_rng(np.random.SeedSequence((cfg.seed, oracle_seed, site)))
    out = np.empty(n_years)
    filled = 0
    remaining = n_years
    while remaining > 0:
        chunk = min(_ORACLE_YEAR_CHUNK, remaining)
        n_events = rng.binomial(cfg.trials_per_block, fields.event_prob[site], size=chunk)
        if fields.family == "weibull":
            gam = _draw_block_params(fields.shape_loc[site], cfg.shape_spread, chunk, rng)
            dlt = _draw_block_params(fields.scale_loc[site], cfg.scale_spread, chunk, rng)
            x = np.repeat(dlt, n_events) * rng.weibull(np.repeat(gam, n_events))
        else:
            x = rng.gamma(fields.shape_loc[site], fields.scale_loc[site], size=int(n_events.sum()))
        nonzero = n_events > 0
        starts = np.concatenate([[0], np.cumsum(n_events)[:-1]])[nonzero]
        maxima = np.maximum.reduceat(x, starts) if starts.size else np.empty(0)
        out[filled : filled + maxima.size] = maxima
        filled += maxima.size
        remaining -= chunk
    return out[:filled]


def true_quantile_oracle(
    cfg: ScenarioConfig,
    site: int,
    prob: float,
    n_years: int = 1_000_000,
    oracle_seed: int = 0,
) -> tuple[float, float]:
    """Ground-truth maxima quantile at ``prob`` by direct Monte Carlo.

    Returns ``(quantile, standard_error)``; the standard error comes from
    the order-statistic bracket at ``prob +- 1.96 * sqrt(p(1-p)/n)``.
    """
    if not 0.0 < prob < 1.0:
        raise ValueError("prob must lie in (0, 1)")
    sample = np.sort(true_maxima_sample(cfg, site, n_years, oracle_seed))
    n = sample.size
    q = float(np.quantile(sample, prob))
    half = 1.959964 * np.sqrt(prob * (1.0 - prob) / n)
    lo = float(np.quantile(sample, max(prob - half, 0.0)))
    hi = float(np.quantile(sample, min(prob + half, 1.0 - 1.0 / n)))
    se = (hi - lo) / (2.0 * 1.959964)
    return q, se


def true_standardized_coefficients(synth: SyntheticDataset) -> dict[str, float]:
    """True top-level parameter values in the fitted (standardized) basis.

    Only defined for the WEI scenario, where the generating trends are exact
    linear functions of the covariates.
    """
    cfg = synth.config
    if cfg.scenario != "WEI":
        raise ValueError("exact linear truth exists only for the WEI scenario")
    snap = synth.train.snapshot
    means, sds = snap.means, snap.sds
    out: dict[str, float] = {}
    for tag, trend in (
        ("beta_gamma", cfg.shape_trend),
        ("beta_delta", cfg.scale_trend),
        ("beta_lambda", cfg.count_trend),
    ):
        b0, b1, b2 = trend
        out[f"{tag}[0]"] = b0 + b1 * means[0] + b2 * means[1]
        out[f"{tag}[1]"] = b1 * sds[0]
        out[f"{tag}[2]"] = b2 * sds[1]
    out["log_sigma_gamma"] = float(np.log(cfg.shape_spread))
    out["log_sigma_delta"] = float(np.log(cfg.scale_spread))
    return out
