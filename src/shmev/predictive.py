"""Posterior-predictive block-maxima cdfs, quantiles, and return-level grids.

For each retained posterior draw the site-level parameters are recovered
from the regression coefficients and covariates, a batch of future blocks
is simulated (latent Weibull parameters from positivity-truncated Gumbel
draws, counts from the binomial layer), and the maxima cdf is the average
of ``F(y)^n`` over those blocks.  Pooling averages the per-draw curves.

Quantiles invert each draw's exact mixture cdf by safeguarded Newton in
log y, using its analytic slope, inside a bracket that only shrinks: the
grid's upper end (doubled as needed) above and the previous, smaller
probability's solution below, so per-draw quantile curves are nondecreasing
in the probability.  Inversion reads just the grid's two ends, so the
default grid is that two-point bracket.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

import numpy as np

from .data import SiteCovariates, StandardizationSnapshot
from .distributions import GumbelParams, gumbel_sample_positive
from .errors import ConvergenceError
from .model import HmevLayout, ShmevLayout
from .special import expit

__all__ = [
    "PredictiveConfig",
    "BlockDraws",
    "MaximaCdfEstimate",
    "SitePredictiveParams",
    "shmev_site_params",
    "hmev_site_params",
    "simulate_future_blocks",
    "predictive_cdf",
    "predictive_quantile",
    "default_y_grid",
    "GridCovariates",
    "ReturnLevelField",
    "return_level_map",
    "write_return_level_field",
]

# the default grid spans these multiples of the smallest and largest magnitude
_GRID_LOW_FACTOR = 0.1
_GRID_HIGH_FACTOR = 5.0


@dataclass(frozen=True)
class PredictiveConfig:
    """Knobs for the posterior-predictive estimators.

    ``blocks_per_draw`` is the number of simulated future blocks per retained
    draw; the default keeps per-draw noise below the credible-band width at
    the default posterior size.
    """

    blocks_per_draw: int = 100
    trials_per_block: int = 366
    cdf_tol: float = 1e-6
    max_extensions: int = 60

    def __post_init__(self):
        if self.blocks_per_draw < 1:
            raise ValueError("blocks_per_draw must be >= 1")
        if self.trials_per_block < 1:
            raise ValueError("trials_per_block must be >= 1")


@dataclass(eq=False)
class SitePredictiveParams:
    """Per-draw latent-layer parameters at one site."""

    mu_gamma: np.ndarray
    sigma_gamma: np.ndarray
    mu_delta: np.ndarray
    sigma_delta: np.ndarray
    event_prob: np.ndarray

    def __post_init__(self):
        n = self.mu_gamma.size
        for name in ("sigma_gamma", "mu_delta", "sigma_delta", "event_prob"):
            if getattr(self, name).size != n:
                raise ValueError("per-draw parameter arrays must share length B")

    @property
    def n_draws(self) -> int:
        return self.mu_gamma.size


def shmev_site_params(draws: np.ndarray, layout: ShmevLayout, site: SiteCovariates | np.ndarray) -> SitePredictiveParams:
    """Recover per-draw (mu_gamma, sigma_gamma, mu_delta, sigma_delta, lambda)
    at a site from spatial-model draws and the site's standardized covariates."""
    z = site.z if isinstance(site, SiteCovariates) else np.asarray(site, dtype=float)
    if z.size != layout.n_covariates + 1:
        raise ValueError(
            f"covariate row has {z.size} entries, layout expects {layout.n_covariates + 1}"
        )
    return SitePredictiveParams(
        mu_gamma=draws[:, layout.beta_gamma] @ z,
        sigma_gamma=np.exp(draws[:, layout.log_sigma_gamma]),
        mu_delta=draws[:, layout.beta_delta] @ z,
        sigma_delta=np.exp(draws[:, layout.log_sigma_delta]),
        event_prob=expit(draws[:, layout.beta_lambda] @ z),
    )


def hmev_site_params(draws: np.ndarray, layout: HmevLayout) -> SitePredictiveParams:
    return SitePredictiveParams(
        mu_gamma=np.exp(draws[:, layout.log_mu_gamma]),
        sigma_gamma=np.exp(draws[:, layout.log_sigma_gamma]),
        mu_delta=np.exp(draws[:, layout.log_mu_delta]),
        sigma_delta=np.exp(draws[:, layout.log_sigma_delta]),
        event_prob=expit(draws[:, layout.logit_lambda]),
    )


@dataclass(eq=False)
class BlockDraws:
    """Simulated future blocks: (B, M) Weibull parameters and counts."""

    gamma: np.ndarray
    delta: np.ndarray
    n: np.ndarray
    trials: int

    def __post_init__(self):
        if not (self.gamma.shape == self.delta.shape == self.n.shape) or self.gamma.ndim != 2:
            raise ValueError("block arrays must share shape (B, M)")

    @property
    def n_draws(self) -> int:
        return self.gamma.shape[0]

    def cdf_kernel(
        self, y: np.ndarray, rows=slice(None), slope: bool = False
    ) -> tuple[np.ndarray, np.ndarray | None]:
        """Exact maxima cdf ``G_b(y_b) = mean_j F(y_b; gamma_bj, delta_bj)^n_bj``
        of the draws ``rows`` at one point per row, and with ``slope`` also
        ``dG_b/dlog y = mean_j n F^(n-1) e^(-t) t gamma`` with
        ``t = (y/delta)^gamma``; otherwise the second entry is None."""
        y = np.asarray(y, dtype=float)[:, None]
        gamma, n = self.gamma[rows], self.n[rows]
        # in place: at thousands of draws each fresh (rows, M) temporary
        # costs page faults comparable to its arithmetic
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            logy = np.where(y > 0.0, np.log(np.maximum(y, 1e-300)), -np.inf)
            z = np.log(self.delta[rows])
            np.subtract(logy, z, out=z)
            z *= gamma
            t = np.exp(z)
            f = np.negative(t)
            np.expm1(f, out=f)
            np.negative(f, out=f)
        members = np.power(f, n)
        cdf = members.mean(axis=1)
        if not slope:
            return cdf, None
        # n F^n / F stands for n F^(n-1): where F < 1e-300, t < 1e-300 and the
        # e^(-t) t = exp(z - t) factor makes the member slope vanish anyway
        np.subtract(z, t, out=z)
        np.exp(z, out=z)
        z *= gamma
        members *= n
        members /= np.maximum(f, 1e-300, out=f)
        members *= z
        return cdf, members.mean(axis=1)

    def cdf_at(self, y: np.ndarray) -> np.ndarray:
        """Exact per-draw maxima cdf at per-draw points ``y`` (B,) -> (B,)."""
        return self.cdf_kernel(y)[0]


def simulate_future_blocks(
    params: SitePredictiveParams,
    config: PredictiveConfig,
    rng: np.random.Generator,
) -> BlockDraws:
    """Draw ``blocks_per_draw`` future blocks for every retained draw."""
    b, m = params.n_draws, config.blocks_per_draw
    gamma = gumbel_sample_positive(
        GumbelParams(np.repeat(params.mu_gamma, m), np.repeat(params.sigma_gamma, m)),
        rng,
    ).reshape(b, m)
    delta = gumbel_sample_positive(
        GumbelParams(np.repeat(params.mu_delta, m), np.repeat(params.sigma_delta, m)),
        rng,
    ).reshape(b, m)
    n = rng.binomial(config.trials_per_block, params.event_prob[:, None], size=(b, m))
    return BlockDraws(gamma=gamma, delta=delta, n=n, trials=config.trials_per_block)


@dataclass(eq=False)
class MaximaCdfEstimate:
    """Posterior-predictive maxima cdf: the simulated blocks that allow exact
    evaluation at any point, plus an evaluation grid ``y`` whose two ends
    bracket quantile inversion."""

    y: np.ndarray
    blocks: BlockDraws
    config: PredictiveConfig
    zero_event_blocks: int = 0
    all_dry_draws: int = 0

    @property
    def n_draws(self) -> int:
        return self.blocks.n_draws

    def cdf_at(self, y) -> np.ndarray:
        """Per-draw cdf at a common scalar point or per-draw points (B,)."""
        y = np.asarray(y, dtype=float)
        if y.ndim == 0:
            y = np.full(self.n_draws, float(y))
        return self.blocks.cdf_at(y)

    def per_draw_quantiles(self, probs, tol: float | None = None) -> np.ndarray:
        """Invert each draw's cdf at every probability; (k,) -> (B, k).

        Safeguarded Newton in log y on the exact mixture cdf: a draw stops
        once ``|G - p| < tol`` or its bracket is narrower than 1e-12
        relative, and converged draws drop out of the evaluation.  A Newton
        step is taken only when it lands strictly inside the draw's bracket;
        otherwise the bracket is bisected.  The distinct probabilities are
        solved in increasing order, each starting from the previous solution,
        which is also its lower bracket, so per-draw quantile curves are
        nondecreasing in the probability by construction; the upper bracket
        is the grid's upper end, doubled until it reaches the largest
        probability.  Equal probabilities get identical columns.
        """
        probs = np.atleast_1d(np.asarray(probs, dtype=float))
        if np.any(probs <= 0.0) or np.any(probs >= 1.0):
            raise ValueError("probabilities must lie in (0, 1)")
        tol = self.config.cdf_tol if tol is None else tol
        levels, inverse = np.unique(probs, return_inverse=True)
        b = self.n_draws
        out = np.empty((b, levels.size))

        hi_global = np.full(b, float(self.y[-1]))
        pmax = float(levels[-1])
        for _ in range(self.config.max_extensions):
            short = self.cdf_at(hi_global) < pmax
            if not short.any():
                break
            hi_global[short] *= 2.0
        else:
            raise ConvergenceError(
                f"target probability {pmax} unreachable after "
                f"{self.config.max_extensions} grid extensions"
            )

        lo = np.zeros(b)
        # the smallest probability starts midway, in log y, inside the grid
        x = np.sqrt(self.y[0] * hi_global)
        g, dg = self.blocks.cdf_kernel(x, slope=True)
        for k, p in enumerate(levels):
            hi = hi_global.copy()
            act = np.arange(b)
            for _ in range(200):
                below = g[act] < p
                lo[act] = np.where(below, x[act], lo[act])
                hi[act] = np.where(below, hi[act], x[act])
                stop = np.abs(g[act] - p) < tol
                stop |= (hi[act] - lo[act]) <= 1e-12 * np.maximum(hi[act], 1.0)
                act = act[~stop]
                if act.size == 0:
                    break
                with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
                    step = x[act] * np.exp((p - g[act]) / dg[act])
                inside = (lo[act] < step) & (step < hi[act])
                x[act] = np.where(inside, step, 0.5 * (lo[act] + hi[act]))
                g[act], dg[act] = self.blocks.cdf_kernel(x[act], act, slope=True)
            out[:, k] = x
            lo = x.copy()  # the next, larger probability's lower bracket
        return out[:, inverse]


def default_y_grid(magnitudes) -> np.ndarray:
    """The evaluation grid ``[lo, hi]``: the quantile bracket, spanning well
    past the range of the positive ``magnitudes``."""
    mags = np.asarray(magnitudes, dtype=float)
    mags = mags[mags > 0]
    if mags.size == 0:
        raise ValueError("need at least one positive magnitude for the grid")
    return np.array([_GRID_LOW_FACTOR * mags.min(), _GRID_HIGH_FACTOR * mags.max()])


def predictive_cdf(
    params: SitePredictiveParams,
    y_grid: np.ndarray,
    config: PredictiveConfig,
    rng: np.random.Generator,
) -> MaximaCdfEstimate:
    """Posterior-predictive maxima cdf for one site, with ``y_grid`` as its
    evaluation grid; no grid values are computed here.

    Blocks with a zero event count contribute ``F^0 = 1`` to the average
    (no events means the block maximum is degenerate); their number is
    reported so downstream consumers can flag affected sites.
    """
    y_grid = np.asarray(y_grid, dtype=float)
    if y_grid.ndim != 1 or y_grid.size < 2 or np.any(np.diff(y_grid) <= 0.0) or y_grid[0] <= 0.0:
        raise ValueError("y grid must be a positive strictly increasing vector")
    blocks = simulate_future_blocks(params, config, rng)
    zero_blocks = int((blocks.n == 0).sum())
    all_dry = int(np.all(blocks.n == 0, axis=1).sum())
    return MaximaCdfEstimate(
        y=y_grid,
        blocks=blocks,
        config=config,
        zero_event_blocks=zero_blocks,
        all_dry_draws=all_dry,
    )


def predictive_quantile(est: MaximaCdfEstimate, prob: float) -> tuple[float, float, float]:
    """Posterior mean and central 90% band of the per-draw quantiles at ``prob``."""
    q = est.per_draw_quantiles([float(prob)])[:, 0]
    return float(q.mean()), float(np.quantile(q, 0.05)), float(np.quantile(q, 0.95))


def gev_per_draw_quantiles(draws: np.ndarray, probs) -> np.ndarray:
    """Closed-form per-draw GEV quantiles for benchmark draws
    ``[loc, log_scale, shape]``; (B, 3) and (k,) -> (B, k)."""
    draws = np.atleast_2d(np.asarray(draws, dtype=float))
    probs = np.atleast_1d(np.asarray(probs, dtype=float))
    if np.any(probs <= 0.0) or np.any(probs >= 1.0):
        raise ValueError("probabilities must lie in (0, 1)")
    loc = draws[:, 0][:, None]
    scale = np.exp(draws[:, 1])[:, None]
    shape = draws[:, 2][:, None]
    loglog = np.log(-np.log(probs))[None, :]
    shape_safe = np.where(np.abs(shape) < 1e-10, 1.0, shape)
    general = loc + scale * np.expm1(-shape * loglog) / shape_safe
    gumbel_limit = loc - scale * loglog
    return np.where(np.abs(shape) < 1e-10, gumbel_limit, general)


# ---------------------------------------------------------------------------
# Gridded return levels
# ---------------------------------------------------------------------------

@dataclass(eq=False)
class GridCovariates:
    """Raster points with raw covariates and the standardization snapshot
    they must be transformed with (declaring it is mandatory)."""

    names: tuple[str, ...]
    values: np.ndarray  # (n_points, k) raw covariates
    snapshot: StandardizationSnapshot

    def __post_init__(self):
        if self.snapshot is None:
            raise ValueError(
                "raster must declare the standardization snapshot used for training"
            )
        self.values = np.atleast_2d(np.asarray(self.values, dtype=float))
        if tuple(self.names) != tuple(self.snapshot.names):
            raise ValueError(
                f"raster covariates {tuple(self.names)} do not match snapshot {self.snapshot.names}"
            )
        if self.values.shape[1] != len(self.names):
            raise ValueError("one raw column per covariate name required")

    @property
    def n_points(self) -> int:
        return self.values.shape[0]

    def design_rows(self) -> np.ndarray:
        return self.snapshot.standardize(self.values)


@dataclass(eq=False)
class ReturnLevelField:
    """Gridded return-level estimates with pointwise 90% bands."""

    grid: GridCovariates
    return_periods: np.ndarray            # (nT,) years
    mean: np.ndarray                      # (n_points, nT) mm
    q05: np.ndarray
    q95: np.ndarray
    metadata: dict = field(default_factory=dict)


def return_level_map(
    draws: np.ndarray,
    layout: ShmevLayout,
    grid: GridCovariates,
    return_periods: Sequence[float],
    config: PredictiveConfig,
    seed: int,
    y_grid: np.ndarray,
) -> ReturnLevelField:
    """Evaluate predictive return levels at every grid point.

    Return periods ``T`` map to probabilities ``1 - 1/T``.  Each point uses
    an independent random stream spawned from ``seed``, so the output is
    deterministic and points are safe to evaluate concurrently.
    """
    periods = np.asarray(sorted(return_periods), dtype=float)
    if np.any(periods <= 1.0):
        raise ValueError("return periods must exceed 1 year")
    probs = 1.0 - 1.0 / periods
    z_rows = grid.design_rows()
    streams = np.random.SeedSequence(seed).spawn(grid.n_points)
    mean = np.empty((grid.n_points, periods.size))
    q05 = np.empty_like(mean)
    q95 = np.empty_like(mean)
    for i in range(grid.n_points):
        rng = np.random.default_rng(streams[i])
        params = shmev_site_params(draws, layout, z_rows[i])
        est = predictive_cdf(params, y_grid, config, rng)
        q = est.per_draw_quantiles(probs)
        mean[i] = q.mean(axis=0)
        q05[i] = np.quantile(q, 0.05, axis=0)
        q95[i] = np.quantile(q, 0.95, axis=0)
    return ReturnLevelField(
        grid=grid,
        return_periods=periods,
        mean=mean,
        q05=q05,
        q95=q95,
        metadata={
            "seed": seed,
            "blocks_per_draw": config.blocks_per_draw,
            "n_draws": int(draws.shape[0]),
            "trials_per_block": config.trials_per_block,
            "snapshot": grid.snapshot.to_dict(),
        },
    )


def write_return_level_field(field_: ReturnLevelField, path: str | Path) -> Path:
    """Write the raster as columnar text (one row per point and period) plus
    a JSON metadata sidecar recording seed, sizes, and the snapshot."""
    path = Path(path)
    cols = list(field_.grid.names) + ["T", "rl_mean", "rl_q05", "rl_q95"]
    lines = [",".join(cols)]
    for i in range(field_.grid.n_points):
        raw = field_.grid.values[i]
        for t_idx, period in enumerate(field_.return_periods):
            row = [repr(float(v)) for v in raw]
            row += [
                repr(float(period)),
                repr(float(field_.mean[i, t_idx])),
                repr(float(field_.q05[i, t_idx])),
                repr(float(field_.q95[i, t_idx])),
            ]
            lines.append(",".join(row))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    sidecar = path.with_suffix(path.suffix + ".meta.json")
    sidecar.write_text(json.dumps(field_.metadata, sort_keys=True, indent=1) + "\n")
    return path
