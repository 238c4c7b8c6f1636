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

Every station or grid point of a command is inverted in one lockstep pass
(:func:`invert_quantiles`): the draws of consecutive estimates are copied
into row chunks of a fixed number of (draw, block) elements, and each
Newton step evaluates the one cdf kernel over a chunk's active rows in
reused buffers.  A row's arithmetic does not depend on its chunk, so the
quantiles equal a one-estimate-at-a-time inversion bit for bit;
:meth:`MaximaCdfEstimate.per_draw_quantiles` is the one-estimate call.
"""
from __future__ import annotations

import json
from collections import deque
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Iterator, Sequence

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
    "invert_quantiles",
    "default_y_grid",
    "GridCovariates",
    "ReturnLevelField",
    "return_level_map",
    "write_return_level_field",
]

# the default grid spans these multiples of the smallest and largest magnitude
_GRID_LOW_FACTOR = 0.1
_GRID_HIGH_FACTOR = 5.0

# quantile inversion solves draws in row chunks of at most this many (draw,
# block) elements: enough rows to spread each Newton step's interpreter
# overhead, few enough that the chunk's buffers stay in cache
_CHUNK_ELEMENTS = 16384


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

    def __post_init__(self):
        if not (self.gamma.shape == self.delta.shape == self.n.shape) or self.gamma.ndim != 2:
            raise ValueError("block arrays must share shape (B, M)")

    @property
    def n_draws(self) -> int:
        return self.gamma.shape[0]

    def cdf_kernel(
        self, y: np.ndarray, rows=slice(None), slope: bool = False, out: np.ndarray | None = None
    ) -> tuple[np.ndarray, np.ndarray | None]:
        """Exact maxima cdf ``G_b(y_b) = mean_j F(y_b; gamma_bj, delta_bj)^n_bj``
        of the draws ``rows`` at one point per row, and with ``slope`` also
        ``dG_b/dlog y = mean_j n F^(n-1) e^(-t) t gamma`` with
        ``t = (y/delta)^gamma``; otherwise the second entry is None.

        The three (rows, M) temporaries live in ``out``, a (3, R, M) float
        array with R at least the number of rows, and are allocated when it
        is None."""
        y = np.asarray(y, dtype=float)[:, None]
        gamma, n, delta = self.gamma[rows], self.n[rows], self.delta[rows]
        z, t, f = np.empty((3, *gamma.shape)) if out is None else out[:, : gamma.shape[0]]
        # in place: at thousands of draws each fresh (rows, M) temporary
        # costs page faults comparable to its arithmetic
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            logy = np.where(y > 0.0, np.log(np.maximum(y, 1e-300)), -np.inf)
            np.log(delta, out=z)
            np.subtract(logy, z, out=z)
            z *= gamma
            np.exp(z, out=t)
            np.negative(t, out=f)
            np.expm1(f, out=f)
            np.negative(f, out=f)
        if slope:
            np.subtract(z, t, out=z)  # before t's buffer takes the members
        members = np.power(f, n, out=t)
        cdf = members.mean(axis=1)
        if not slope:
            return cdf, None
        # n F^n / F stands for n F^(n-1): where F < 1e-300, t < 1e-300 and the
        # e^(-t) t = exp(z - t) factor makes the member slope vanish anyway
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
    return BlockDraws(gamma=gamma, delta=delta, n=n)


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

        The one-estimate call of :func:`invert_quantiles`, which documents
        the solver; equal probabilities get identical columns.
        """
        return next(invert_quantiles([(self, probs)], tol))


class _Inversion:
    """One estimate's share of :func:`invert_quantiles`: its distinct
    levels, bracket and solver settings, and its (B, levels) solutions as
    the chunks fill them."""

    def __init__(self, est: MaximaCdfEstimate, probs, tol: float | None):
        probs = np.atleast_1d(np.asarray(probs, dtype=float))
        if np.any(probs <= 0.0) or np.any(probs >= 1.0):
            raise ValueError("probabilities must lie in (0, 1)")
        self.levels, self.inverse = np.unique(probs, return_inverse=True)
        self.tol = est.config.cdf_tol if tol is None else tol
        self.max_extensions = est.config.max_extensions
        self.bracket = (float(est.y[0]), float(est.y[-1]))
        self.solved = np.empty((est.n_draws, self.levels.size))
        self.rows_left = est.n_draws

    def unreachable(self) -> ConvergenceError:
        return ConvergenceError(
            f"target probability {float(self.levels[-1])} unreachable after "
            f"{self.max_extensions} grid extensions"
        )


class _RowChunk:
    """Draws of consecutive estimates solved in lockstep: copies of their
    (rows, M) blocks, the per-row bracket and levels, and the reused buffers
    the active rows' blocks and the kernel's temporaries go to."""

    def __init__(self, m: int):
        self.capacity = max(1, _CHUNK_ELEMENTS // m)
        self.gamma, self.delta, self.n = np.empty((3, self.capacity, m))
        self.active = np.empty((3, self.capacity, m))
        self.scratch = np.empty((3, self.capacity, m))
        # (estimate's share, its draws, their chunk rows) in chunk order
        self.segments: list[tuple[_Inversion, slice, slice]] = []
        self.size = 0

    @property
    def free(self) -> int:
        return self.capacity - self.size

    def add(self, job: _Inversion, est: MaximaCdfEstimate, start: int, stop: int) -> None:
        """Copy the draws ``start:stop`` of ``job``'s estimate into the chunk."""
        draws, rows = slice(start, stop), slice(self.size, self.size + stop - start)
        self.gamma[rows] = est.blocks.gamma[draws]
        self.delta[rows] = est.blocks.delta[draws]
        self.n[rows] = est.blocks.n[draws]
        self.segments.append((job, draws, rows))
        self.size = rows.stop

    def kernel(self, y: np.ndarray, act: np.ndarray, slope: bool):
        """``BlockDraws.cdf_kernel`` of the chunk rows ``act`` at ``y``."""
        k = act.size
        gamma, delta, n = self.active[:, :k]
        np.take(self.gamma, act, axis=0, out=gamma)
        np.take(self.delta, act, axis=0, out=delta)
        np.take(self.n, act, axis=0, out=n)
        blocks = BlockDraws(gamma=gamma, delta=delta, n=n)
        return blocks.cdf_kernel(y, slope=slope, out=self.scratch)

    def solve(self) -> None:
        """Invert every row at its estimate's levels, hand each estimate its
        rows, and empty the chunk."""
        size, segments = self.size, self.segments
        n_levels = np.empty(size, dtype=int)
        levels = np.full((size, max(job.levels.size for job, _, _ in segments)), np.nan)
        y_lo, hi_global, tol = np.empty((3, size))
        max_ext = np.empty(size, dtype=int)
        for job, _, rows in segments:
            n_levels[rows] = job.levels.size
            levels[rows, : job.levels.size] = job.levels
            y_lo[rows], hi_global[rows] = job.bracket
            tol[rows] = job.tol
            max_ext[rows] = job.max_extensions
        p_max = levels[np.arange(size), n_levels - 1]

        # double each row's upper bracket until its cdf reaches its largest
        # level; a row still short after its estimate's last extension fails
        # it, and the first failed estimate is reported
        act, failed, extensions = np.arange(size), np.zeros(size, dtype=bool), 0
        while True:
            spent = max_ext[act] <= extensions
            failed[act[spent]] = True
            act = act[~spent]
            if act.size == 0:
                break
            short = self.kernel(hi_global[act], act, slope=False)[0] < p_max[act]
            act = act[short]
            hi_global[act] *= 2.0
            extensions += 1
        if failed.any():
            first = np.flatnonzero(failed)[0]
            raise next(job for job, _, rows in segments if first < rows.stop).unreachable()

        all_rows = np.arange(size)
        x = np.sqrt(y_lo * hi_global)  # the smallest level starts midway, in log y
        g, dg = self.kernel(x, all_rows, slope=True)
        lo = np.zeros(size)
        solved = np.empty_like(levels)
        for k in range(levels.shape[1]):
            act = all_rows[n_levels > k]
            xa, ga, dga, pa, ta = x[act], g[act], dg[act], levels[act, k], tol[act]
            la, ha = lo[act], hi_global[act]
            for _ in range(200):
                below = ga < pa
                la = np.where(below, xa, la)
                ha = np.where(below, ha, xa)
                stop = np.abs(ga - pa) < ta
                stop |= (ha - la) <= 1e-12 * np.maximum(ha, 1.0)
                if stop.any():
                    done = act[stop]
                    x[done], g[done], dg[done] = xa[stop], ga[stop], dga[stop]
                    keep = ~stop
                    act, xa, ga, dga, pa, ta, la, ha = (
                        v[keep] for v in (act, xa, ga, dga, pa, ta, la, ha)
                    )
                    if act.size == 0:
                        break
                with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
                    step = xa * np.exp((pa - ga) / dga)
                inside = (la < step) & (step < ha)
                xa = np.where(inside, step, 0.5 * (la + ha))
                ga, dga = self.kernel(xa, act, slope=True)
            else:
                x[act], g[act], dg[act] = xa, ga, dga
            solved[:, k] = x
            lo = x.copy()  # the next, larger level's lower bracket
        for job, draws, rows in segments:
            job.solved[draws] = solved[rows, : job.levels.size]
            job.rows_left -= rows.stop - rows.start
        self.segments, self.size = [], 0


def invert_quantiles(
    jobs: Iterable[tuple[MaximaCdfEstimate, Sequence[float]]], tol: float | None = None
) -> Iterator[np.ndarray]:
    """Per-draw quantiles of many estimates, each at its own probabilities:
    ``jobs`` yields ``(estimate, probs)`` pairs, and each estimate's (B, k)
    quantiles are yielded in order.

    Draws of consecutive estimates are solved together, as the rows of
    chunks of at most ``_CHUNK_ELEMENTS`` (draw, block) elements; a large
    estimate splits across chunks.  An estimate is read only while its
    draws are copied into a chunk, so a lazy ``jobs`` holds few estimates
    at once.  Each row runs the same arithmetic whichever chunk it is in:

    * its upper bracket is the grid's upper end, doubled until the cdf
      reaches the estimate's largest probability, at most
      ``max_extensions`` times (else ``ConvergenceError``);
    * the distinct probabilities are solved in increasing order by
      safeguarded Newton in log y on the exact mixture cdf, the smallest
      starting midway, in log y, inside the grid, and each next one from
      the previous solution, which is also its lower bracket, so per-draw
      quantile curves are nondecreasing in the probability;
    * a Newton step is taken only when it lands strictly inside the row's
      bracket, otherwise the bracket is bisected, and the row stops once
      ``|G - p| < tol`` (the estimate's ``cdf_tol`` unless ``tol`` is
      given) or its bracket is narrower than 1e-12 relative.

    Rows with fewer distinct probabilities than others in their chunk sit
    out the extra levels.
    """
    waiting: deque[_Inversion] = deque()
    chunk: _RowChunk | None = None
    for est, probs in jobs:
        job = _Inversion(est, probs, tol)
        waiting.append(job)
        m = est.blocks.gamma.shape[1]
        if chunk is None or chunk.gamma.shape[1] != m:
            if chunk is not None and chunk.size:
                chunk.solve()
            chunk = _RowChunk(m)
        start = 0
        while start < est.n_draws:
            stop = min(est.n_draws, start + chunk.free)
            chunk.add(job, est, start, stop)
            start = stop
            if chunk.free == 0:
                chunk.solve()
                while waiting and waiting[0].rows_left == 0:
                    done = waiting.popleft()
                    yield done.solved[:, done.inverse]
    if chunk is not None and chunk.size:
        chunk.solve()
    for done in waiting:
        yield done.solved[:, done.inverse]


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
    deterministic; the points' draws are inverted together, each point's
    blocks simulated as the inversion reaches it.
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

    def estimates():
        for z, stream in zip(z_rows, streams):
            params = shmev_site_params(draws, layout, z)
            yield predictive_cdf(params, y_grid, config, np.random.default_rng(stream)), probs

    for i, q in enumerate(invert_quantiles(estimates())):
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
