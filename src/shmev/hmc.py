"""Hamiltonian Monte Carlo with step-size and diagonal mass adaptation.

The sampler runs a fixed (jittered) number of leapfrog steps per iteration,
tunes the step size by dual averaging toward a target acceptance rate during
warmup, estimates a diagonal mass matrix from a mid-warmup window, and
freezes both after warmup.  Chains own independent random streams spawned
deterministically from the seed, so results are reproducible regardless of
worker count.

Chains run as rows that advance in lockstep, from the search for the first
step sizes on: each iteration draws every row's momentum and jittered step
count from the row's own stream, moves all trajectories together until the
longest one ends, then accepts and adapts each row separately.  Each
leapfrog step evaluates the rows' targets in one call of a row-batched
kernel where their class has one (``batch_kernel``, see ``shmev.model``),
else row by row.  No arithmetic mixes rows, so a row's draws equal those of
the chain sampled alone, bit for bit.

``run_hmc_jobs`` samples several posteriors (jobs) at once, one row per
chain.  With more than one worker, the rows are split into contiguous spans
over one pool of worker processes forked from the caller, which inherit the
jobs and each chain's random stream; only a row's kept draws and its
``CHAIN_STATS`` values are sent back.
Where the ``fork`` start method does not exist, all rows run in the
calling process.

The module opens no file: ``shmev.ingest.trace_export`` writes a
posterior's draws as a table.
"""
from __future__ import annotations

import multiprocessing
from dataclasses import dataclass, replace
from functools import cached_property
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .errors import NumericError

__all__ = ["SamplerConfig", "PosteriorDraws", "HmcJob", "run_hmc", "run_hmc_jobs", "rhat_ess"]

# dual-averaging constants (Hoffman & Gelman 2014, sec. 3.2)
_DA_GAMMA = 0.05
_DA_T0 = 10.0
_DA_KAPPA = 0.75

# an energy error above this marks a trajectory divergent
_MAX_ENERGY_ERROR = 1000.0

# a warmup this long whose every iteration diverged aborts the fit; a shorter
# one is too little evidence of a broken target
_MIN_ABORT_WARMUP = 10

# (target, config, init, stream) rows of the run_hmc_jobs call whose workers
# are being forked; the workers inherit them, so nothing of them is pickled
_FORKED_ROWS = None


@dataclass(frozen=True)
class SamplerConfig:
    n_chains: int = 4
    n_iterations: int = 2000
    warmup_fraction: float = 0.5
    leapfrog_steps: int = 32
    step_jitter: float = 0.2
    target_accept: float = 0.8
    seed: int = 0

    def __post_init__(self):
        if self.n_chains < 1:
            raise ValueError("n_chains must be >= 1")
        if self.n_iterations < 2:
            raise ValueError("n_iterations must be >= 2")
        if not 0.0 < self.warmup_fraction < 1.0:
            raise ValueError("warmup_fraction must lie in (0, 1)")
        if self.leapfrog_steps < 1:
            raise ValueError("leapfrog_steps must be >= 1")
        if not 0.0 < self.target_accept < 1.0:
            raise ValueError("target_accept must lie in (0, 1)")
        if not 0.0 <= self.step_jitter < 1.0:
            raise ValueError("step_jitter must lie in [0, 1)")

    @property
    def n_warmup(self) -> int:
        return int(self.n_iterations * self.warmup_fraction)

    @property
    def n_kept(self) -> int:
        return self.n_iterations - self.n_warmup


# each per-chain statistic of a posterior and its type, in the order
# _lockstep returns a row's values
CHAIN_STATS = {
    "accept_prob": float,         # mean Metropolis acceptance probability
    "divergences": int,           # divergent trajectories after warmup
    "step_sizes": float,          # frozen step size
    "warmup_divergences": int,    # divergent warmup trajectories
    "grad_evals": int,            # gradient evaluations, warmup included
}


@dataclass(eq=False)
class PosteriorDraws:
    """Post-warmup draws merged across chains, chain after chain, and one
    array per ``CHAIN_STATS`` entry with a value per chain.  Chain labels
    follow from the draws and ``n_chains``; ``convergence`` (R-hat, ESS and
    degenerate flags) is computed on first use."""

    draws: np.ndarray            # (B, dim)
    param_names: list[str]
    n_chains: int
    accept_prob: np.ndarray
    divergences: np.ndarray
    step_sizes: np.ndarray
    warmup_divergences: np.ndarray
    grad_evals: np.ndarray

    def __post_init__(self):
        if self.n_chains < 1:
            raise ValueError("n_chains must be >= 1")
        if self.draws.ndim != 2 or self.draws.shape[0] % self.n_chains:
            raise ValueError(f"draws must be (B, dim) with B a multiple of n_chains={self.n_chains}")
        if not np.all(np.isfinite(self.draws)):
            raise ValueError("posterior draws contain non-finite entries")
        if len(self.param_names) != self.draws.shape[1]:
            raise ValueError("one parameter name per column required")
        if any(np.shape(getattr(self, name)) != (self.n_chains,) for name in CHAIN_STATS):
            raise ValueError(f"each of {', '.join(CHAIN_STATS)} must hold one value per chain")

    @property
    def n_kept_per_chain(self) -> int:
        return self.draws.shape[0] // self.n_chains

    @cached_property
    def convergence(self) -> tuple:
        """``(rhat, ess, degenerate)`` of :func:`rhat_ess`; all ``None``
        with fewer than 2 chains or 4 kept draws per chain."""
        if self.n_chains < 2 or self.n_kept_per_chain < 4:
            return None, None, None
        return rhat_ess(self)

    rhat = property(lambda self: self.convergence[0])
    ess = property(lambda self: self.convergence[1])

    @property
    def n_draws(self) -> int:
        return self.draws.shape[0]

    @property
    def dim(self) -> int:
        return self.draws.shape[1]

    def by_chain(self) -> np.ndarray:
        """Draws reshaped to (n_chains, n_kept, dim)."""
        return self.draws.reshape(self.n_chains, self.n_kept_per_chain, self.dim)


class _Rows:
    """Value and gradient of one target per row of an ``(R, dim)`` array.

    Rows whose targets share a row-batched kernel (``batch_kernel``, see
    ``shmev.model``) are evaluated in one kernel call, on ``q`` itself when
    they are all the rows; any other target is called row by row, and only
    on the rows asked for.  ``asked`` counts each row's evaluations asked
    for.
    """

    def __init__(self, targets: Sequence):
        self.targets = targets
        self.asked = np.zeros(len(targets), dtype=int)
        kernels: dict = {}
        self.single = []
        for r, target in enumerate(targets):
            cls = type(target)
            if getattr(cls.__call__, "batched", False):
                kernels.setdefault(cls, []).append(r)
            else:
                self.single.append(r)
        every_row = list(range(len(targets)))
        self.batched = [
            (slice(None) if rows == every_row else np.array(rows), cls.batch_kernel([targets[r] for r in rows]))
            for cls, rows in kernels.items()
        ]

    def __call__(self, q: np.ndarray, rows: np.ndarray, logp: np.ndarray, grad: np.ndarray) -> None:
        """Write the value and gradient at ``q[r]`` into ``logp[r]`` and
        ``grad[r]`` for every ``r`` in ``rows`` (a boolean mask); a batched
        kernel may write its other rows too."""
        self.asked += rows
        for idx, kernel in self.batched:
            if rows[idx].any():
                logp[idx], grad[idx], _ = kernel(q[idx])
        for r in self.single:
            if rows[r]:
                logp[r], grad[r] = self.targets[r](q[r].copy())


def _leapfrog(evaluate: _Rows, q, p, grad, eps, n_steps, mass):
    """Velocity-leapfrog trajectories of all rows in lockstep: row ``r``
    takes ``n_steps[r]`` steps of size ``eps[r]`` (a row with none is left
    out, its result undefined).  A row whose value or gradient turns
    non-finite stops there with a ``-inf`` value.  Returns ``(q, p, logp, grad)``."""
    rows = q.shape[0]
    step = eps[:, None]
    shortest = int(n_steps.min())
    q, p = q.copy(), p + (0.5 * eps)[:, None] * grad
    logp, grad, new_logp, new_grad = np.empty(rows), grad.copy(), np.empty(rows), np.empty_like(grad)
    moving, all_moving = n_steps > 0, shortest > 0
    for k in range(int(n_steps.max())):
        if all_moving:
            q += step * p / mass
        else:
            q[moving] += step[moving] * p[moving] / mass[moving]
        evaluate(q, moving, new_logp, new_grad)
        finite = np.isfinite(new_logp) & np.logical_and.reduce(np.isfinite(new_grad), axis=1)
        if all_moving and k < shortest - 1 and finite.all():
            # every row takes a full step
            logp, new_logp, grad, new_grad = new_logp, logp, new_grad, grad
            p = p + step * grad
            continue
        grad[moving] = new_grad[moving]
        logp[moving] = np.where(finite[moving], new_logp[moving], -np.inf)
        going = moving & finite & (k < n_steps - 1)
        ending = moving & finite & (k == n_steps - 1)
        p[going] = p[going] + step[going] * new_grad[going]
        p[ending] = p[ending] + (0.5 * eps[ending])[:, None] * new_grad[ending]
        moving, all_moving = going, bool(going.all())
    return q, p, logp, grad


def _hamiltonian(logp, p, mass):
    """Each row's energy ``-logp + p'M^-1 p / 2``."""
    return -logp + 0.5 * np.add.reduce(p * p / mass, axis=1)


def _first_step_sizes(evaluate: _Rows, q, logp, grad, mass, streams) -> np.ndarray:
    """Each row's first step size (Hoffman & Gelman 2014, alg. 4), all rows
    in lockstep.  From 1, a row doubles its step size while one leapfrog
    step from ``q`` (momentum from the row's stream) has acceptance ratio
    above 1/2, else halves it until the ratio reaches 1/2, a non-finite one
    counting as 0; it stops there, outside [1e-12, 1e7] or after 100 changes."""
    rows, dim = q.shape
    p = np.array([rng.standard_normal(dim) for rng in streams]) * np.sqrt(mass)
    h0 = _hamiltonian(logp, p, mass)
    half = np.log(0.5)
    eps, searching = np.ones(rows), np.ones(rows, dtype=bool)
    # a step size far off can overflow a trajectory, a ratio of 0
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(100):
            _, p1, logp1, _ = _leapfrog(evaluate, q, p, grad, eps, searching.astype(int), mass)
            log_ratio = h0 - _hamiltonian(logp1, p1, mass)
            log_ratio = np.where(np.isfinite(log_ratio), log_ratio, -np.inf)
            if k == 0:
                up = log_ratio > half
            else:
                searching &= np.where(up, log_ratio > half, log_ratio < half)
            eps = np.where(searching, eps * np.where(up, 2.0, 0.5), eps)
            searching &= (eps >= 1e-12) & (eps <= 1e7)
            if not searching.any():
                break
    return eps


def _lockstep(targets: Sequence, config: SamplerConfig, q0: np.ndarray, streams: Sequence) -> list[tuple]:
    """Sample one chain per row of ``q0`` in lockstep: every iteration draws
    each row's momentum and jittered step count from the row's own stream,
    runs all trajectories together, then accepts and adapts each row
    separately.  Returns each row's kept draws and ``CHAIN_STATS`` values, as
    the row sampled alone would; ``grad_evals`` counts the gradients a row
    asked for: the initial one, the step-size search's and the leapfrog steps'."""
    rows, dim = q0.shape
    evaluate = _Rows(targets)
    mass = np.ones((rows, dim))
    q = q0.astype(float).copy()
    logp, grad = np.empty(rows), np.empty((rows, dim))
    evaluate(q, np.ones(rows, dtype=bool), logp, grad)
    if not np.logical_and.reduce(np.isfinite(logp)):
        raise NumericError("chain initialized at a point with non-finite log density")

    n_warmup = config.n_warmup
    eps = _first_step_sizes(evaluate, q, logp, grad, mass, streams)
    mu = np.log(10.0 * eps)
    log_eps_bar, h_bar, da_iter = np.log(eps), np.zeros(rows), 1

    # mass-estimation window: draws in [n_warmup/4, n_warmup/2)
    use_mass_window = n_warmup >= 40
    win_lo, win_hi = n_warmup // 4, n_warmup // 2
    window = np.zeros((rows, max(win_hi - win_lo, 1), dim)) if use_mass_window else None

    kept = np.empty((rows, config.n_kept, dim))
    divergences = np.zeros(rows, dtype=int)
    warmup_divergences = np.zeros(rows, dtype=int)
    accept_sum = np.zeros(rows)
    n_steps = np.empty(rows, dtype=int)
    p0 = np.empty((rows, dim))

    for it in range(config.n_iterations):
        warming = it < n_warmup
        for r, rng in enumerate(streams):
            p0[r] = rng.standard_normal(dim)
            jitter = 1.0 + config.step_jitter * (2.0 * rng.random() - 1.0) if config.step_jitter > 0.0 else 1.0
            n_steps[r] = max(1, int(round(config.leapfrog_steps * jitter)))
        p0 *= np.sqrt(mass)
        q1, p1, logp1, grad1 = _leapfrog(evaluate, q, p0, grad, eps, n_steps, mass)

        h0 = _hamiltonian(logp, p0, mass)
        # a diverging trajectory can overflow the kinetic energy to inf,
        # which the delta_h check below marks divergent
        with np.errstate(over="ignore", invalid="ignore"):
            h1 = np.where(np.isfinite(logp1), _hamiltonian(logp1, p1, mass), np.inf)
            delta_h = h1 - h0
            divergent = ~np.isfinite(delta_h) | (delta_h > _MAX_ENERGY_ERROR)
            alpha = np.where(divergent, 0.0, np.where(delta_h <= 0.0, 1.0, np.exp(-delta_h)))
        if warming:
            warmup_divergences += divergent
        else:
            divergences += divergent
        accept = np.array([not d and rng.random() < a for d, a, rng in zip(divergent, alpha, streams)])
        q[accept], logp[accept], grad[accept] = q1[accept], logp1[accept], grad1[accept]

        if warming:
            frac = 1.0 / (da_iter + _DA_T0)
            h_bar = (1.0 - frac) * h_bar + frac * (config.target_accept - alpha)
            log_eps = mu - np.sqrt(da_iter) / _DA_GAMMA * h_bar
            w = da_iter ** (-_DA_KAPPA)
            log_eps_bar = w * log_eps + (1.0 - w) * log_eps_bar
            eps = np.exp(log_eps)
            da_iter += 1
            if use_mass_window and win_lo <= it < win_hi:
                window[:, it - win_lo] = q
            if use_mass_window and it == win_hi - 1:
                n_win = window.shape[1]
                # one chain's (n_win, dim) variance at a time, summed in the
                # order a chain sampled alone sums it
                for r in range(rows):
                    var = np.var(window[r], axis=0)
                    # shrink toward a small diagonal, as in windowed adaptation
                    var = (n_win / (n_win + 5.0)) * var + (5.0 / (n_win + 5.0)) * 1e-3
                    mass[r] = 1.0 / np.maximum(var, 1e-10)
                eps = np.exp(log_eps_bar)
                mu = np.log(10.0 * eps)
                log_eps_bar, h_bar, da_iter = np.log(eps), np.zeros(rows), 1
            if it == n_warmup - 1:
                if n_warmup >= _MIN_ABORT_WARMUP and np.logical_or.reduce(warmup_divergences >= n_warmup):
                    raise NumericError(
                        f"all {n_warmup} warmup iterations diverged; the target may be "
                        "ill-conditioned or the gradient wrong"
                    )
                eps = np.exp(log_eps_bar)
        else:
            kept[:, it - n_warmup] = q
            accept_sum += alpha

    stats = (accept_sum / config.n_kept, divergences, eps, warmup_divergences, evaluate.asked)
    return [(kept[r], tuple(kind(s[r]) for s, kind in zip(stats, CHAIN_STATS.values()))) for r in range(rows)]


def _sample_rows(rows: Sequence[tuple]) -> list[tuple]:
    """Sample the given ``(target, config, init, stream)`` rows, each group of
    rows with one dimension and one configuration (seeds aside) in lockstep;
    results come back in row order."""
    groups: dict = {}
    for r, (target, config, init, stream) in enumerate(rows):
        groups.setdefault((init.size, replace(config, seed=0)), []).append(r)
    results: list = [None] * len(rows)
    for (_, config), members in groups.items():
        chains = _lockstep(
            [rows[r][0] for r in members],
            config,
            np.array([rows[r][2] for r in members]),
            [rows[r][3] for r in members],
        )
        for r, result in zip(members, chains):
            results[r] = result
    return results


def _forked_rows(span: tuple[int, int]) -> list[tuple]:
    """Sample rows ``[start, stop)`` of the call a worker process was forked from."""
    start, stop = span
    return _sample_rows(_FORKED_ROWS[start:stop])


class HmcJob(NamedTuple):
    """One posterior to sample: ``config.n_chains`` chains of ``target``
    from the rows of ``init``."""

    target: Callable[[np.ndarray], tuple[float, np.ndarray]]
    config: SamplerConfig
    init: Sequence[np.ndarray] | np.ndarray
    param_names: list[str] | None = None


def run_hmc_jobs(jobs: Sequence[HmcJob], n_workers: int = 1) -> list[PosteriorDraws]:
    """Sample every chain of every job and return one :class:`PosteriorDraws`
    per job.

    Each chain is a row; a job's chains own private random streams spawned
    from its ``config.seed``.  The rows, job by job, are split into
    contiguous spans over ``min(n_workers, rows)`` processes forked from the
    caller, which inherit the jobs, so nothing of them is pickled; within a
    process rows advance in lockstep (see the module docstring).  The result
    does not depend on ``n_workers``, and a chain's exception reaches the
    caller as it would in serial.
    """
    global _FORKED_ROWS
    rows = []
    for target, config, init, _ in jobs:
        init = np.atleast_2d(np.asarray(init, dtype=float))
        if init.shape[0] != config.n_chains:
            raise ValueError(f"need {config.n_chains} initial vectors, got {init.shape[0]}")
        _, grad0 = target(init[0])
        if np.asarray(grad0).size != init.shape[1]:
            raise ValueError("target gradient dimension does not match init")
        streams = [np.random.default_rng(s) for s in np.random.SeedSequence(config.seed).spawn(config.n_chains)]
        rows.extend((target, config, init[c], streams[c]) for c in range(config.n_chains))

    n_procs = min(n_workers, len(rows))
    if n_procs > 1 and "fork" in multiprocessing.get_all_start_methods():
        bounds = [len(rows) * w // n_procs for w in range(n_procs + 1)]
        _FORKED_ROWS = rows
        try:
            # Pool forks its workers before it starts its helper threads;
            # leaving the with block terminates and joins them
            with multiprocessing.get_context("fork").Pool(n_procs) as pool:
                spans = pool.map(_forked_rows, list(zip(bounds[:-1], bounds[1:])), chunksize=1)
        finally:
            _FORKED_ROWS = None
        results = [result for span in spans for result in span]
    else:
        results = _sample_rows(rows)

    posts, start = [], 0
    for target, config, init, param_names in jobs:
        draws, stats = zip(*results[start:start + config.n_chains])
        start += config.n_chains
        dim = draws[0].shape[1]
        posts.append(PosteriorDraws(
            draws=np.concatenate(draws, axis=0),
            param_names=list(param_names if param_names is not None else [f"theta[{k}]" for k in range(dim)]),
            n_chains=config.n_chains,
            **{name: np.array(values, dtype=kind) for (name, kind), values in zip(CHAIN_STATS.items(), zip(*stats))},
        ))
    return posts


def run_hmc(
    target: Callable[[np.ndarray], tuple[float, np.ndarray]],
    config: SamplerConfig,
    init: Sequence[np.ndarray] | np.ndarray,
    param_names: list[str] | None = None,
    n_workers: int = 1,
) -> PosteriorDraws:
    """Sample ``config.n_chains`` chains from ``target`` and merge the
    post-warmup draws: :func:`run_hmc_jobs` with one job.

    ``target`` maps an unconstrained vector to ``(log_density, gradient)``;
    a ``-inf`` value is treated as a rejected state.  ``init`` supplies one
    starting vector per chain.
    """
    return run_hmc_jobs([HmcJob(target, config, init, param_names)], n_workers)[0]


# ---------------------------------------------------------------------------
# Convergence diagnostics
# ---------------------------------------------------------------------------

def _autocovariance(x: np.ndarray) -> np.ndarray:
    """Biased autocovariance along axis 1 via FFT; x is (chains, n, dim)."""
    n = x.shape[1]
    size = 2 ** int(np.ceil(np.log2(2 * n)))
    f = np.fft.rfft(x - x.mean(axis=1, keepdims=True), n=size, axis=1)
    # the power spectrum f.real**2 + f.imag**2, in f's own buffer
    f.real = f.real**2 + f.imag**2
    f.imag = 0.0
    acov = np.fft.irfft(f, n=size, axis=1)[:, :n]
    return acov / n


def rhat_ess(draws: PosteriorDraws | np.ndarray):
    """Split-chain R-hat and autocorrelation-based effective sample size.

    Accepts a :class:`PosteriorDraws` or an array shaped (chains, n, dim).
    Returns ``(rhat, ess, degenerate)``; parameters whose chains are all
    constant at one value are flagged degenerate with ``rhat = 1`` by
    convention and an undefined (NaN) ESS, and chains constant at different
    values get ``rhat = inf``.  A single chain yields ``rhat = None``.

    Each chain is split into halves (the middle draw dropped when ``n`` is
    odd), which are views of the draws: the means, variances and
    autocovariances are computed one half at a time, as Vehtari et al. (2021)
    do, and only the reductions across halves run on stacked arrays.  The
    autocovariances are summed as they are computed, so the largest
    transients are one half's FFT buffers, a few times one half's size.
    """
    if isinstance(draws, PosteriorDraws):
        x = draws.by_chain()
    else:
        x = np.asarray(draws, dtype=float)
        if x.ndim == 2:
            x = x[:, :, None]
    m, n, dim = x.shape
    if m < 2:
        return None, None, None
    if n < 4:
        raise ValueError("need at least 4 post-warmup draws per chain")

    n_half = n // 2
    # first halves of every chain, then second halves
    halves = [x[c, :n_half] for c in range(m)] + [x[c, n - n_half:] for c in range(m)]
    means = np.array([h.mean(axis=0) for h in halves])               # (2M, dim)
    variances = np.array([h.var(axis=0, ddof=1) for h in halves])    # (2M, dim)
    w = variances.mean(axis=0)                  # within-chain
    b = n_half * means.var(axis=0, ddof=1)      # between-chain
    degenerate = (w <= 0.0) & (b <= 0.0)
    var_plus = (n_half - 1.0) / n_half * w + b / n_half
    # constant chains at different values never mixed: R-hat is infinite
    with np.errstate(divide="ignore", invalid="ignore"):
        rhat = np.sqrt(np.where(degenerate, 1.0, var_plus / w))

    # ESS: Geyer initial monotone positive sequence on combined autocorrelations;
    # the halves' autocovariances are summed in the order of a mean over their stack
    tau_t = _autocovariance(halves[0][None])[0]
    for h in halves[1:]:
        tau_t += _autocovariance(h[None])[0]
    tau_t /= 2 * m                              # (half, dim)
    var_plus_safe = np.where(var_plus <= 0.0, 1.0, var_plus)
    rho = 1.0 - (w - tau_t) / var_plus_safe     # (half, dim)
    rho[0] = 1.0
    total = m * n
    # Geyer pair sums up to the first negative pair (a NaN pair does not end
    # them), each capped by the pairs before it; cumsum adds left to right
    # from 0.0, so ESS does not depend on numpy's summation order
    max_pairs = (n_half - 1) // 2
    pairs = rho[0:2 * max_pairs:2] + rho[1:2 * max_pairs:2]   # (max_pairs, dim)
    kept = np.logical_and.accumulate(~(pairs < 0.0), axis=0)
    terms = np.where(kept, np.minimum.accumulate(pairs, axis=0), 0.0)
    pair_sum = np.cumsum(np.vstack([np.zeros(dim), terms]), axis=0)[-1]
    tau = np.maximum(-1.0 + 2.0 * pair_sum, 1.0 / total)
    ess = np.where(degenerate, np.nan, total / tau)
    return rhat, ess, degenerate
