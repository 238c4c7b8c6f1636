"""Joint log-posteriors with hand-derived gradients for the fitted models.

Three models share the machinery here:

* the spatial hierarchy (Weibull magnitudes, Gumbel latent layers whose
  locations regress on standardized covariates, binomial counts with a
  logit-linear success probability),
* the classical GEV block-maxima benchmark, and
* the non-spatial single-site hierarchy benchmark: the spatial hierarchy
  with one site and no covariates.

Every model is evaluated over an unconstrained vector: positive quantities
enter through ``log`` and the single-site event rate through ``logit``, with
the transform Jacobians included in the posterior density.  Gradients are
exact per coordinate; samplers treat a non-finite value as a rejected state.

Every target is row-batched: one kernel call evaluates a batch of rows, one
target per row, and each row's result equals its one-row call bit for bit.
The two hierarchies share one block kernel, ``_weibull_gumbel_binomial``:
from per-block log gamma and log delta, each site's Gumbel locations, the
two log scales and each site's logit and event count, it gives the Weibull,
latent-Gumbel and binomial terms with their block-level and site-level
gradients.  Each hierarchy keeps only its parameter map, its priors and the
chain rule back to its own coordinates: the spatial model through the
design matrix ``Z``, the single-site model through ``exp(log mu)``.

The events enter the kernel as logs shifted by their block's largest log
magnitude, ``d_e = log x_e - m_b <= 0``.  Each Weibull term ``(x_e /
delta)^gamma`` is ``exp(gamma d_e)`` times one factor per block, so one
pass over the events (``exp(gamma d_e)`` and its product with ``d_e``, each
summed per block by ``np.add.reduceat`` over the blocks' runs) gives every
block-level Weibull sum, and no per-event term exceeds 1.

Unconstrained layouts
---------------------
spatial (``ShmevLayout``): ``beta_gamma`` (p+1), ``beta_delta`` (p+1),
``beta_lambda`` (p+1), ``log_sigma_gamma``, ``log_sigma_delta``,
``log_gamma[j][s]`` (J*S, site-major), ``log_delta[j][s]`` (J*S).

GEV: ``[loc, log_scale, shape]``.

single-site (``HmevLayout``): ``[log_mu_gamma, log_sigma_gamma,
log_mu_delta, log_sigma_delta, logit_lambda]`` followed by ``log_gamma``
(J) and ``log_delta`` (J).
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from types import SimpleNamespace
from typing import Sequence

import numpy as np

from .data import Dataset
from .special import betaln, gammaln, log_expit, logit

__all__ = [
    "NormalPrior",
    "InverseGammaPrior",
    "GammaPrior",
    "BetaPrior",
    "ShmevPriorSpec",
    "GevPriorSpec",
    "HmevPriorSpec",
    "ShmevLayout",
    "ShmevTarget",
    "GevTarget",
    "HmevLayout",
    "HmevTarget",
]

#: default shape prior for the GEV benchmark (global daily-rainfall estimate)
GEV_SHAPE_PRIOR_MEAN = 0.114
GEV_SHAPE_PRIOR_SD = 0.125


# ---------------------------------------------------------------------------
# Prior specifications
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class NormalPrior:
    mean: float
    sd: float

    def __post_init__(self):
        if self.sd <= 0.0 or not np.isfinite(self.sd) or not np.isfinite(self.mean):
            raise ValueError("normal prior needs finite mean and positive sd")

    @cached_property
    def _log_norm(self) -> float:
        return -0.5 * np.log(2.0 * np.pi) - np.log(self.sd)

    @cached_property
    def _var(self) -> float:
        return self.sd**2

    def logpdf(self, x: float) -> float:
        z = (x - self.mean) / self.sd
        return self._log_norm - 0.5 * z * z

    def score(self, x: float) -> float:
        return -(x - self.mean) / self._var


def _check_parameters(kind: str, *params: float) -> None:
    """A ``ValueError`` unless every parameter of a ``kind`` prior is
    positive and finite."""
    if any(p <= 0.0 for p in params):
        raise ValueError(f"{kind} prior parameters must be positive")
    if not all(math.isfinite(p) for p in params):
        raise ValueError(f"{kind} prior parameters must be finite")


@dataclass(frozen=True)
class InverseGammaPrior:
    shape: float
    scale: float

    def __post_init__(self):
        _check_parameters("inverse-gamma", self.shape, self.scale)

    @property
    def mean(self) -> float:
        if self.shape <= 1.0:
            raise ValueError("inverse-gamma mean undefined for shape <= 1")
        return self.scale / (self.shape - 1.0)

    @classmethod
    def from_mean(cls, mean: float, shape: float = 3.0) -> "InverseGammaPrior":
        """Match a target mean exactly; shape 3 keeps the variance finite."""
        if mean <= 0.0:
            raise ValueError("target mean must be positive")
        return cls(shape=shape, scale=mean * (shape - 1.0))

    @cached_property
    def _log_norm(self) -> float:
        return self.shape * np.log(self.scale) - gammaln(self.shape)

    def log_density_unconstrained(self, u: float) -> float:
        """Density over u = log(x), transform Jacobian included."""
        return self._log_norm - self.shape * u - self.scale * np.exp(-u)

    def score_unconstrained(self, u: float) -> float:
        return -self.shape + self.scale * np.exp(-u)


@dataclass(frozen=True)
class GammaPrior:
    shape: float
    scale: float

    def __post_init__(self):
        _check_parameters("gamma", self.shape, self.scale)

    @cached_property
    def _gammaln_shape(self) -> float:
        return gammaln(self.shape)

    @cached_property
    def _shape_log_scale(self) -> float:
        return self.shape * np.log(self.scale)

    def log_density_unconstrained(self, u: float) -> float:
        """Density over u = log(x), transform Jacobian included."""
        return self.shape * u - np.exp(u) / self.scale - self._gammaln_shape - self._shape_log_scale

    def score_unconstrained(self, u: float) -> float:
        return self.shape - np.exp(u) / self.scale


@dataclass(frozen=True)
class BetaPrior:
    a: float
    b: float

    def __post_init__(self):
        _check_parameters("beta", self.a, self.b)

    @cached_property
    def _log_beta(self) -> float:
        return betaln(self.a, self.b)


@dataclass(frozen=True)
class ShmevPriorSpec:
    """Normal priors on the regression coefficients, inverse-gamma on the
    latent Gumbel scales."""

    beta_gamma: tuple[NormalPrior, ...]
    beta_delta: tuple[NormalPrior, ...]
    beta_lambda: tuple[NormalPrior, ...]
    sigma_gamma: InverseGammaPrior
    sigma_delta: InverseGammaPrior

    def __post_init__(self):
        n = len(self.beta_gamma)
        if n < 1 or len(self.beta_delta) != n or len(self.beta_lambda) != n:
            raise ValueError("coefficient prior vectors must share length p+1")

    @property
    def n_covariates(self) -> int:
        return len(self.beta_gamma) - 1


@dataclass(frozen=True)
class GevPriorSpec:
    """Normal priors on location and shape, gamma prior on the scale."""

    loc: NormalPrior
    scale: GammaPrior
    shape: NormalPrior = NormalPrior(GEV_SHAPE_PRIOR_MEAN, GEV_SHAPE_PRIOR_SD)

    @classmethod
    def from_maxima(cls, maxima: np.ndarray) -> "GevPriorSpec":
        """Center the location prior on the sample mean and the scale prior
        mean on the sample sd of the maxima (shape-1 gamma, sd = mean)."""
        maxima = np.asarray(maxima, dtype=float)
        if maxima.size < 2:
            raise ValueError("need at least 2 maxima to elicit GEV priors")
        m = float(np.mean(maxima))
        s = float(np.std(maxima, ddof=1))
        if s <= 0.0:
            raise ValueError("maxima sample has zero spread")
        return cls(loc=NormalPrior(m, 2.0 * s), scale=GammaPrior(1.0, s))


@dataclass(frozen=True)
class HmevPriorSpec:
    """Inverse-gamma priors on the four latent-layer hyperparameters and a
    beta prior on the event rate, as in the single-site hierarchy."""

    mu_gamma: InverseGammaPrior
    sigma_gamma: InverseGammaPrior
    mu_delta: InverseGammaPrior
    sigma_delta: InverseGammaPrior
    event_rate: BetaPrior


# ---------------------------------------------------------------------------
# Spatial model
# ---------------------------------------------------------------------------

class ShmevLayout:
    """Index bookkeeping for the flat unconstrained spatial parameter vector."""

    def __init__(self, n_covariates: int, n_blocks: int, n_sites: int):
        if n_covariates < 0 or n_blocks < 0 or n_sites < 1:
            raise ValueError("invalid layout dimensions")
        self.n_covariates = n_covariates
        self.n_blocks = n_blocks
        self.n_sites = n_sites
        p1 = n_covariates + 1
        self.beta_gamma = slice(0, p1)
        self.beta_delta = slice(p1, 2 * p1)
        self.beta_lambda = slice(2 * p1, 3 * p1)
        self.log_sigma_gamma = 3 * p1
        self.log_sigma_delta = 3 * p1 + 1
        nb = n_blocks * n_sites
        self.log_gamma = slice(3 * p1 + 2, 3 * p1 + 2 + nb)
        self.log_delta = slice(3 * p1 + 2 + nb, 3 * p1 + 2 + 2 * nb)
        self.dim = 3 * p1 + 2 + 2 * nb

    def param_names(self) -> list[str]:
        p1 = self.n_covariates + 1
        names = [f"beta_gamma[{k}]" for k in range(p1)]
        names += [f"beta_delta[{k}]" for k in range(p1)]
        names += [f"beta_lambda[{k}]" for k in range(p1)]
        names += ["log_sigma_gamma", "log_sigma_delta"]
        # latent blocks are stored site-major: flat index = s * J + j
        for field in ("log_gamma", "log_delta"):
            for s in range(self.n_sites):
                for j in range(self.n_blocks):
                    names.append(f"{field}[{j}][{s}]")
        return names


# ---------------------------------------------------------------------------
# The Weibull–Gumbel–binomial block kernel
# ---------------------------------------------------------------------------

class _Events:
    """One target's event magnitudes, block by block, compiled for the block
    kernel: each block's largest log magnitude ``m_b`` (0 for an empty
    block) and each event's log magnitude shifted by it, ``d_e = log x_e -
    m_b <= 0``, in block order, so that each block's events form one run of
    ``counts[k]`` entries; with the per-block counts and log sums and the
    binomial normalising constant."""

    def __init__(self, blocks: Sequence[np.ndarray], trials: int):
        self.trials = trials
        self.counts = np.array([np.asarray(b).size for b in blocks], dtype=np.int64)
        self.n_b = self.counts.astype(float)
        over = np.flatnonzero(self.counts > trials)
        if over.size:
            raise ValueError(f"block {over[0]}: {self.counts[over[0]]} events exceed trials_per_block={trials}")
        shifted, self.m_b, self.slx_b = [], np.zeros(len(blocks)), np.zeros(len(blocks))
        for k, mags in enumerate(blocks):
            arr = np.asarray(mags, dtype=float)
            if np.any(arr <= 0.0):
                raise ValueError("magnitudes must be strictly positive")
            if arr.size:
                lx = np.log(arr)
                self.m_b[k] = lx.max()
                self.slx_b[k] = lx.sum()
                shifted.append(lx - self.m_b[k])
        self.d_e = np.concatenate(shifted) if shifted else np.zeros(0)
        n, N = self.n_b, float(trials)
        self.binom_const = float(
            np.sum(gammaln(N + 1.0) - gammaln(n + 1.0) - gammaln(N - n + 1.0))
        )


class _EventRows:
    """The events of one target per row, laid out for one block-kernel call.

    The rows' shifted logs are concatenated row by row (one row's are used
    as they are), so a per-block value reaches its run of events by
    ``np.repeat``.  Per-block totals are segment sums over the runs, by
    ``np.add.reduceat`` over the starts of the non-empty blocks' runs.  One
    scratch buffer, allocated on first use, holds the per-event terms.
    """

    def __init__(self, events: Sequence[_Events]):
        self.R, self.K = len(events), events[0].counts.size
        if any(e.counts.size != self.K for e in events):
            raise ValueError("rows of one kernel call must have equally many blocks")
        if self.R == 1:
            self.counts, self.d_e = events[0].counts, events[0].d_e
        else:
            self.counts = np.concatenate([e.counts for e in events])
            self.d_e = np.concatenate([e.d_e for e in events])
        self.n_b = np.array([e.n_b for e in events])
        self.m_b = np.array([e.m_b for e in events])
        self.slx_b = np.array([e.slx_b for e in events])
        self.binom_const = np.array([e.binom_const for e in events])
        self.empty = np.flatnonzero(self.counts == 0)  # flat (row, block) indices
        self.seg_blocks = np.flatnonzero(self.counts)  # the non-empty blocks
        self.seg_starts = (np.cumsum(self.counts) - self.counts)[self.seg_blocks]
        self._scratch: np.ndarray | None = None

    def scratch(self) -> np.ndarray:
        if self._scratch is None:
            self._scratch = np.empty(self.d_e.size)
        return self._scratch

    def block_sums(self, values: np.ndarray) -> np.ndarray:
        """Per-event values summed into ``(R, K)`` block totals (empty blocks get 0)."""
        out = np.zeros(self.R * self.K)
        if self.seg_starts.size:
            out[self.seg_blocks] = np.add.reduceat(values, self.seg_starts)
        return out.reshape(self.R, self.K)


def _weibull_gumbel_binomial(
    ev: _EventRows,
    latent_logs: np.ndarray,
    loc: np.ndarray,
    log_scale: np.ndarray,
    logit: np.ndarray,
    sum_n: np.ndarray,
    group_trials,
) -> SimpleNamespace:
    """The likelihood terms that the spatial and single-site hierarchies share,
    over ``R`` rows of ``G`` groups (sites) of ``J`` blocks each.

    ``latent_logs`` (R, 2, G, J) holds each block's log gamma and log delta,
    ``loc`` (broadcastable to (R, 2, G, J)) the Gumbel locations of gamma
    and delta, ``log_scale`` (R, 2) their log scales; ``logit``, ``sum_n``
    and ``group_trials`` (R, G) are each group's event-probability logit,
    event count and trials (blocks times trials per block).

    The Weibull terms need, per block, ``T1 = sum_e t_e`` and ``sum_e t_e
    (log x_e - log delta)`` over ``t_e = (x_e / delta)^gamma``.  With the
    block's largest log magnitude ``m`` and the shifted logs ``d_e``, ``t_e
    = f exp(gamma d_e)`` for ``f = exp(gamma (m - log delta))`` (0 for an
    empty block), so one pass over the events in one scratch buffer forms
    ``S0 = sum_e exp(gamma d_e)`` and ``S1 = sum_e exp(gamma d_e) d_e``, and
    ``T1 = f S0`` and ``sum_e t_e (log x_e - log delta) = f S1 + (m - log
    delta) T1``.  No per-event term exceeds 1.

    Returns the Weibull, latent-Gumbel (with the log scales' normalisation),
    binomial and latent-Jacobian terms, each (R,), with their gradients: with
    respect to the log latents (Weibull, Gumbel and Jacobian together) as
    ``d_latent`` (R, 2, G*J), the groups' Gumbel locations as ``d_loc``
    (R, 2, G), the log scales as ``d_log_scale`` (R, 2) and the logits as
    ``d_logit`` (R, G); each target applies its own chain rule to ``d_loc``
    and ``d_logit``.  Call inside ``np.errstate``.
    """
    R, _, G, J = latent_logs.shape
    K = G * J
    flat = latent_logs.reshape(R, 2, K)
    ug, ud = flat[:, 0], flat[:, 1]
    nb, slx = ev.n_b, ev.slx_b
    latents = np.exp(latent_logs)
    gam = latents[:, 0].reshape(R, K)
    scale = np.exp(log_scale)[:, :, None, None]
    log_lam, log_1m_lam = log_expit(logit), log_expit(-logit)
    lam = np.exp(log_lam)  # expit(logit)

    # Weibull magnitudes: t_e = f exp(gamma d_e), summed per block
    m_ud = ev.m_b - ud
    f = np.exp(gam * m_ud)
    if ev.empty.size:
        f.reshape(-1)[ev.empty] = 0.0  # its parameters may overflow f
    w = ev.scratch()
    np.multiply(ev.d_e, np.repeat(gam.ravel(), ev.counts), out=w)
    np.exp(w, out=w)
    T1 = f * ev.block_sums(w)
    w *= ev.d_e
    T2 = f * ev.block_sums(w) + m_ud * T1  # sum_e t_e (log x_e - log delta)
    nb_ud = nb * ud
    weibull = np.add.reduce(nb * ug - nb_ud + (gam - 1.0) * (slx - nb_ud) - T1, axis=1)

    # Gumbel latent layers on the per-block Weibull parameters
    z = (latents - loc) / scale
    e = np.exp(-z)
    zsum = np.add.reduce((z + e).reshape(R, 2, K), axis=2)
    latent = -K * (log_scale[:, 0] + log_scale[:, 1]) - zsum[:, 0] - zsum[:, 1]
    one_m_e = 1.0 - e

    # binomial counts, logit-linked success probability
    binom = np.add.reduce(sum_n * log_lam + (group_trials - sum_n) * log_1m_lam, axis=1) + ev.binom_const

    # the latent-Gumbel gradient, negated
    d_latent = (latents * one_m_e / scale).reshape(R, 2, K)
    d_latent[:, 0] = nb + gam * (slx - nb_ud - T2) - d_latent[:, 0] + 1.0
    d_latent[:, 1] = gam * (T1 - nb) - d_latent[:, 1] + 1.0
    return SimpleNamespace(
        weibull=weibull,
        latent=latent,
        binom=binom,
        jacobian=np.add.reduce(latent_logs.reshape(R, 2 * K), axis=1),
        d_latent=d_latent,
        d_loc=np.add.reduce(one_m_e, axis=3) / scale[:, :, :, 0],
        d_log_scale=np.add.reduce((-1.0 + z * one_m_e).reshape(R, 2, K), axis=2),
        lam=lam,
        log_lam=log_lam,
        log_1m_lam=log_1m_lam,
        d_logit=sum_n - group_trials * lam,
    )


def _parts(k: SimpleNamespace, prior_terms: np.ndarray) -> dict:
    return {
        "weibull": k.weibull,
        "binomial": k.binom,
        "latent_gumbel": k.latent,
        "latent_jacobian": k.jacobian,
        "prior": prior_terms,
    }


def _reject_non_finite(logp: np.ndarray, grad: np.ndarray) -> None:
    """Mark rows with a non-finite value or gradient as rejected states:
    ``-inf`` with a zero gradient."""
    bad = ~np.isfinite(logp) | ~np.logical_and.reduce(np.isfinite(grad), axis=1)
    if bad.any():
        logp[bad] = -np.inf
        grad[bad] = 0.0


# ---------------------------------------------------------------------------
# Row-batched targets
# ---------------------------------------------------------------------------

def _stacked(priors: Sequence[Sequence], *names: str) -> SimpleNamespace:
    """The attributes ``names`` of a ``(rows, k)`` table of priors of one
    class, as ``(rows, k)`` arrays in an object that the class's own methods
    evaluate elementwise."""
    return SimpleNamespace(
        **{n: np.array([[getattr(q, n) for q in row] for row in priors], dtype=float) for n in names}
    )


def _equal_runs(sizes: Sequence[int]) -> list[tuple[int, int]]:
    """``(start, stop)`` of each run of consecutive rows with equal ``sizes``."""
    runs, start = [], 0
    for r in range(1, len(sizes) + 1):
        if r == len(sizes) or sizes[r] != sizes[start]:
            runs.append((start, r))
            start = r
    return runs


class _RowBatchedTarget:
    """Base of the targets whose value and gradient come from one kernel over
    a batch of rows, ``batch_kernel(targets)``, with one target per row; a
    subclass names its kernel class as ``_rows``.

    The kernel maps an ``(R, dim)`` array to ``(logp, grad, parts)`` with
    ``logp`` of shape ``(R,)`` and ``grad`` of shape ``(R, dim)``; rows may
    belong to different targets of the class, and each row's result equals
    its one-row call bit for bit.  ``__call__`` is that kernel on one row,
    after a check that the vector has ``dim`` entries (kernel calls are not
    checked), and a batch of one target is the target's own kernel, so its
    compiled data are not copied.  The sampler evaluates many rows in one kernel call
    only while a class keeps this ``__call__`` (marked ``batched``): a
    subclass or patch that replaces it is evaluated row by row through the
    replacement.
    """

    _rows: type
    _kernel = None

    @classmethod
    def batch_kernel(cls, targets: Sequence["_RowBatchedTarget"]):
        if len(targets) == 1:
            return targets[0]._own_kernel()
        return cls._rows(targets)

    def _own_kernel(self):
        if self._kernel is None:
            self._kernel = self._rows([self])
        return self._kernel

    @property
    def dim(self) -> int:
        return self.layout.dim

    def _one_row(self, v):
        v = np.asarray(v, dtype=float)
        if v.shape != (self.dim,):
            raise ValueError(f"vector length {v.size} and target dimension {self.dim} do not match")
        return self._own_kernel()(v[None, :])

    def __call__(self, v):
        logp, grad, _ = self._one_row(v)
        return logp[0], grad[0]

    __call__.batched = True

    def param_names(self) -> list[str]:
        return self.layout.param_names()


class _ShmevRows:
    """The spatial kernel over one ``ShmevTarget`` per row; the rows share a
    layout.  Each row's three regressions (one ``(3, p+1) @ Z.T`` product)
    and their transposes (one ``(3, S) @ Z`` product) run one row at a time,
    as a batched product could change a row's bits; the block kernel and the
    priors run on all rows at once.  A block's Gumbel locations are its
    site's regressions, broadcast over the site's blocks.
    """

    def __init__(self, targets: Sequence["ShmevTarget"]):
        L = targets[0].layout
        shape = (L.n_covariates, L.n_blocks, L.n_sites)
        if any((t.layout.n_covariates, t.layout.n_blocks, t.layout.n_sites) != shape for t in targets):
            raise ValueError("rows of one spatial kernel call must share a layout")
        self.targets, self.layout = list(targets), L
        self.events = _EventRows([t._events for t in targets])
        S, J = L.n_sites, L.n_blocks
        self.sum_n = np.array([t._events.counts.reshape(S, J).sum(axis=1).astype(float) for t in targets])
        self.group_trials = J * np.array([[float(t._events.trials)] for t in targets])
        # the coefficient priors and the latent-scale priors side by side, as
        # the columns of V[:, :3(p+1)] and V[:, log_sigma_gamma:log_sigma_delta+1]
        self.coef = _stacked(
            [(*t.prior.beta_gamma, *t.prior.beta_delta, *t.prior.beta_lambda) for t in targets],
            "mean", "sd", "_log_norm", "_var",
        )
        self.sigma = _stacked(
            [(t.prior.sigma_gamma, t.prior.sigma_delta) for t in targets], "shape", "scale", "_log_norm"
        )

    def __call__(self, V: np.ndarray):
        L, R = self.layout, V.shape[0]
        S, J, p1 = L.n_sites, L.n_blocks, L.n_covariates + 1
        grad = np.empty(V.shape)
        coef, sigma = V[:, :L.log_sigma_gamma], V[:, L.log_sigma_gamma:L.log_sigma_delta + 1]
        with np.errstate(over="ignore", invalid="ignore", divide="ignore", under="ignore"):
            # each site's gamma and delta locations and event logit
            linear = np.empty((R, 3, S))
            for r, t in enumerate(self.targets):
                linear[r] = coef[r].reshape(3, p1) @ t._Z.T
            k = _weibull_gumbel_binomial(
                self.events,
                V[:, L.log_gamma.start:].reshape(R, 2, S, J),
                linear[:, :2, :, None],
                sigma,
                linear[:, 2],
                self.sum_n,
                self.group_trials,
            )
            prior_terms = np.add.reduce(NormalPrior.logpdf(self.coef, coef), axis=1) + np.add.reduce(
                InverseGammaPrior.log_density_unconstrained(self.sigma, sigma), axis=1
            )
            d_linear = np.concatenate([k.d_loc, k.d_logit[:, None]], axis=1)
            for r, t in enumerate(self.targets):
                grad[r, :L.log_sigma_gamma] = (d_linear[r] @ t._Z).ravel()
            grad[:, :L.log_sigma_gamma] += NormalPrior.score(self.coef, coef)
            grad[:, L.log_sigma_gamma:L.log_sigma_delta + 1] = (
                k.d_log_scale + InverseGammaPrior.score_unconstrained(self.sigma, sigma)
            )
            logp = k.weibull + k.latent + k.binom + prior_terms + k.jacobian
            grad[:, L.log_gamma.start:] = k.d_latent.reshape(R, -1)
            _reject_non_finite(logp, grad)
        return logp, grad, _parts(k, prior_terms)


class ShmevTarget(_RowBatchedTarget):
    """Callable ``v -> (logp, grad)`` over the flat unconstrained vector."""

    _rows = _ShmevRows

    def __init__(self, dataset: Dataset, prior: ShmevPriorSpec):
        if dataset.n_covariates != prior.n_covariates:
            raise ValueError(
                f"prior covers {prior.n_covariates} covariates, dataset has {dataset.n_covariates}"
            )
        self.dataset = dataset
        self.prior = prior
        self.layout = ShmevLayout(dataset.n_covariates, dataset.n_blocks, dataset.n_sites)
        self._Z = dataset.design_matrix()
        # site-major blocks: flat block index s * J + j
        self._events = _Events([mags for row in dataset.events for mags in row], dataset.trials_per_block)

    def initial_vector(self) -> np.ndarray:
        """Prior-mean starting point with latents set to their layer location."""
        L = self.layout
        v = np.zeros(L.dim)
        v[L.beta_gamma] = [q.mean for q in self.prior.beta_gamma]
        v[L.beta_delta] = [q.mean for q in self.prior.beta_delta]
        v[L.beta_lambda] = [q.mean for q in self.prior.beta_lambda]
        v[L.log_sigma_gamma] = np.log(self.prior.sigma_gamma.mean)
        v[L.log_sigma_delta] = np.log(self.prior.sigma_delta.mean)
        mu_g = np.maximum(self._Z @ v[L.beta_gamma], 0.05)
        mu_d = np.maximum(self._Z @ v[L.beta_delta], 0.1)
        v[L.log_gamma] = np.repeat(np.log(mu_g), L.n_blocks)
        v[L.log_delta] = np.repeat(np.log(mu_d), L.n_blocks)
        return v


# ---------------------------------------------------------------------------
# GEV benchmark
# ---------------------------------------------------------------------------

_GEV_LIMIT_EPS = 1e-10     # value switches to the Gumbel limit below this |shape|
_GEV_GRAD_EPS = 1e-5       # shape gradient uses the series below this


def _py_square(x: float) -> float:
    """``x**2`` as Python floats compute it (``np.square`` can differ in the
    last bit), and inf where it overflows."""
    try:
        return x**2
    except OverflowError:
        return math.inf


def _gev_shape_series(z, ez, tau):
    """Each maximum's shape gradient to first order in ``tau``, from its
    ``z`` and ``ez = exp(-z)``."""
    z2 = z * z
    z3 = z2 * z
    return -z + 0.5 * z2 * (1.0 - ez) + tau * (z2 - 2.0 / 3.0 * z3 - ez * (0.25 * z2 * z2 - 2.0 / 3.0 * z3))


class _GevRows:
    """The GEV kernel over one ``GevTarget`` per row.

    Consecutive rows with equally many maxima share one ``(rows, n)`` block,
    so each row's sums run along the last axis as a one-row call's do.  Rows
    take the general branch; those whose shape is small enough take the
    shape gradient's series to first order in the shape, or the Gumbel
    limit, in its place.  A general-branch row with some ``1 + shape z <= 0``
    is rejected.
    """

    def __init__(self, targets: Sequence["GevTarget"]):
        sizes = [t.maxima.size for t in targets]
        self.runs = [(a, b, np.array([t.maxima for t in targets[a:b]])) for a, b in _equal_runs(sizes)]
        # the location and shape priors side by side, as the columns of V[:, 0::2]
        self.normal = _stacked([(t.prior.loc, t.prior.shape) for t in targets], "mean", "sd", "_log_norm", "_var")
        self.scale = _stacked(
            [(t.prior.scale,) for t in targets], "shape", "scale", "_gammaln_shape", "_shape_log_scale"
        )

    def __call__(self, V: np.ndarray):
        R = V.shape[0]
        loglik, grad, reject = np.empty(R), np.empty((R, 3)), np.zeros(R, dtype=bool)
        with np.errstate(over="ignore", invalid="ignore", divide="ignore", under="ignore"):
            sig = np.exp(V[:, 1:2])
            for a, b, y in self.runs:
                mu, lsig, tau, s = V[a:b, 0:1], V[a:b, 1], V[a:b, 2:3], sig[a:b]
                n = y.shape[1]
                z = (y - mu) / s
                tz = tau * z
                t = 1.0 + tz
                logt = np.log1p(tz)
                w = np.exp(-logt / tau)  # t^(-1/tau)
                tauA = -(tau + 1.0) / t + w / t  # tau * dloglik_i/dt_i
                z_tauA = z * tauA
                tau2 = np.array([[_py_square(x)] for x in tau[:, 0].tolist()])
                reject[a:b] = np.logical_or.reduce(t <= 0.0, axis=1)
                loglik[a:b] = (
                    -n * lsig - (1.0 + 1.0 / tau[:, 0]) * np.add.reduce(logt, axis=1) - np.add.reduce(w, axis=1)
                )
                grad[a:b, 0] = -np.add.reduce(tauA, axis=1) / s[:, 0]
                grad[a:b, 1] = np.add.reduce(-1.0 - z_tauA, axis=1)
                grad[a:b, 2] = np.add.reduce(logt * (1.0 - w) / tau2 + z_tauA / tau, axis=1)
                small = np.abs(tau[:, 0]) < _GEV_GRAD_EPS
                if small.any():
                    ez = np.exp(-z)
                    series = np.add.reduce(_gev_shape_series(z, ez, tau), axis=1)
                    grad[a:b, 2] = np.where(small, series, grad[a:b, 2])
                    gumbel = np.abs(tau[:, 0]) < _GEV_LIMIT_EPS
                    if gumbel.any():
                        reject[a:b] &= ~gumbel
                        loglik[a:b] = np.where(
                            gumbel, -n * lsig - np.add.reduce(z, axis=1) - np.add.reduce(ez, axis=1), loglik[a:b]
                        )
                        grad[a:b, 0] = np.where(gumbel, np.add.reduce(1.0 - ez, axis=1) / s[:, 0], grad[a:b, 0])
                        grad[a:b, 1] = np.where(gumbel, np.add.reduce(-1.0 + z * (1.0 - ez), axis=1), grad[a:b, 1])
            loc_shape = V[:, 0::2]
            normal = NormalPrior.logpdf(self.normal, loc_shape)
            logp = loglik + normal[:, 0] + GammaPrior.log_density_unconstrained(self.scale, V[:, 1:2])[:, 0] + normal[:, 1]
            grad[:, 0::2] += NormalPrior.score(self.normal, loc_shape)
            grad[:, 1:2] += GammaPrior.score_unconstrained(self.scale, V[:, 1:2])
            logp[reject] = -np.inf
            _reject_non_finite(logp, grad)
        return logp, grad, None


class GevTarget(_RowBatchedTarget):
    """Callable target over ``[loc, log_scale, shape]`` for one maxima sample."""

    layout_names = ("loc", "log_scale", "shape")
    dim = 3
    _rows = _GevRows

    def __init__(self, maxima: np.ndarray, prior: GevPriorSpec):
        maxima = np.asarray(maxima, dtype=float)
        if maxima.size == 0:
            raise ValueError("maxima sequence must be nonempty")
        self.maxima = maxima
        self.prior = prior

    def param_names(self) -> list[str]:
        return list(self.layout_names)

    def initial_vector(self) -> np.ndarray:
        return np.array(
            [self.prior.loc.mean, np.log(self.prior.scale.shape * self.prior.scale.scale), self.prior.shape.mean]
        )


# ---------------------------------------------------------------------------
# Single-site benchmark
# ---------------------------------------------------------------------------

class HmevLayout:
    """Flat layout for the single-site hierarchy: 5 hyperparameters + 2J latents."""

    HYPER = ("log_mu_gamma", "log_sigma_gamma", "log_mu_delta", "log_sigma_delta", "logit_lambda")

    def __init__(self, n_blocks: int):
        if n_blocks < 0:
            raise ValueError("invalid block count")
        self.n_blocks = n_blocks
        self.log_mu_gamma = 0
        self.log_sigma_gamma = 1
        self.log_mu_delta = 2
        self.log_sigma_delta = 3
        self.logit_lambda = 4
        self.log_gamma = slice(5, 5 + n_blocks)
        self.log_delta = slice(5 + n_blocks, 5 + 2 * n_blocks)
        self.dim = 5 + 2 * n_blocks

    def param_names(self) -> list[str]:
        names = list(self.HYPER)
        names += [f"log_gamma[{j}]" for j in range(self.n_blocks)]
        names += [f"log_delta[{j}]" for j in range(self.n_blocks)]
        return names


class _HmevRows:
    """The single-site kernel over one ``HmevTarget`` per row.

    A row is one site with no covariates: its blocks' Gumbel locations are
    ``exp(log_mu)``, so the location gradients go back through that map from
    the per-row sums.  The hyperparameter priors are evaluated side by side
    for all rows.
    """

    def __init__(self, targets: Sequence["HmevTarget"]):
        events = [t._events for t in targets]
        self.J = targets[0].layout.n_blocks
        self.events = _EventRows(events)
        self.sum_n = np.array([[float(e.n_b.sum())] for e in events])
        self.group_trials = self.J * np.array([[float(e.trials)] for e in events])
        # the four hyperparameter priors side by side, as the columns of V[:, :4]
        self.hyper = _stacked(
            [(t.prior.mu_gamma, t.prior.sigma_gamma, t.prior.mu_delta, t.prior.sigma_delta) for t in targets],
            "shape", "scale", "_log_norm",
        )
        rate = _stacked([(t.prior.event_rate,) for t in targets], "a", "b", "_log_beta")
        self.rate_a, self.rate_b, self.rate_log_beta = rate.a[:, 0], rate.b[:, 0], rate._log_beta[:, 0]

    def __call__(self, V: np.ndarray):
        R, J = V.shape[0], self.J
        with np.errstate(over="ignore", invalid="ignore", divide="ignore", under="ignore"):
            mu = np.exp(V[:, 0:4:2])  # mu_gamma, mu_delta
            k = _weibull_gumbel_binomial(
                self.events,
                V[:, 5:].reshape(R, 2, 1, J),
                mu[:, :, None, None],
                V[:, 1:4:2],
                V[:, 4:5],
                self.sum_n,
                self.group_trials,
            )
            lam, log_lam, log_1m_lam = k.lam[:, 0], k.log_lam[:, 0], k.log_1m_lam[:, 0]
            hyper_prior = InverseGammaPrior.log_density_unconstrained(self.hyper, V[:, :4])
            rate_prior = self.rate_a * log_lam + self.rate_b * log_1m_lam - self.rate_log_beta
            prior_terms = np.add.reduce(hyper_prior, axis=1) + rate_prior
            logp = k.weibull + k.latent + k.binom + prior_terms + k.jacobian

            grad = np.empty(V.shape)
            grad[:, 5:] = k.d_latent.reshape(R, 2 * J)
            hyper_score = InverseGammaPrior.score_unconstrained(self.hyper, V[:, :4])
            grad[:, 0:4:2] = mu * k.d_loc[:, :, 0] + hyper_score[:, 0::2]
            grad[:, 1:4:2] = k.d_log_scale + hyper_score[:, 1::2]
            grad[:, 4] = k.d_logit[:, 0] + (self.rate_a - (self.rate_a + self.rate_b) * lam)
            _reject_non_finite(logp, grad)
        return logp, grad, _parts(k, prior_terms)


class HmevTarget(_RowBatchedTarget):
    """Callable target for the single-site hierarchy."""

    _rows = _HmevRows

    def __init__(self, events: Sequence[np.ndarray], trials: int, prior: HmevPriorSpec):
        self.prior = prior
        self.layout = HmevLayout(len(events))
        self._events = _Events(events, trials)

    def initial_vector(self) -> np.ndarray:
        L = self.layout
        v = np.zeros(L.dim)
        v[L.log_mu_gamma] = np.log(self.prior.mu_gamma.mean)
        v[L.log_sigma_gamma] = np.log(self.prior.sigma_gamma.mean)
        v[L.log_mu_delta] = np.log(self.prior.mu_delta.mean)
        v[L.log_sigma_delta] = np.log(self.prior.sigma_delta.mean)
        rate = self.prior.event_rate
        v[L.logit_lambda] = logit(rate.a / (rate.a + rate.b))
        v[L.log_gamma] = v[L.log_mu_gamma]
        v[L.log_delta] = v[L.log_mu_delta]
        return v
