"""Probability kernels used by the rainfall hierarchy.

Implements Weibull event magnitudes, Gumbel latent layers (including
positivity-truncated sampling), binomial occurrence counts, the GEV
benchmark family, and the normal / inverse-gamma prior kernels.  All
evaluation functions are pure, accept scalars or arrays, and never touch
shared state; samplers take a caller-supplied ``numpy.random.Generator``.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NumericError
from .special import gammaln

__all__ = [
    "WeibullParams",
    "GumbelParams",
    "GevParams",
    "BinomialParams",
    "weibull_logpdf_cdf",
    "weibull_logpdf",
    "weibull_cdf",
    "weibull_quantile",
    "weibull_sample",
    "gumbel_logpdf",
    "gumbel_cdf",
    "gumbel_quantile",
    "gumbel_sample",
    "gumbel_positive_prob",
    "gumbel_sample_positive",
    "binomial_logpmf",
    "binomial_sample",
    "gev_cdf",
    "gev_logpdf",
    "gev_quantile",
    "gev_sample",
    "normal_logpdf",
    "invgamma_logpdf",
]

#: below this |shape| the GEV collapses to its Gumbel limit expression
GEV_SHAPE_EPS = 1e-10

#: truncated-Gumbel sampling refuses to run below this acceptance probability
MIN_POSITIVE_PROB = 1e-6

_LOG_SQRT_2PI = 0.5 * np.log(2.0 * np.pi)


def _require_positive(name: str, value) -> None:
    arr = np.asarray(value, dtype=float)
    if not np.all(np.isfinite(arr)) or np.any(arr <= 0.0):
        raise ValueError(f"{name} must be finite and strictly positive")


@dataclass(frozen=True, eq=False)
class WeibullParams:
    """Weibull magnitude family: ``shape`` > 0 (dimensionless), ``scale`` > 0 (mm)."""

    shape: float | np.ndarray
    scale: float | np.ndarray

    def __post_init__(self):
        _require_positive("Weibull shape", self.shape)
        _require_positive("Weibull scale", self.scale)


@dataclass(frozen=True, eq=False)
class GumbelParams:
    """Gumbel (max-type) latent family: real ``loc``, ``scale`` > 0."""

    loc: float | np.ndarray
    scale: float | np.ndarray

    def __post_init__(self):
        if not np.all(np.isfinite(np.asarray(self.loc, dtype=float))):
            raise ValueError("Gumbel loc must be finite")
        _require_positive("Gumbel scale", self.scale)


@dataclass(frozen=True, eq=False)
class GevParams:
    """GEV block-maxima family: ``loc`` (mm), ``scale`` > 0 (mm), real ``shape``."""

    loc: float
    scale: float
    shape: float

    def __post_init__(self):
        if not np.isfinite(self.loc) or not np.isfinite(self.shape):
            raise ValueError("GEV loc and shape must be finite")
        _require_positive("GEV scale", self.scale)


@dataclass(frozen=True, eq=False)
class BinomialParams:
    """Occurrence-count family: ``trials`` >= 1, success ``prob`` in (0, 1)."""

    trials: int
    prob: float | np.ndarray

    def __post_init__(self):
        if int(self.trials) != self.trials or self.trials < 1:
            raise ValueError("binomial trials must be a positive integer")
        p = np.asarray(self.prob, dtype=float)
        if np.any(p <= 0.0) or np.any(p >= 1.0) or not np.all(np.isfinite(p)):
            raise ValueError("binomial success probability must lie in (0, 1)")


# ---------------------------------------------------------------------------
# Weibull
# ---------------------------------------------------------------------------

def weibull_logpdf_cdf(x, p: WeibullParams):
    """Return ``(logpdf, cdf)`` of the Weibull family at ``x`` (> 0).

    The cdf is ``1 - exp(-(x/scale)**shape)``; the log-density is its exact
    derivative on the log scale.  Both are finite for valid inputs.
    """
    x = np.asarray(x, dtype=float)
    if np.any(x <= 0.0) or not np.all(np.isfinite(x)):
        raise ValueError("Weibull support is x > 0")
    shape = np.asarray(p.shape, dtype=float)
    scale = np.asarray(p.scale, dtype=float)
    logratio = np.log(x) - np.log(scale)
    t = np.exp(shape * logratio)
    logpdf = np.log(shape) - np.log(scale) + (shape - 1.0) * logratio - t
    cdf = -np.expm1(-t)
    return logpdf, cdf


def weibull_logpdf(x, p: WeibullParams):
    return weibull_logpdf_cdf(x, p)[0]


def weibull_cdf(x, p: WeibullParams):
    return weibull_logpdf_cdf(x, p)[1]


def weibull_quantile(prob, p: WeibullParams):
    prob = np.asarray(prob, dtype=float)
    if np.any(prob <= 0.0) or np.any(prob >= 1.0):
        raise ValueError("probability must lie in (0, 1)")
    return p.scale * (-np.log1p(-prob)) ** (1.0 / np.asarray(p.shape, dtype=float))


def weibull_sample(p: WeibullParams, rng: np.random.Generator, size=None):
    return np.asarray(p.scale, dtype=float) * rng.weibull(p.shape, size=size)


# ---------------------------------------------------------------------------
# Gumbel
# ---------------------------------------------------------------------------

def gumbel_logpdf(x, p: GumbelParams):
    """Log-density ``-log(scale) - z - exp(-z)`` with ``z = (x - loc)/scale``."""
    z = (np.asarray(x, dtype=float) - p.loc) / p.scale
    with np.errstate(over="ignore"):
        return -np.log(np.asarray(p.scale, dtype=float)) - z - np.exp(-z)


def gumbel_cdf(x, p: GumbelParams):
    z = (np.asarray(x, dtype=float) - p.loc) / p.scale
    with np.errstate(over="ignore"):
        return np.exp(-np.exp(-z))


def gumbel_quantile(prob, p: GumbelParams):
    prob = np.asarray(prob, dtype=float)
    if np.any(prob <= 0.0) or np.any(prob >= 1.0):
        raise ValueError("probability must lie in (0, 1)")
    return p.loc - p.scale * np.log(-np.log(prob))


def gumbel_sample(p: GumbelParams, rng: np.random.Generator, size=None):
    return rng.gumbel(p.loc, p.scale, size=size)


def gumbel_positive_prob(p: GumbelParams):
    """Probability that a Gumbel draw is strictly positive."""
    with np.errstate(over="ignore"):
        return -np.expm1(-np.exp(np.asarray(p.loc, dtype=float) / p.scale))


def gumbel_sample_positive(
    p: GumbelParams,
    rng: np.random.Generator,
    size=None,
    return_attempts: bool = False,
    max_rounds: int = 5_000_000,
):
    """Draw from the Gumbel distribution conditioned on being > 0.

    Uses rejection of non-positive proposals.  Fails with a diagnostic when
    the acceptance probability drops below ``MIN_POSITIVE_PROB`` instead of
    looping unboundedly.  ``loc``/``scale`` may be arrays broadcastable to
    ``size``.  With ``return_attempts`` the total proposal count is returned
    alongside the draws.
    """
    accept_prob = gumbel_positive_prob(p)
    min_prob = float(np.min(accept_prob))
    if min_prob < MIN_POSITIVE_PROB:
        raise NumericError(
            "truncated Gumbel sampling is infeasible: min Pr(X > 0) = "
            f"{min_prob:.3e} < {MIN_POSITIVE_PROB:.0e} "
            f"(worst loc/scale ratio {float(np.min(np.asarray(p.loc) / np.asarray(p.scale))):.3f})"
        )
    scalar = size is None and np.ndim(p.loc) == 0 and np.ndim(p.scale) == 0
    shape = np.broadcast_shapes(
        np.shape(p.loc), np.shape(p.scale), () if size is None else tuple(np.atleast_1d(size))
    )
    loc = np.broadcast_to(np.asarray(p.loc, dtype=float), shape).ravel()
    scale = np.broadcast_to(np.asarray(p.scale, dtype=float), shape).ravel()
    out = np.empty(loc.shape, dtype=float)
    pending = np.arange(out.size)
    attempts = 0
    rounds = 0
    while pending.size:
        draw = rng.gumbel(loc[pending], scale[pending])
        attempts += pending.size
        ok = draw > 0.0
        out[pending[ok]] = draw[ok]
        pending = pending[~ok]
        rounds += 1
        if rounds > max_rounds:
            raise NumericError("truncated Gumbel rejection did not terminate")
    result = float(out[0]) if scalar else out.reshape(shape)
    if return_attempts:
        return result, attempts
    return result


# ---------------------------------------------------------------------------
# Binomial
# ---------------------------------------------------------------------------

def binomial_logpmf(k, p: BinomialParams):
    """Exact log-pmf via log-gamma (stable up to the 366-trial block size)."""
    k = np.asarray(k)
    if np.any(k != np.floor(k)):
        raise ValueError("binomial count must be an integer")
    k = k.astype(float)
    n = float(p.trials)
    if np.any(k < 0) or np.any(k > n):
        raise ValueError(f"binomial count must lie in [0, {p.trials}]")
    prob = np.asarray(p.prob, dtype=float)
    return (
        gammaln(n + 1.0)
        - gammaln(k + 1.0)
        - gammaln(n - k + 1.0)
        + k * np.log(prob)
        + (n - k) * np.log1p(-prob)
    )


def binomial_sample(p: BinomialParams, rng: np.random.Generator, size=None):
    return rng.binomial(p.trials, p.prob, size=size)


# ---------------------------------------------------------------------------
# GEV
# ---------------------------------------------------------------------------

def gev_cdf(y, p: GevParams):
    """GEV cdf with the max(., 0) support convention.

    Below the lower endpoint (shape > 0) the cdf is 0; above the upper
    endpoint (shape < 0) it is 1.  ``|shape| < GEV_SHAPE_EPS`` uses the
    Gumbel limit ``exp(-exp(-z))``.
    """
    y = np.asarray(y, dtype=float)
    z = (y - p.loc) / p.scale
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        if abs(p.shape) < GEV_SHAPE_EPS:
            return np.exp(-np.exp(-z))
        t = 1.0 + p.shape * z
        inside = t > 0.0
        core = np.exp(-np.exp(np.where(inside, -np.log1p(p.shape * np.where(inside, z, 0.0)) / p.shape, 0.0)))
        outside_value = 0.0 if p.shape > 0 else 1.0
        return np.where(inside, core, outside_value)


def gev_logpdf(y, p: GevParams):
    """GEV log-density; ``-inf`` outside the shape-dependent support."""
    y = np.asarray(y, dtype=float)
    z = (y - p.loc) / p.scale
    logscale = np.log(p.scale)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        if abs(p.shape) < GEV_SHAPE_EPS:
            return -logscale - z - np.exp(-z)
        t = 1.0 + p.shape * z
        inside = t > 0.0
        logt = np.log1p(p.shape * np.where(inside, z, 0.0))
        out = -logscale - (1.0 + 1.0 / p.shape) * logt - np.exp(-logt / p.shape)
        return np.where(inside, out, -np.inf)


def gev_quantile(prob, p: GevParams):
    """Exact inverse of :func:`gev_cdf` for ``prob`` in (0, 1)."""
    prob = np.asarray(prob, dtype=float)
    if np.any(prob <= 0.0) or np.any(prob >= 1.0):
        raise ValueError("probability must lie in (0, 1)")
    loglog = np.log(-np.log(prob))
    if abs(p.shape) < GEV_SHAPE_EPS:
        return p.loc - p.scale * loglog
    return p.loc + p.scale * np.expm1(-p.shape * loglog) / p.shape


def gev_sample(p: GevParams, rng: np.random.Generator, size=None):
    u = rng.random(size=size)
    tiny = np.finfo(float).tiny
    return gev_quantile(np.clip(u, tiny, 1.0 - 1e-16), p)


# ---------------------------------------------------------------------------
# Prior kernels
# ---------------------------------------------------------------------------

def normal_logpdf(x, mean, sd):
    sd = np.asarray(sd, dtype=float)
    if np.any(sd <= 0.0):
        raise ValueError("normal sd must be positive")
    z = (np.asarray(x, dtype=float) - mean) / sd
    return -_LOG_SQRT_2PI - np.log(sd) - 0.5 * z * z


def invgamma_logpdf(x, shape, scale):
    x = np.asarray(x, dtype=float)
    if np.any(x <= 0.0):
        raise ValueError("inverse-gamma support is x > 0")
    if shape <= 0.0 or scale <= 0.0:
        raise ValueError("inverse-gamma parameters must be positive")
    return shape * np.log(scale) - gammaln(shape) - (shape + 1.0) * np.log(x) - scale / x
