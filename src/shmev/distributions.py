"""Parameter families of the rainfall hierarchy, Weibull event magnitudes
and Gumbel latent layers, and the positivity-truncated Gumbel sampler that
the simulator and the predictive layer draw latent parameters with.  The
sampler inverts the truncated cdf, one uniform per draw, from a
caller-supplied ``numpy.random.Generator``; the model's densities are in
``model``.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NumericError

__all__ = [
    "WeibullParams",
    "GumbelParams",
    "gumbel_positive_prob",
    "gumbel_sample_positive",
]

#: truncated-Gumbel sampling refuses to run where Pr(X > 0) is below this
MIN_POSITIVE_PROB = 1e-6


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


def gumbel_positive_prob(p: GumbelParams):
    """Probability that a Gumbel draw is strictly positive."""
    with np.errstate(over="ignore"):
        return -np.expm1(-np.exp(np.asarray(p.loc, dtype=float) / p.scale))


def gumbel_sample_positive(p: GumbelParams, rng: np.random.Generator, size=None):
    """Draw from the Gumbel distribution conditioned on being > 0, by inverse cdf.

    ``E = -log F(X)`` is a unit exponential, and ``X > 0`` exactly when
    ``E < exp(loc / scale)``; so with ``u`` uniform on (0, 1] and
    ``P = Pr(X > 0)``, ``E = -log1p(-u * P)`` is that exponential truncated,
    and ``X = loc - scale * log(E)``.  One uniform per draw; every draw is
    finite and > 0.  Fails with a diagnostic when ``P`` drops below
    ``MIN_POSITIVE_PROB``.  ``loc``/``scale`` may be arrays broadcastable to
    ``size``.
    """
    prob = gumbel_positive_prob(p)
    min_prob = float(np.min(prob))
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
    u = 1.0 - rng.random(shape)  # never 0, so E > 0 and X < inf
    with np.errstate(divide="ignore"):
        x = p.loc - p.scale * np.log(-np.log1p(-u * prob))
    # at u = 1, X is the truncation point 0, which rounding can put below 0,
    # and where P rounds to 1 it is -inf (E = inf)
    x = np.maximum(x, np.finfo(float).tiny)
    return float(x) if scalar else x
