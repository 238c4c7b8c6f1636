"""Parameter families of the rainfall hierarchy, Weibull event magnitudes
and Gumbel latent layers, and the positivity-truncated Gumbel sampler that
the simulator and the predictive layer draw latent parameters with.  The
sampler takes a caller-supplied ``numpy.random.Generator``; the model's
densities are in ``model``.
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

#: truncated-Gumbel sampling refuses to run below this acceptance probability
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
