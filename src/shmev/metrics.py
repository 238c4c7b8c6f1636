"""Predictive-accuracy criteria computed per station against test maxima.

Three indices summarize how model quantiles track the empirical return
levels of a held-out maxima sample, restricted to observations whose
empirical return time exceeds a threshold:

* fractional squared error: mean over qualifying observations of the
  root-mean-square (over draws) relative quantile error,
* mean bias: the same double average without the square,
* mean 90% credible width: average distance between the 5% and 95%
  empirical quantiles of the per-draw quantile values.
"""
from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from .ingest import number_cell, write_table

__all__ = [
    "EvalResult",
    "empirical_return_times",
    "evaluate_site",
    "qualifying_maxima",
    "score_site",
    "write_eval_report",
]

#: quantile provider: probabilities (k,) -> per-draw quantiles (B, k)
QuantileFn = Callable[[np.ndarray], np.ndarray]

DEFAULT_RETURN_TIME_THRESHOLD = 2.0


@dataclass(frozen=True)
class EvalResult:
    station: str
    fse: float | None
    bias: float | None
    width: float | None
    m_t: int
    threshold: float
    n_maxima: int


def _average_ranks(x: np.ndarray) -> np.ndarray:
    """Ranks 1..n with ties sharing their mean rank, all NaN when ``x`` holds
    a NaN; equal to ``scipy.stats.rankdata(x, method="average")``."""
    order = np.argsort(x, kind="stable")
    xs = x[order]
    starts = np.flatnonzero(np.r_[True, xs[1:] != xs[:-1]])
    counts = np.diff(starts, append=x.size)
    ranks = np.empty(x.size)
    ranks[order] = np.repeat(starts + 1 + (counts - 1) / 2.0, counts)
    if np.isnan(x).any():
        ranks[:] = np.nan
    return ranks


def empirical_return_times(maxima) -> tuple[np.ndarray, np.ndarray]:
    """Plotting positions ``p = rank/(M+1)`` (average ranks on ties) and the
    corresponding return times ``T = 1/(1-p)``."""
    maxima = np.asarray(maxima, dtype=float)
    if maxima.size < 1:
        raise ValueError("need at least one test maximum")
    ranks = _average_ranks(maxima)
    p = ranks / (maxima.size + 1.0)
    return p, 1.0 / (1.0 - p)


def qualifying_maxima(maxima, threshold: float = DEFAULT_RETURN_TIME_THRESHOLD):
    """The rank step: plotting positions and values of the maxima whose
    empirical return time exceeds ``threshold``, in the input order."""
    maxima = np.asarray(maxima, dtype=float)
    p, t = empirical_return_times(maxima)
    mask = t > threshold
    return p[mask], maxima[mask]


def score_site(station: str, q, observed: np.ndarray, threshold: float, n_maxima: int) -> EvalResult:
    """The scoring step: all three criteria from the per-draw quantiles ``q``
    (B, m_T) at the plotting positions of the qualifying ``observed`` maxima;
    ``fse``, ``bias`` and ``width`` are ``None`` when none qualifies.

    The square root of the fractional squared error sits inside the outer
    average: each qualifying observation contributes the RMS over draws of
    its relative error.
    """
    if observed.size == 0:
        return EvalResult(station, None, None, None, 0, threshold, n_maxima)
    rel = (q - observed) / observed
    return EvalResult(
        station=station,
        fse=float(np.mean(np.sqrt(np.mean(rel * rel, axis=0)))),
        bias=float(np.mean(np.mean(rel, axis=0))),
        width=float(np.mean(np.quantile(q, 0.95, axis=0) - np.quantile(q, 0.05, axis=0))),
        m_t=observed.size,
        threshold=threshold,
        n_maxima=n_maxima,
    )


def evaluate_site(
    station: str,
    quantile_fn: QuantileFn,
    maxima,
    threshold: float = DEFAULT_RETURN_TIME_THRESHOLD,
) -> EvalResult:
    """All three criteria for one station: the rank step, one quantile pass
    at the qualifying plotting positions (none when none qualifies), and the
    scoring step."""
    maxima = np.asarray(maxima, dtype=float)
    probs, observed = qualifying_maxima(maxima, threshold)
    q = quantile_fn(probs) if probs.size else None
    return score_site(station, q, observed, threshold, maxima.size)


def _median_count(counts: Sequence[int]) -> int | str:
    """The median of whole counts: whole as an integer, a half as ``3.5``."""
    median = float(np.median(counts))
    return int(median) if median.is_integer() else number_cell(median)


def write_eval_report(results: Sequence[tuple[str, EvalResult]], path: str | Path) -> Path:
    """Columnar report ``site,model,fse,bias,width,m_T`` with one summary row
    of medians across sites per model."""
    rows = []
    by_model: dict[str, list[EvalResult]] = {}
    for model, res in results:
        rows.append([res.station, model, number_cell(res.fse), number_cell(res.bias), number_cell(res.width), res.m_t])
        by_model.setdefault(model, []).append(res)
    for model in sorted(by_model):
        scored = [r for r in by_model[model] if r.fse is not None]
        if scored:
            medians = [number_cell(np.median([getattr(r, k) for r in scored])) for k in ("fse", "bias", "width")]
            rows.append(["median", model, *medians, _median_count([r.m_t for r in scored])])
    return write_table(path, ["site", "model", "fse", "bias", "width", "m_T"], rows)
