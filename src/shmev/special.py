"""The five ``scipy.special`` functions the package uses, ported.

Importing ``scipy.special`` was about half of the start-up of every CLI
process (0.37 of 0.74 s for ``import shmev.cli`` on a 2-core Xeon), for five
functions that only ever see scalars or small arrays.  These ports return
scipy's float64 values (scipy 1.17), so fits, predictions and their
artifacts keep their bytes:

* ``expit``, ``log_expit`` and ``logit`` follow scipy's formulas, with the
  ``exp``, ``log`` and ``log1p`` steps taken from ``math`` (the C library, as
  in scipy) and the rest done in IEEE float arithmetic.  numpy's SIMD ``exp``
  is not used because it differs from the C library in the last bit for
  about 2% of inputs.  They are equal to scipy bit for bit.
* ``gammaln`` is a port of cephes ``lgam`` for x >= -34, equal to scipy bit
  for bit.
* ``betaln(a, b)`` is ``gammaln(a) + gammaln(b) - gammaln(a + b)``.  It
  agrees with scipy to 1e-14 relative to the size of those terms but not
  bit for bit, since scipy's ``beta`` follows none of the cephes orderings;
  it is only the normalising constant of the Beta prior on the single-site
  event rate.

Inputs are taken as float64.  A Python or numpy scalar or a 0-d array gives
a numpy float64 scalar, and an array gives an array of the same shape, as a
scipy ufunc does.  Where ``math`` raises (``exp`` overflow, ``log`` of zero
or of a negative number) the ports return scipy's inf, -inf or nan without
a warning, because divergent sampler trajectories reach such inputs.
"""
from __future__ import annotations

import math

import numpy as np

__all__ = ["expit", "log_expit", "expit_log_expit_pair", "logit", "gammaln", "betaln"]

# cephes lgam: Stirling-series (A) and [2, 3) rational (B / C) coefficients
_A = (
    8.11614167470508450300e-4,
    -5.95061904284301438324e-4,
    7.93650340457716943945e-4,
    -2.77777777730099687205e-3,
    8.33333333333331927722e-2,
)
_B = (
    -1.37825152569120859100e3,
    -3.88016315134637840924e4,
    -3.31612992738871184744e5,
    -1.16237097492762307383e6,
    -1.72173700820839662146e6,
    -8.53555664245765465627e5,
)
_C = (
    -3.51815701436523470549e2,
    -1.70642106651881159223e4,
    -2.20528590553854454839e5,
    -1.13933444367982507207e6,
    -2.53252307177582951285e6,
    -2.01889141433532773231e6,
)
_LS2PI = 0.91893853320467274178  # log(sqrt(2 pi))
_MAXLGM = 2.556348e305


def _exp(v: float) -> float:
    try:
        return math.exp(v)
    except OverflowError:
        return math.inf


def _log(v: float) -> float:
    if v > 0.0 or v != v:
        return math.log(v)
    return -math.inf if v == 0.0 else math.nan


def _each(f, x: np.ndarray) -> np.ndarray:
    """``f`` applied to every element of the float64 array ``x``."""
    return np.fromiter(map(f, x.ravel().tolist()), float, x.size).reshape(x.shape)


def _exp_each(x: np.ndarray) -> np.ndarray:
    try:
        return _each(math.exp, x)
    except OverflowError:
        return _each(_exp, x)


def expit(x):
    """Logistic function ``1 / (1 + exp(-x))``, as ``scipy.special.expit``."""
    if isinstance(x, (float, int)):
        return np.float64(1.0 / (1.0 + _exp(-float(x))))
    x = np.asarray(x, dtype=float)
    return 1.0 / (1.0 + _exp_each(-x))


def _log_expit(v: float) -> float:
    if v < 0.0:
        return v - math.log1p(math.exp(v))
    return -math.log1p(math.exp(-v))


def _log1p_exp_neg_abs(x: np.ndarray) -> np.ndarray:
    """``log1p(exp(-|x|))``: ``exp(-|x|)`` is the ``exp(x)`` of the x < 0
    branch of ``log_expit`` and the ``exp(-x)`` of the other."""
    flat = (-np.abs(x)).ravel().tolist()
    return np.fromiter(map(math.log1p, map(math.exp, flat)), float, x.size).reshape(x.shape)


def log_expit(x):
    """``log(expit(x))``, as ``scipy.special.log_expit``: ``x - log1p(exp(x))``
    for x < 0 and ``-log1p(exp(-x))`` otherwise."""
    if isinstance(x, (float, int)):
        return np.float64(_log_expit(float(x)))
    x = np.asarray(x, dtype=float)
    # -(lp - min(x, 0)) rather than min(x, 0) - lp keeps scipy's -0.0 at x > 745
    return -(_log1p_exp_neg_abs(x) - np.minimum(x, 0.0))


def expit_log_expit_pair(x) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(expit(x), log_expit(x), log_expit(-x))`` for an array in one pass.

    ``exp(-|x|)`` is also the ``exp(-x)`` that ``expit`` takes where x >= 0,
    so only negative elements pay a second ``exp``.  Each element gets the
    same ``math`` calls and float operations as in the separate functions,
    so the same bits.
    """
    x = np.asarray(x, dtype=float)
    lam, lo, hi = [], [], []
    for v in x.ravel().tolist():
        if v >= 0.0:
            e = math.exp(-v)
            lp = math.log1p(e)
            lam.append(1.0 / (1.0 + e))
            lo.append(-(lp - 0.0))
            hi.append(-(lp + v))
        else:  # x < 0 or nan; exp(-x) overflows below -709.78
            lp = math.log1p(math.exp(v))
            lam.append(1.0 / (1.0 + (math.exp(-v) if v > -709.0 else _exp(-v))))
            lo.append(-(lp - v))
            hi.append(-(lp + 0.0))
    return tuple(np.array(a, dtype=float).reshape(x.shape) for a in (lam, lo, hi))


def _logit(v: float) -> float:
    if v < 0.3 or v > 0.65:
        return math.inf if v == 1.0 else _log(v / (1.0 - v))
    s = 2.0 * (v - 0.5)
    return math.log1p(s) - math.log1p(-s)


def logit(x):
    """``log(x / (1 - x))``, as ``scipy.special.logit``, which uses
    ``log1p(s) - log1p(-s)`` with ``s = 2 (x - 1/2)`` on [0.3, 0.65]."""
    if isinstance(x, (float, int)):
        return np.float64(_logit(float(x)))
    return _each(_logit, np.asarray(x, dtype=float))[()]


def _polevl(x: float, coef: tuple) -> float:
    ans = coef[0]
    for c in coef[1:]:
        ans = ans * x + c
    return ans


def _p1evl(x: float, coef: tuple) -> float:
    ans = x + coef[0]
    for c in coef[1:]:
        ans = ans * x + c
    return ans


def _gammaln(x: float) -> float:
    if not math.isfinite(x):
        return x
    if x < -34.0:
        raise ValueError("gammaln is ported for arguments >= -34 only")
    if x < 13.0:
        # shift into [2, 3) by the recurrence, keeping the product in z
        z, p, u = 1.0, 0.0, x
        while u >= 3.0:
            p -= 1.0
            u = x + p
            z *= u
        while u < 2.0:
            if u == 0.0:
                return math.inf
            z /= u
            p += 1.0
            u = x + p
        if u == 2.0:
            return math.log(abs(z))
        x = x + (p - 2.0)
        return math.log(abs(z)) + x * _polevl(x, _B) / _p1evl(x, _C)
    if x > _MAXLGM:
        return math.inf
    q = (x - 0.5) * math.log(x) - x + _LS2PI
    if x > 1.0e8:
        return q
    p = 1.0 / (x * x)
    if x >= 1000.0:
        return q + ((7.9365079365079365079365e-4 * p - 2.7777777777777777777778e-3) * p
                    + 0.0833333333333333333333) / x
    return q + _polevl(p, _A) / x


def gammaln(x):
    """``log|Gamma(x)|`` for x >= -34, as ``scipy.special.gammaln`` (cephes
    ``lgam``); inf at 0 and at the negative integers."""
    if isinstance(x, (float, int)):
        return np.float64(_gammaln(float(x)))
    return _each(_gammaln, np.asarray(x, dtype=float))[()]


def betaln(a, b):
    """``log|B(a, b)|`` as ``gammaln(a) + gammaln(b) - gammaln(a + b)``."""
    return gammaln(a) + gammaln(b) - gammaln(np.add(a, b))
