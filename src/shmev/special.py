"""The logistic and log-gamma functions of the model, in numpy and ``math``.

Each is one expression.  Against ``scipy.special`` 1.17 the measured errors are:

* ``log_expit(x) = -logaddexp(0, -x)``: scipy's bits, signed zeros included;
* ``expit(x) = exp(log_expit(x))``: at most 3.8e-15 relative; never overflows;
* ``logit(x) = log(x) - log1p(-x)``: at most 1.8e-15 absolute on
  [1e-6, 1 - 1e-6]; -inf at 0, inf at 1 and nan outside [0, 1];
* ``gammaln(x) = log Gamma(x)`` by ``math.lgamma``, for x > 0 only (counts
  plus one, ``1 + k / shape``, prior shapes): at most 1.3e-15 (1 + |value|);
* ``betaln(a, b) = gammaln(a) + gammaln(b) - gammaln(a + b)``.

A scalar gives a numpy float64 and an array an array of its shape.  No
finite or infinite input warns.  nan gives nan; ``expit`` and ``log_expit``
warn "invalid" on it outside ``np.errstate``, which the model kernels run in.
"""
import math

import numpy as np

__all__ = ["expit", "log_expit", "logit", "gammaln", "betaln"]

_lgamma = np.frompyfunc(math.lgamma, 1, 1)


def log_expit(x):
    return -np.logaddexp(0.0, -x)


def expit(x):
    return np.exp(log_expit(x))


def logit(x):
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.log(x) - np.log1p(-x)


def gammaln(x):
    return np.asarray(_lgamma(x), dtype=float)[()]


def betaln(a, b):
    return gammaln(a) + gammaln(b) - gammaln(np.add(a, b))
