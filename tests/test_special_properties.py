"""Property tests: ``shmev.special`` stays within its error bounds of
``scipy.special`` on random doubles of each function's domain."""
import warnings

import numpy as np
import pytest

pytest.importorskip("hypothesis")
import scipy.special as sc
from hypothesis import given, settings
from hypothesis import strategies as st

from shmev import special

from .test_special import assert_near

finite = st.floats(allow_nan=False, allow_infinity=False)


def check(name, x):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        ours = getattr(special, name)
        theirs = getattr(sc, name)
        assert_near(name, x, ours(x), theirs(x))
        assert_near(name, [x], ours(np.array([x])), theirs(np.array([x])))


@settings(max_examples=300, deadline=None)
@given(finite)
def test_expit_and_log_expit(x):
    check("expit", x)
    check("log_expit", x)


@settings(max_examples=300, deadline=None)
@given(st.one_of(finite, st.floats(0.0, 1.0)))
def test_logit(x):
    check("logit", x)


@settings(max_examples=300, deadline=None)
@given(st.floats(min_value=1e-6, max_value=7e10, exclude_min=True, exclude_max=True))
def test_gammaln(x):
    check("gammaln", x)
