"""Property tests: the ``shmev.special`` ports equal ``scipy.special`` bit for
bit on random finite doubles."""
import math
import warnings

import numpy as np
import pytest

pytest.importorskip("hypothesis")
import scipy.special as sc
from hypothesis import given, settings
from hypothesis import strategies as st

from shmev import special

finite = st.floats(allow_nan=False, allow_infinity=False)


def same_bits(ours, theirs):
    assert math.copysign(1.0, ours) == math.copysign(1.0, theirs)
    assert ours == theirs or (math.isnan(ours) and math.isnan(theirs))


def check(name, x):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        ours = getattr(special, name)
        theirs = getattr(sc, name)
        same_bits(ours(x), theirs(x))
        same_bits(ours(np.array([x]))[0], theirs(np.array([x]))[0])


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
@given(st.floats(min_value=-34.0, allow_nan=False, allow_infinity=False))
def test_gammaln(x):
    check("gammaln", x)
