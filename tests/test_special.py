"""``shmev.special`` against ``scipy.special``, each function within its
documented error bound, with scipy's types, shapes, infinities and nans."""
import warnings

import numpy as np
import pytest
import scipy.special as sc

from shmev import special

INF, NAN = np.inf, np.nan
EDGES = [0.0, -0.0, INF, -INF, 1e-320, -1e-320, 5e-324, 1e308, -1e308,
         709.78, -709.78, 709.79, -709.79, 710.0, -710.0, 745.2, -745.2, 800.0, -800.0]


def assert_near(name, x, ours, theirs):
    """``ours`` is scipy's ``name`` at ``x`` within the bound in ``special``'s
    docstring (tests use two to four times the measured error), and equal to
    it wherever scipy's value is infinite or nan."""
    x, ours, theirs = np.asarray(x), np.asarray(ours), np.asarray(theirs)
    assert ours.shape == theirs.shape and ours.dtype == theirs.dtype
    nan = np.isnan(theirs)
    np.testing.assert_array_equal(np.isnan(ours), nan)
    edge = np.isinf(theirs)
    np.testing.assert_array_equal(ours[edge], theirs[edge])
    ok = ~nan & ~edge
    o, t = ours[ok], theirs[ok]
    if name == "log_expit":
        with np.errstate(over="ignore"):  # two steps up from the largest double is inf
            lo, hi = (np.nextafter(np.nextafter(t, to), to) for to in (-INF, INF))
        bad = (o < lo) | (o > hi)
    elif name == "expit":
        big = t >= 1e-300
        bad = np.where(big, np.abs(o - t) > 8e-15 * t, (o < 0.0) | (o > 2e-300))
    elif name == "logit":
        inside = (x[ok] >= 1e-6) & (x[ok] <= 1.0 - 1e-6)
        bad = inside & (np.abs(o - t) > 4e-15)
    else:
        bad = np.abs(o - t) > 4e-15 * (1.0 + np.abs(t))
    assert not bad.any(), (x[ok][bad][:5], o[bad][:5], t[bad][:5])


@pytest.fixture(autouse=True)
def no_warnings():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        yield


def real_line(rng):
    return np.concatenate([
        rng.standard_normal(20_000) * 5.0,
        rng.standard_normal(20_000) * 400.0,
        np.sign(rng.standard_normal(2_000)) * 10.0 ** rng.uniform(-300, 308, 2_000),
        EDGES,
    ])


@pytest.mark.parametrize("name", ["expit", "log_expit"])
def test_logistic_functions_near_scipy(name, rng):
    x = real_line(rng)
    ours, theirs = getattr(special, name), getattr(sc, name)
    assert_near(name, x, ours(x), theirs(x))
    for v in x[-len(EDGES):].tolist() + x[:200].tolist():
        assert_near(name, v, ours(v), theirs(v))


def test_log_expit_keeps_scipys_signed_zeros_and_infinities():
    x = np.array([INF, -INF, 745.2, 800.0, 1e308, -1e308])
    out = special.log_expit(x)
    np.testing.assert_array_equal(out, [0.0, -INF, 0.0, 0.0, 0.0, -1e308])
    np.testing.assert_array_equal(np.signbit(out), np.signbit(sc.log_expit(x)))
    np.testing.assert_array_equal(special.expit(x[:2]), [1.0, 0.0])


def test_nan_gives_nan_under_the_kernels_errstate():
    with np.errstate(invalid="ignore"):
        for name in ["expit", "log_expit", "logit", "gammaln"]:
            f = getattr(special, name)
            assert np.isnan(f(NAN))
            assert np.isnan(f(np.array([0.5, NAN]))[1])


def test_logit_near_scipy(rng):
    u = np.concatenate([
        rng.random(20_000),
        rng.uniform(0.29, 0.66, 5_000),
        10.0 ** rng.uniform(-300, 0, 2_000),
        1.0 - 10.0 ** rng.uniform(-16, 0, 2_000),
        np.nextafter([0.3, 0.3, 0.65, 0.65], [0.0, 1.0, 0.0, 1.0]),
        [0.0, -0.0, 1.0, 0.3, 0.65, 0.5, -1.0, 2.0, INF, -INF, 5e-324, 1e-6, 1 - 1e-6],
    ])
    assert_near("logit", u, special.logit(u), sc.logit(u))
    for v in u[-30:].tolist():
        assert_near("logit", v, special.logit(v), sc.logit(v))
    np.testing.assert_array_equal(special.logit(np.array([0.0, 1.0])), [-INF, INF])


def test_gammaln_near_scipy(rng):
    x = np.concatenate([
        np.exp(rng.uniform(np.log(1e-6), np.log(7e10), 40_000)),
        rng.uniform(1e-6, 15.0, 20_000),
        np.arange(1.0, 401.0),
        np.arange(1.0, 401.0) + 0.5,
        [1e-6, 2.0, 3.0, 13.0, np.nextafter(13.0, 0.0), 1000.0, np.nextafter(1000.0, 0.0),
         1e8, np.nextafter(1e8, 2e8), 7e10, INF],
    ])
    assert_near("gammaln", x, special.gammaln(x), sc.gammaln(x))
    for v in x[-11:].tolist() + list(range(1, 401)):
        assert_near("gammaln", v, special.gammaln(v), sc.gammaln(v))
    # log Gamma(1) = log Gamma(2) = 0 exactly, as a shape-1 gamma prior needs
    np.testing.assert_array_equal(special.gammaln(np.array([1.0, 2.0])), [0.0, 0.0])


def test_betaln_close_to_scipy(rng):
    # the event-rate prior's parameters (a + b = 20) and a wider positive grid;
    # the error is bounded relative to the log-gamma terms that cancel in it,
    # since betaln itself crosses zero inside the domain
    r = np.linspace(1e-4, 1.0 - 1e-4, 4_001)
    a = np.concatenate([20.0 * r, np.exp(rng.uniform(np.log(1e-3), np.log(1e4), 4_000))])
    b = np.concatenate([20.0 * (1.0 - r), np.exp(rng.uniform(np.log(1e-3), np.log(1e4), 4_000))])
    ours, theirs = special.betaln(a, b), sc.betaln(a, b)
    scale = np.abs(sc.gammaln(a)) + np.abs(sc.gammaln(b)) + np.abs(sc.gammaln(a + b))
    assert np.all(np.abs(ours - theirs) <= 1e-14 * np.maximum(np.abs(theirs), scale))
    np.testing.assert_allclose(special.betaln(2.3, 17.7), sc.betaln(2.3, 17.7), rtol=1e-14)


@pytest.mark.parametrize("name", ["expit", "log_expit", "logit", "gammaln"])
@pytest.mark.parametrize(
    "value",
    [0.25, np.float64(0.25), np.array(0.25), 3, np.array([0.25, 0.75]),
     np.full((2, 3, 4), 0.6), np.zeros((0, 3)), np.arange(1, 7).reshape(2, 3)],
    ids=["float", "np.float64", "0-d", "int", "1-d", "3-d", "empty", "int-2d"],
)
def test_types_and_shapes_follow_scipy(name, value):
    ours, theirs = getattr(special, name)(value), getattr(sc, name)(value)
    assert type(ours) is type(theirs)
    assert_near(name, value, ours, theirs)


def test_betaln_types_and_shapes_follow_scipy():
    for a, b in [(2.0, 3.0), (np.array(2.0), 3.0), (np.array([1.0, 2.0]), np.full((3, 2), 4.0))]:
        ours, theirs = special.betaln(a, b), sc.betaln(a, b)
        assert type(ours) is type(theirs)
        assert np.shape(ours) == np.shape(theirs)
