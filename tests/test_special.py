"""The ports in ``shmev.special`` against ``scipy.special``: bit for bit for
expit, log_expit, logit and gammaln, to a tight tolerance for betaln."""
import warnings

import numpy as np
import pytest
import scipy.special as sc

from shmev import special

INF, NAN = np.inf, np.nan
EDGES = [0.0, -0.0, INF, -INF, NAN, 1e-320, -1e-320, 5e-324, 1e308, -1e308,
         709.78, -709.78, 709.79, -709.79, 710.0, -710.0, 745.2, -745.2, 800.0, -800.0]


def same_bits(ours, theirs):
    """Equal values with equal signs of zero; any nan matches any nan."""
    ours, theirs = np.asarray(ours), np.asarray(theirs)
    assert ours.shape == theirs.shape and ours.dtype == theirs.dtype
    nan = np.isnan(theirs)
    np.testing.assert_array_equal(np.isnan(ours), nan)
    bad = ours[~nan].view(np.int64) != theirs[~nan].view(np.int64)
    assert not bad.any(), (ours[~nan][bad][:5], theirs[~nan][bad][:5])


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
def test_logistic_functions_equal_scipy(name, rng):
    x = real_line(rng)
    ours, theirs = getattr(special, name), getattr(sc, name)
    same_bits(ours(x), theirs(x))
    for v in x[-len(EDGES):].tolist() + x[:200].tolist():
        same_bits(ours(v), theirs(v))


def test_log_expit_pair_equals_log_expit_of_both_signs(rng):
    x = real_line(rng)
    _, lo, hi = special.expit_log_expit_pair(x)
    same_bits(lo, sc.log_expit(x))
    same_bits(hi, sc.log_expit(-x))


@pytest.mark.parametrize("shape", [None, (0,), (27,), (3, 4)])
def test_fused_logistic_pass_equals_the_separate_calls(rng, shape):
    x = real_line(rng) if shape is None else rng.standard_normal(shape) * 5.0
    lam, lo, hi = special.expit_log_expit_pair(x)
    same_bits(lam, special.expit(x))
    same_bits(lam, sc.expit(x))
    same_bits(lo, special.log_expit(x))
    same_bits(hi, special.log_expit(-x))


def test_logit_equals_scipy(rng):
    u = np.concatenate([
        rng.random(20_000),
        rng.uniform(0.29, 0.66, 5_000),
        10.0 ** rng.uniform(-300, 0, 2_000),
        1.0 - 10.0 ** rng.uniform(-16, 0, 2_000),
        np.nextafter([0.3, 0.3, 0.65, 0.65], [0.0, 1.0, 0.0, 1.0]),
        [0.0, -0.0, 1.0, 0.3, 0.65, 0.5, -1.0, 2.0, INF, -INF, NAN, 5e-324, 1e-6, 1 - 1e-6],
    ])
    same_bits(special.logit(u), sc.logit(u))
    for v in u[-30:].tolist():
        same_bits(special.logit(v), sc.logit(v))


def test_gammaln_equals_scipy(rng):
    x = np.concatenate([
        np.exp(rng.uniform(np.log(1e-6), np.log(7e10), 40_000)),
        rng.uniform(0.0, 15.0, 20_000),
        rng.uniform(-34.0, 0.0, 5_000),
        np.arange(1.0, 401.0),
        np.arange(1.0, 401.0) + 0.5,
        [0.0, -0.0, -1.0, -33.0, 5e-324, 1e-320, 1e-300, 2.0, 3.0, 13.0, np.nextafter(13.0, 0.0),
         1000.0, np.nextafter(1000.0, 0.0), 1e8, np.nextafter(1e8, 2e8), 1e300, 2.556348e305,
         2.5563481e305, 1e308, INF, -INF, NAN],
    ])
    same_bits(special.gammaln(x), sc.gammaln(x))
    for v in x[-22:].tolist() + list(range(1, 401)):
        same_bits(special.gammaln(v), sc.gammaln(v))


def test_gammaln_rejects_arguments_below_the_port():
    with pytest.raises(ValueError, match="-34"):
        special.gammaln(-40.5)


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
     np.full((2, 3, 4), 0.6), np.zeros((0, 3)), np.arange(6).reshape(2, 3)],
    ids=["float", "np.float64", "0-d", "int", "1-d", "3-d", "empty", "int-2d"],
)
def test_types_and_shapes_follow_scipy(name, value):
    ours, theirs = getattr(special, name)(value), getattr(sc, name)(value)
    assert type(ours) is type(theirs)
    same_bits(ours, theirs)


def test_betaln_types_and_shapes_follow_scipy():
    for a, b in [(2.0, 3.0), (np.array(2.0), 3.0), (np.array([1.0, 2.0]), np.full((3, 2), 4.0))]:
        ours, theirs = special.betaln(a, b), sc.betaln(a, b)
        assert type(ours) is type(theirs)
        assert np.shape(ours) == np.shape(theirs)
