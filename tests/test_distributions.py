import numpy as np
import pytest
from scipy.stats import kstest

from shmev import distributions as dist
from shmev.errors import NumericError
from shmev.predictive import gev_per_draw_quantiles

from .oracles import weibull_cdf, weibull_logpdf_cdf

# frozen oracle values (quadrature / bisection, computed once; see comments)
WEIBULL_CDF_50 = 0.9782314783997237          # quad of the pdf, shape .86 scale 10.5
TRUNC_GUMBEL_MEAN = 11.764102306134353       # quad on (0, inf), loc 10.5 scale 2.19
GEV_Q99 = 140.72021291097172                 # bisection on the cdf, tau .114


class TestWeibull:
    def test_cdf_at_scale(self):
        for shape in (0.5, 0.86, 1.0, 3.7):
            _, cdf = weibull_logpdf_cdf(10.5, dist.WeibullParams(shape, 10.5))
            assert cdf == pytest.approx(1.0 - np.exp(-1.0), abs=1e-12)

    def test_exponential_median(self):
        p = dist.WeibullParams(1.0, 7.0)
        assert weibull_cdf(7.0 * np.log(2.0), p) == pytest.approx(0.5, abs=1e-12)

    def test_cdf_matches_quadrature_oracle(self):
        p = dist.WeibullParams(0.86, 10.5)
        assert weibull_cdf(50.0, p) == pytest.approx(WEIBULL_CDF_50, abs=1e-8)

    def test_domain_errors(self):
        p = dist.WeibullParams(0.86, 10.5)
        with pytest.raises(ValueError):
            weibull_logpdf_cdf(-1.0, p)
        with pytest.raises(ValueError):
            weibull_logpdf_cdf(0.0, p)
        with pytest.raises(ValueError):
            dist.WeibullParams(-0.5, 10.0)
        with pytest.raises(ValueError):
            dist.WeibullParams(0.5, 0.0)

    def test_logpdf_consistent_with_cdf_derivative(self):
        p = dist.WeibullParams(0.86, 10.5)
        x = 12.0
        h = 1e-6
        deriv = (weibull_cdf(x + h, p) - weibull_cdf(x - h, p)) / (2 * h)
        logpdf, _ = weibull_logpdf_cdf(x, p)
        assert np.exp(logpdf) == pytest.approx(deriv, rel=1e-8)


class TestGumbel:
    def test_scale_must_be_positive(self):
        with pytest.raises(ValueError):
            dist.GumbelParams(0.0, -1.0)


class TestGumbelSamplePositive:
    def test_all_positive_and_truncated_mean(self, rng):
        p = dist.GumbelParams(10.5, 2.19)
        draws = dist.gumbel_sample_positive(p, rng, size=200_000)
        assert np.all(draws > 0.0)
        se = draws.std(ddof=1) / np.sqrt(draws.size)
        assert abs(draws.mean() - TRUNC_GUMBEL_MEAN) < 3.0 * se

    def test_draws_follow_the_truncated_cdf(self, rng):
        # at loc 0, scale 1 a plain Gumbel draw is <= 0 with probability 0.37
        f0 = np.exp(-1.0)
        draws = dist.gumbel_sample_positive(dist.GumbelParams(0.0, 1.0), rng, size=100_000)
        assert kstest(draws, lambda x: (np.exp(-np.exp(-x)) - f0) / (1.0 - f0)).pvalue > 0.01

    @pytest.mark.parametrize("u", [0.0, 1.0 - 2.0**-53])
    @pytest.mark.parametrize(
        "loc, scale",
        [
            (800.0, 1.0),  # exp(loc / scale) overflows
            (1600.0, 2.0),
            (np.log(-np.log1p(-1.01 * dist.MIN_POSITIVE_PROB)), 1.0),  # near the feasibility floor
            (3.0 * np.log(-np.log1p(-1.01 * dist.MIN_POSITIVE_PROB)), 3.0),
        ],
    )
    def test_every_uniform_gives_a_finite_positive_draw(self, u, loc, scale):
        class Stub:
            def random(self, size):
                return np.full(size, u)

        draws = dist.gumbel_sample_positive(dist.GumbelParams(loc, scale), Stub(), size=4)
        assert np.all(np.isfinite(draws)) and np.all(draws > 0.0)

    def test_infeasible_truncation_fails_with_diagnostic(self, rng):
        with pytest.raises(NumericError, match="Pr\\(X > 0\\)"):
            dist.gumbel_sample_positive(dist.GumbelParams(-20.0, 1.0), rng, size=10)


def gev_quantile(prob, loc, scale, shape):
    """The CLI's per-draw GEV quantiles for the one draw ``(loc, scale, shape)``."""
    return gev_per_draw_quantiles([[loc, np.log(scale), shape]], np.atleast_1d(prob))[0]


class TestGev:
    def test_cdf_at_location(self):
        # G(loc) = exp(-1) for every shape, so its quantile is loc
        for shape in (-0.3, 0.0, 0.114, 0.5):
            assert gev_quantile(np.exp(-1.0), 50.0, 15.0, shape)[0] == pytest.approx(50.0, abs=1e-12)

    def test_gumbel_limit_quantile_roundtrip(self):
        assert gev_quantile(np.exp(-1.0), 0.0, 1.0, 0.0)[0] == pytest.approx(0.0, abs=1e-12)

    def test_quantile_matches_bisection_oracle(self):
        assert gev_quantile(0.99, 50.0, 15.0, 0.114)[0] == pytest.approx(GEV_Q99, abs=1e-8)

    def test_support_conventions(self):
        probs = np.linspace(1e-6, 1.0 - 1e-6, 101)
        assert np.all(gev_quantile(probs, 0.0, 1.0, 0.5) > -2.0)   # lower endpoint -2
        assert np.all(gev_quantile(probs, 0.0, 1.0, -0.5) < 2.0)   # upper endpoint 2

    def test_invalid_probability(self):
        with pytest.raises(ValueError):
            gev_quantile(1.0, 0.0, 1.0, 0.1)
