import csv

import numpy as np
import pytest
from scipy.stats import rankdata

from shmev.metrics import (
    EvalResult,
    _average_ranks,
    empirical_return_times,
    evaluate_site,
    write_eval_report,
)


def fse(quantile_fn, maxima, **threshold):
    return evaluate_site("s", quantile_fn, maxima, **threshold).fse


def bias_and_width(quantile_fn, maxima):
    result = evaluate_site("s", quantile_fn, maxima)
    return result.bias, result.width


def lookup_quantile_fn(maxima, factors):
    """Quantile provider returning ``factor * y_j`` per draw at each p_j."""
    p, _ = empirical_return_times(maxima)
    table = {round(float(pp), 12): float(y) for pp, y in zip(p, maxima)}
    factors = np.asarray(factors, dtype=float)

    def fn(probs):
        ys = np.array([table[round(float(pp), 12)] for pp in np.atleast_1d(probs)])
        return factors[:, None] * ys[None, :]

    return fn


class TestEmpiricalReturnTimes:
    def test_single_maximum(self):
        p, t = empirical_return_times([12.0])
        assert p[0] == pytest.approx(0.5)
        assert t[0] == pytest.approx(2.0)

    def test_rank_arithmetic(self):
        p, t = empirical_return_times([5.0, 9.0, 7.0])
        assert p == pytest.approx([0.25, 0.75, 0.5])
        assert t == pytest.approx([4.0 / 3.0, 4.0, 2.0])

    def test_largest_return_time(self):
        values = np.arange(1.0, 101.0)
        _, t = empirical_return_times(values)
        assert t.max() == pytest.approx(101.0)

    def test_ties_get_average_ranks(self):
        p, _ = empirical_return_times([3.0, 3.0, 5.0])
        assert p[0] == p[1] == pytest.approx(1.5 / 4.0)

    @pytest.mark.parametrize(
        "values",
        [
            [12.0],
            [5.0, 9.0, 7.0],
            [3.0, 3.0, 5.0, 1.0, 3.0, 5.0],
            np.random.default_rng(8).gamma(2.0, 20.0, 200),
            np.round(np.random.default_rng(9).gamma(2.0, 20.0, 200)),  # many ties
            [2.0, np.inf, 1.0, np.inf],
            [2.0, np.nan, 1.0],
        ],
    )
    def test_average_ranks_equal_scipy_rankdata(self, values):
        x = np.asarray(values, dtype=float)
        expected = rankdata(x, method="average")
        assert np.array_equal(_average_ranks(x), expected, equal_nan=True)


class TestFse:
    def test_perfect_predictor(self, rng):
        maxima = 10.0 + 50.0 * rng.random(40)
        fn = lookup_quantile_fn(maxima, np.ones(8))
        assert fse(fn, maxima) == pytest.approx(0.0, abs=1e-14)

    def test_uniform_ten_percent_overprediction(self, rng):
        maxima = 10.0 + 50.0 * rng.random(40)
        fn = lookup_quantile_fn(maxima, np.ones(8) * 1.1)
        assert fse(fn, maxima) == pytest.approx(0.1, abs=1e-12)

    def test_two_draw_symmetric_errors(self):
        # one qualifying observation, draws at +-10% relative error
        maxima = np.array([1.0, 2.0, 3.0])  # p = .25, .5, .75 -> only 3.0 qualifies at T > 2
        fn = lookup_quantile_fn(maxima, np.array([0.9, 1.1]))
        assert fse(fn, maxima) == pytest.approx(np.sqrt((0.01 + 0.01) / 2.0), abs=1e-14)
        assert fse(fn, maxima) == pytest.approx(0.1, abs=1e-14)

    def test_no_qualifying_observations_reports_absent(self):
        maxima = np.array([1.0])
        fn = lookup_quantile_fn(maxima, np.ones(3))
        assert fse(fn, maxima, threshold=5.0) is None


class TestBiasAndWidth:
    def test_symmetric_errors_cancel_bias_but_not_fse(self):
        maxima = np.array([1.0, 2.0, 3.0])
        fn = lookup_quantile_fn(maxima, np.array([0.9, 1.1]))
        bias, _ = bias_and_width(fn, maxima)
        assert bias == pytest.approx(0.0, abs=1e-14)
        assert fse(fn, maxima) == pytest.approx(0.1, abs=1e-14)

    def test_degenerate_posterior_zero_width(self, rng):
        maxima = 10.0 + 50.0 * rng.random(30)
        fn = lookup_quantile_fn(maxima, np.ones(5) * 1.03)
        _, width = bias_and_width(fn, maxima)
        assert width == pytest.approx(0.0, abs=1e-12)

    def test_constant_overprediction_bias(self, rng):
        maxima = 10.0 + 50.0 * rng.random(30)
        fn = lookup_quantile_fn(maxima, np.ones(5) * 1.1)
        bias, _ = bias_and_width(fn, maxima)
        assert bias == pytest.approx(0.1, abs=1e-12)

    def test_width_is_ninety_percent_band(self, rng):
        maxima = np.array([1.0, 2.0, 4.0])
        factors = rng.uniform(0.8, 1.2, size=400)
        fn = lookup_quantile_fn(maxima, factors)
        _, width = bias_and_width(fn, maxima)
        expected = (np.quantile(factors, 0.95) - np.quantile(factors, 0.05)) * 4.0
        assert width == pytest.approx(expected, rel=1e-12)


class TestInvariants:
    def test_fse_dominates_absolute_bias(self, rng):
        maxima = 5.0 + 20.0 * rng.random(25)
        for _ in range(10):
            factors = rng.uniform(0.5, 1.5, size=12)
            fn = lookup_quantile_fn(maxima, factors)
            result_bias, _ = bias_and_width(fn, maxima)
            assert fse(fn, maxima) >= abs(result_bias) - 1e-12

    def test_relative_metrics_invariant_under_rescaling(self, rng):
        maxima = 5.0 + 20.0 * rng.random(25)
        factors = rng.uniform(0.7, 1.3, size=12)
        fn = lookup_quantile_fn(maxima, factors)
        fn10 = lookup_quantile_fn(maxima * 10.0, factors)
        assert fse(fn, maxima) == pytest.approx(fse(fn10, maxima * 10.0), rel=1e-12)
        b1, w1 = bias_and_width(fn, maxima)
        b10, w10 = bias_and_width(fn10, maxima * 10.0)
        assert b1 == pytest.approx(b10, rel=1e-12)
        # the interval width carries the data units, so it scales with them
        assert w10 == pytest.approx(10.0 * w1, rel=1e-12)

    def test_raising_threshold_never_increases_qualifying_count(self, rng):
        maxima = 5.0 + 20.0 * rng.random(50)
        fn = lookup_quantile_fn(maxima, np.ones(4))
        previous = None
        for threshold in (1.5, 2.0, 5.0, 10.0, 40.0):
            res = evaluate_site("s", fn, maxima, threshold)
            if previous is not None:
                assert res.m_t <= previous
            previous = res.m_t


class TestReport:
    def test_report_layout_and_medians(self, tmp_path, rng):
        maxima = 5.0 + 20.0 * rng.random(30)
        rows = []
        for station, factor in (("A", 1.1), ("B", 1.2), ("C", 0.95)):
            fn = lookup_quantile_fn(maxima, np.full(6, factor))
            rows.append(("wei", evaluate_site(station, fn, maxima)))
        path = write_eval_report(rows, tmp_path / "eval.csv")
        with open(path, newline="") as fh:
            parsed = list(csv.reader(fh))
        assert parsed[0] == ["site", "model", "fse", "bias", "width", "m_T"]
        assert [r[0] for r in parsed[1:]] == ["A", "B", "C", "median"]
        median_row = parsed[-1]
        fses = sorted(float(r[2]) for r in parsed[1:4])
        assert float(median_row[2]) == pytest.approx(fses[1])

    def test_absent_metrics_serialize_empty(self, tmp_path):
        res = EvalResult("A", None, None, None, 0, 2.0, 1)
        path = write_eval_report([("wei", res)], tmp_path / "eval.csv")
        with open(path, newline="") as fh:
            parsed = list(csv.reader(fh))
        assert parsed[1][2] == ""
