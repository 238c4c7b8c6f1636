import numpy as np
import pytest

import shmev.predictive as predictive
from shmev.cli import FittedModel, _level_rows, _site_quantiles
from shmev.data import StandardizationSnapshot
from shmev.distributions import WeibullParams
from shmev.errors import ConvergenceError
from shmev.model import ShmevLayout
from shmev.predictive import (
    BlockDraws,
    MaximaCdfEstimate,
    PredictiveConfig,
    SitePredictiveParams,
    default_y_grid,
    gev_per_draw_quantiles,
    invert_quantiles,
    predictive_cdf,
    predictive_quantile,
    shmev_site_params,
)
from shmev.simulate import ScenarioConfig, simulate_scenario, true_maxima_sample

from .oracles import per_draw_quantiles_reference, weibull_cdf

DEGENERATE_Q99 = 92.05369664023158  # -10 ln(1 - 0.99**(1/100))


def degenerate_params(n_draws, shape=0.86, scale=10.5, event_prob=0.283):
    """All draws identical; vanishing latent spread pins the block parameters."""
    return SitePredictiveParams(
        mu_gamma=np.full(n_draws, shape),
        sigma_gamma=np.full(n_draws, 1e-12),
        mu_delta=np.full(n_draws, scale),
        sigma_delta=np.full(n_draws, 1e-12),
        event_prob=np.full(n_draws, event_prob),
    )


def grid_cdf(est):
    """Per-draw cdf at every point of the estimate's grid, (B, len(y))."""
    return np.column_stack([est.blocks.cdf_at(np.full(est.n_draws, y)) for y in est.y])


def estimate_from_blocks(gamma, delta, n, y):
    return MaximaCdfEstimate(y=y, blocks=BlockDraws(gamma=gamma, delta=delta, n=n))


class TestPredictiveCdf:
    def test_no_events_limit_reports_ones_with_flag(self, rng):
        params = degenerate_params(20, event_prob=1e-15)
        y = np.geomspace(0.5, 100.0, 32)
        est = predictive_cdf(params, y, PredictiveConfig(blocks_per_draw=10), rng)
        assert np.all(grid_cdf(est) == 1.0)
        assert est.all_dry_draws == 20
        assert est.zero_event_blocks == 200

    def test_degenerate_posterior_collapses_to_power_cdf(self, rng):
        # sigma -> 0 and event probability -> 1 give exactly F(y)^trials
        params = SitePredictiveParams(
            mu_gamma=np.full(5, 0.9),
            sigma_gamma=np.full(5, 1e-13),
            mu_delta=np.full(5, 12.0),
            sigma_delta=np.full(5, 1e-13),
            event_prob=np.full(5, 1.0 - 1e-15),
        )
        y = np.geomspace(1.0, 300.0, 64)
        est = predictive_cdf(params, y, PredictiveConfig(blocks_per_draw=7, trials_per_block=100), rng)
        expected = weibull_cdf(y, WeibullParams(0.9, 12.0)) ** 100
        assert np.max(np.abs(grid_cdf(est).mean(axis=0) - expected)) < 1e-9

    def test_matches_brute_force_maxima_simulation(self, rng):
        shape, scale, event_prob = 0.86, 10.5, 0.283
        params = degenerate_params(100, shape, scale, event_prob)
        y = np.geomspace(1.0, 400.0, 256)
        est = predictive_cdf(params, y, PredictiveConfig(blocks_per_draw=500), rng)

        n_years = 200_000
        sim = np.random.default_rng(77)
        maxima = []
        counts = sim.binomial(366, event_prob, size=n_years)
        events = scale * sim.weibull(shape, size=int(counts.sum()))
        starts = np.concatenate([[0], np.cumsum(counts)[:-1]])[counts > 0]
        maxima = np.maximum.reduceat(events, starts)
        qs = np.quantile(maxima, np.linspace(0.001, 0.999, 500))
        ecdf = np.searchsorted(np.sort(maxima), qs, side="right") / maxima.size
        pooled = np.array([est.blocks.cdf_at(np.full(est.n_draws, q)).mean() for q in qs])
        assert np.max(np.abs(pooled - ecdf)) < 0.01

    def test_grid_validation(self, rng):
        params = degenerate_params(3)
        with pytest.raises(ValueError):
            predictive_cdf(params, np.array([3.0, 2.0, 1.0]), PredictiveConfig(), rng)
        with pytest.raises(ValueError):
            predictive_cdf(params, np.array([-1.0, 2.0]), PredictiveConfig(), rng)

    def test_covariate_dimension_mismatch(self):
        layout = ShmevLayout(2, 3, 4)
        draws = np.zeros((10, layout.dim))
        with pytest.raises(ValueError, match="covariate"):
            shmev_site_params(draws, layout, np.array([1.0, 0.5]))


def kernel_blocks():
    """Rows mixing shapes 0.3..3, scales 0.1..1e3 and counts 0..366; the
    last two rows are all dry."""
    pick = np.random.default_rng(8).choice
    gamma = pick([0.3, 0.7, 1.0, 2.0, 3.0], size=(10, 6))
    delta = pick([0.1, 1.0, 10.0, 100.0, 1e3], size=(10, 6))
    n = pick([0, 1, 17, 100, 366], size=(10, 6))
    n[-2:] = 0
    return BlockDraws(gamma=gamma, delta=delta, n=n)


class TestCdfKernel:
    @pytest.mark.parametrize("y", [0.05, 0.5, 3.0, 30.0, 300.0, 3e3, 3e4])
    def test_slope_matches_central_difference(self, y):
        blocks = kernel_blocks()
        x = np.full(blocks.n_draws, y)
        h = 1e-5
        cdf, slope = blocks.cdf_kernel(x, slope=True)
        up, _ = blocks.cdf_kernel(x * np.exp(h), slope=True)
        down, _ = blocks.cdf_kernel(x * np.exp(-h), slope=True)
        fd = (up - down) / (2.0 * h)
        assert np.all(np.isfinite(slope)) and np.all(slope >= 0.0)
        assert np.allclose(slope, fd, rtol=1e-5, atol=1e-9)
        # all-dry rows: the cdf is exactly 1 and its slope exactly 0
        assert np.all(cdf[-2:] == 1.0)
        assert np.all(slope[-2:] == 0.0)

    def test_cdf_at_is_the_kernel_cdf_byte_for_byte(self):
        blocks = kernel_blocks()
        x = np.geomspace(0.01, 1e4, blocks.n_draws)
        full = blocks.cdf_at(x)
        assert full.tobytes() == blocks.cdf_kernel(x)[0].tobytes()
        assert full.tobytes() == blocks.cdf_kernel(x, slope=True)[0].tobytes()


class TestPredictiveQuantile:
    def test_roundtrip_through_cdf(self, rng):
        params = degenerate_params(50)
        y = np.geomspace(1.0, 300.0, 128)
        est = predictive_cdf(params, y, PredictiveConfig(blocks_per_draw=200), rng)
        mean_q, _, _ = predictive_quantile(est, 0.9)
        assert abs(float(est.blocks.cdf_at(np.full(est.n_draws, mean_q)).mean()) - 0.9) < 0.002

    def test_degenerate_closed_form(self, monkeypatch):
        y = np.geomspace(1.0, 200.0, 64)
        est = estimate_from_blocks(
            gamma=np.ones((1, 3)),
            delta=np.full((1, 3), 10.0),
            n=np.full((1, 3), 100),
            y=y,
        )
        mean_q, lo, hi = predictive_quantile(est, 0.99)
        # |cdf - prob| < 1e-6 maps to ~5e-4 in y where the maxima cdf is flat
        assert mean_q == pytest.approx(DEGENERATE_Q99, abs=5e-3)
        assert lo == pytest.approx(mean_q, abs=1e-6)
        assert hi == pytest.approx(mean_q, abs=1e-6)
        monkeypatch.setattr(predictive, "_CDF_TOL", 1e-10)
        tight = est.per_draw_quantiles([0.99])
        assert tight[0, 0] == pytest.approx(DEGENERATE_Q99, abs=1e-6)

    def test_fifty_year_level_matches_brute_force_oracle(self, rng):
        cfg = ScenarioConfig(n_sites=3, train_blocks=5, test_blocks=5, seed=31)
        synth = simulate_scenario(cfg)
        site = 0
        params = SitePredictiveParams(
            mu_gamma=np.full(200, synth.fields.shape_loc[site]),
            sigma_gamma=np.full(200, cfg.shape_spread),
            mu_delta=np.full(200, synth.fields.scale_loc[site]),
            sigma_delta=np.full(200, cfg.scale_spread),
            event_prob=np.full(200, synth.fields.event_prob[site]),
        )
        y = np.geomspace(1.0, 500.0, 128)
        est = predictive_cdf(params, y, PredictiveConfig(blocks_per_draw=500), rng)
        mean_q, _, _ = predictive_quantile(est, 0.98)
        oracle = np.quantile(true_maxima_sample(cfg, site, 300_000, oracle_seed=5), 0.98)
        assert abs(mean_q - oracle) / oracle < 0.02

    def test_unreachable_probability_raises(self, monkeypatch):
        y = np.geomspace(1.0, 10.0, 16)
        est = estimate_from_blocks(
            gamma=np.ones((2, 4)), delta=np.full((2, 4), 10.0), n=np.zeros((2, 4), dtype=int), y=y
        )
        # all-dry draws have cdf == 1 everywhere, so any prob < 1 is fine (returns 0)
        q = est.per_draw_quantiles([0.5])
        assert np.all(q == pytest.approx(0.0, abs=1e-9))
        monkeypatch.setattr(predictive, "_MAX_EXTENSIONS", 1)
        est.blocks.n = np.full((2, 4), 1)
        est.blocks.gamma = np.full((2, 4), 0.2)
        est.blocks.delta = np.full((2, 4), 1e6)
        with pytest.raises(ConvergenceError):
            est.per_draw_quantiles([0.999999])


def site_estimate(n_draws, m, seed, bracket, event_prob=0.3):
    sim = np.random.default_rng(seed)
    params = SitePredictiveParams(
        mu_gamma=0.8 + 0.05 * sim.standard_normal(n_draws),
        sigma_gamma=np.full(n_draws, 0.05),
        mu_delta=10.0 + sim.standard_normal(n_draws),
        sigma_delta=np.full(n_draws, 1.5),
        event_prob=np.full(n_draws, event_prob),
    )
    return predictive_cdf(params, np.array(bracket), PredictiveConfig(blocks_per_draw=m), sim)


def mixed_jobs():
    """Estimates with their own brackets and level sets: unsorted,
    duplicated, of different lengths; one all dry, one with dry draws."""
    ests = [
        site_estimate(7, 12, 1, [0.05, 400.0]),
        site_estimate(30, 12, 2, [1.0, 20.0]),  # the upper end needs doubling
        site_estimate(5, 12, 3, [0.5, 900.0], event_prob=1e-15),  # every draw dry
        site_estimate(12, 12, 4, [0.2, 150.0], event_prob=3e-4),  # some draws dry
        site_estimate(1, 12, 5, [2.0, 60.0]),
    ]
    probs = [
        [0.99, 0.5, 0.9],
        [0.5, 0.98, 0.5, 0.8, 0.99, 0.98],
        [0.3],
        [0.96, 0.2, 0.96, 0.7],
        [0.9, 0.1],
    ]
    return ests, probs


class TestInvertQuantiles:
    # 12 blocks a draw: 10_000 elements hold every draw in one chunk, 120
    # put 10 draws in a chunk, so the 30-draw estimate spans four chunks and
    # chunk boundaries fall inside estimates; 12 solves one draw at a time
    @pytest.mark.parametrize("budget", [10_000, 120, 12])
    def test_chunks_equal_the_per_estimate_reference_bit_for_bit(self, budget, monkeypatch):
        monkeypatch.setattr(predictive, "_CHUNK_ELEMENTS", budget)
        ests, probs = mixed_jobs()
        got = list(invert_quantiles(zip(ests, probs)))
        assert len(got) == len(ests)
        for est, p, q in zip(ests, probs, got):
            expected = per_draw_quantiles_reference(est, p)
            assert q.shape == expected.shape
            assert q.tobytes() == expected.tobytes()
            assert est.per_draw_quantiles(p).tobytes() == expected.tobytes()
        assert np.all(got[2] == got[2][:, :1])  # all dry: the bracket collapses

    def test_estimates_are_read_as_the_chunks_reach_them(self, monkeypatch):
        monkeypatch.setattr(predictive, "_CHUNK_ELEMENTS", 10 * 12)
        read = []

        def jobs():
            for seed in range(6):
                read.append(seed)
                yield site_estimate(5, 12, seed, [0.5, 300.0]), [0.9]

        results = invert_quantiles(jobs())
        next(results)
        assert read == [0, 1]  # the first chunk holds two estimates
        assert len(list(results)) == 5
        assert read == list(range(6))

    @pytest.mark.parametrize("budget", [10_000, 24])
    def test_unreachable_probability_in_a_chunk_names_its_estimate(self, budget, monkeypatch):
        monkeypatch.setattr(predictive, "_CHUNK_ELEMENTS", budget)
        ests = [site_estimate(3, 12, seed, [0.5, 300.0]) for seed in range(3)]
        stuck = ests[1]
        monkeypatch.setattr(predictive, "_MAX_EXTENSIONS", 2)
        stuck.blocks.gamma[1:] = 0.2
        stuck.blocks.delta[1:] = 1e6
        probs = [[0.9], [0.5, 0.999999], [0.9]]
        with pytest.raises(ConvergenceError) as expected:
            per_draw_quantiles_reference(stuck, probs[1])
        assert str(expected.value) == "target probability 0.999999 unreachable after 2 grid extensions"
        with pytest.raises(ConvergenceError) as got:
            list(invert_quantiles(zip(ests, probs)))
        assert str(got.value) == str(expected.value)


@pytest.fixture(scope="module")
def fitted_like():
    rng = np.random.default_rng(3)
    layout = ShmevLayout(2, 2, 3)
    n_draws = 150
    draws = np.zeros((n_draws, layout.dim))
    draws[:, layout.beta_gamma] = [0.85, 0.02, -0.02] + 0.01 * rng.standard_normal((n_draws, 3))
    draws[:, layout.beta_delta] = [10.0, 0.5, 0.3] + 0.05 * rng.standard_normal((n_draws, 3))
    draws[:, layout.beta_lambda] = [-0.9, 0.1, -0.1] + 0.01 * rng.standard_normal((n_draws, 3))
    draws[:, layout.log_sigma_gamma] = np.log(0.05)
    draws[:, layout.log_sigma_delta] = np.log(1.5)
    snapshot = StandardizationSnapshot(("z1", "z2"), np.array([0.5, 0.5]), np.array([0.25, 0.25]))
    return draws, layout, snapshot


def spatial_fit(draws, layout, snapshot) -> FittedModel:
    """The fields of a spatial fit that its predictive path reads."""
    meta = {"layout": {"p": layout.n_covariates, "J": layout.n_blocks, "S": layout.n_sites}}
    return FittedModel(kind="shmev", meta=meta, posteriors={}, snapshot=snapshot)


def grid_levels(fitted_like, points, periods, config, seed, y):
    """``map``'s rows over ``points``: the shared draws, each point's
    standardised row, the common bracket ``y`` and the point's own stream."""
    draws, layout, snapshot = fitted_like
    probs = 1.0 - 1.0 / np.asarray(periods, dtype=float)
    streams = np.random.SeedSequence(seed).spawn(len(points))
    jobs = [((draws, z, y), probs, stream) for z, stream in zip(snapshot.standardize(points), streams)]
    quantiles = _site_quantiles(spatial_fit(*fitted_like), config, jobs)
    rows = [row for q in quantiles for row in _level_rows([], periods, q)]
    return np.array(rows, dtype=float).reshape(len(points), len(periods), 4)


class TestReturnLevelMap:
    def test_single_point_matches_site_quantile(self, fitted_like):
        # a grid point's quantiles are a station's with the same draws,
        # covariate row, bracket and stream, bit for bit
        draws, layout, snapshot = fitted_like
        config = PredictiveConfig(blocks_per_draw=100)
        y = np.geomspace(1.0, 400.0, 128)
        stream = np.random.SeedSequence(42).spawn(1)[0]
        z = snapshot.standardize([[0.6, 0.4]])[0]
        probs = np.array([1.0 - 1.0 / 25.0, 1.0 - 1.0 / 50.0])
        q = next(_site_quantiles(spatial_fit(*fitted_like), config, [((draws, z, y), probs, stream)]))
        est = predictive_cdf(shmev_site_params(draws, layout, z), y, config, np.random.default_rng(stream))
        assert q.tobytes() == est.per_draw_quantiles(probs).tobytes()
        _, mean_q, lo, hi = grid_levels(fitted_like, [[0.6, 0.4]], [25.0], config, 42, y)[0, 0]
        assert (mean_q, lo, hi) == predictive_quantile(est, 1.0 - 1.0 / 25.0)

    def test_monotone_in_return_period_and_bands_ordered(self, fitted_like):
        pts = np.array([[0.2, 0.8], [0.5, 0.5], [0.9, 0.1]])
        y = np.geomspace(1.0, 400.0, 128)
        levels = grid_levels(fitted_like, pts, [25.0, 50.0], PredictiveConfig(blocks_per_draw=60), 1, y)
        mean, q05, q95 = levels[..., 1], levels[..., 2], levels[..., 3]
        assert np.all(np.diff(levels[..., 1:], axis=1) >= 0.0)
        assert np.all(q05 <= mean) and np.all(mean <= q95)

    def test_constant_raster_is_constant_up_to_noise(self, fitted_like):
        pts = np.repeat([[0.5, 0.5]], 5, axis=0)
        y = np.geomspace(1.0, 400.0, 128)
        mean = grid_levels(fitted_like, pts, [25.0], PredictiveConfig(blocks_per_draw=100), 9, y)[:, 0, 1]
        spread = mean.max() - mean.min()
        assert spread / mean.mean() < 0.01


class TestInvariants:
    def test_per_draw_curves_are_valid_cdfs(self, rng):
        params = SitePredictiveParams(
            mu_gamma=0.8 + 0.05 * rng.standard_normal(40),
            sigma_gamma=np.full(40, 0.05),
            mu_delta=10.0 + rng.standard_normal(40),
            sigma_delta=np.full(40, 1.5),
            event_prob=np.full(40, 0.3),
        )
        y = np.geomspace(0.5, 2000.0, 256)
        est = predictive_cdf(params, y, PredictiveConfig(blocks_per_draw=50), rng)
        per_draw = grid_cdf(est)
        assert np.all((per_draw >= 0.0) & (per_draw <= 1.0))
        assert np.all(np.diff(per_draw, axis=1) >= -1e-12)
        assert np.all(per_draw[:, -1] > 1.0 - 1e-8)

    def test_quantile_curves_monotone_per_draw(self, rng):
        params = SitePredictiveParams(
            mu_gamma=0.8 + 0.05 * rng.standard_normal(60),
            sigma_gamma=np.full(60, 0.05),
            mu_delta=10.0 + rng.standard_normal(60),
            sigma_delta=np.full(60, 1.5),
            event_prob=np.full(60, 0.3),
        )
        y = np.geomspace(0.5, 500.0, 128)
        est = predictive_cdf(params, y, PredictiveConfig(blocks_per_draw=80), rng)
        periods = np.array([2.0, 5.0, 10.0, 25.0, 50.0, 100.0])
        q = est.per_draw_quantiles(1.0 - 1.0 / periods)
        assert np.all(np.diff(q, axis=1) >= 0.0)

    def test_newton_needs_few_kernel_calls_per_probability(self, rng, monkeypatch):
        params = SitePredictiveParams(
            mu_gamma=0.8 + 0.05 * rng.standard_normal(60),
            sigma_gamma=np.full(60, 0.05),
            mu_delta=10.0 + rng.standard_normal(60),
            sigma_delta=np.full(60, 1.5),
            event_prob=np.full(60, 0.3),
        )
        y = np.geomspace(0.5, 500.0, 128)
        est = predictive_cdf(params, y, PredictiveConfig(blocks_per_draw=80), rng)
        calls = []
        kernel = BlockDraws.cdf_kernel
        monkeypatch.setattr(BlockDraws, "cdf_kernel", lambda *a, **k: calls.append(1) or kernel(*a, **k))
        probs = 1.0 - 1.0 / np.array([2.0, 5.0, 10.0, 25.0, 50.0, 100.0])
        est.per_draw_quantiles(probs)
        # bisection from the global upper bracket needs about 20
        assert len(calls) / probs.size < 10

    def test_default_grid_spans_observations(self):
        mags = np.array([0.5, 3.0, 80.0])
        grid = default_y_grid(mags)
        assert grid[0] == pytest.approx(0.05)
        assert grid[-1] == pytest.approx(400.0)


def test_gev_per_draw_quantiles_closed_form():
    draws = np.array(
        [
            [50.0, np.log(15.0), 0.114],
            [50.0, np.log(15.0), 0.0],
        ]
    )
    q = gev_per_draw_quantiles(draws, [0.99])
    assert q[0, 0] == pytest.approx(140.72021291097172, abs=1e-8)
    assert q[1, 0] == pytest.approx(50.0 - 15.0 * np.log(-np.log(0.99)), abs=1e-10)
