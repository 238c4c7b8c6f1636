import numpy as np
import pytest
from scipy.stats import ks_2samp

from shmev.errors import NumericError
from shmev.ingest import weibull_mom
from shmev.simulate import (
    ScenarioConfig,
    _simulate_blocks,
    _site_fields,
    gp_sample,
    simulate_scenario,
    true_maxima_sample,
    true_quantile_oracle,
    true_standardized_coefficients,
)


class TestSimulateScenario:
    def test_seeded_runs_are_bit_identical(self):
        cfg = ScenarioConfig(n_sites=4, train_blocks=3, test_blocks=6, seed=5)
        a = simulate_scenario(cfg)
        b = simulate_scenario(cfg)
        assert np.array_equal(a.fields.coords, b.fields.coords)
        assert np.array_equal(a.test_maxima, b.test_maxima, equal_nan=True)
        for row_a, row_b in zip(a.train.events, b.train.events):
            for mag_a, mag_b in zip(row_a, row_b):
                assert np.array_equal(mag_a, mag_b)

    def test_flat_degenerate_field_recovered_by_moments(self):
        cfg = ScenarioConfig(
            n_sites=4,
            train_blocks=2500,  # 10^4 blocks across sites
            test_blocks=1,
            shape_trend=(0.7, 0.0, 0.0),
            scale_trend=(9.0, 0.0, 0.0),
            shape_spread=0.0,
            scale_spread=0.0,
            seed=17,
        )
        synth = simulate_scenario(cfg)
        pooled = np.concatenate([m for row in synth.train.events for m in row])
        mom = weibull_mom(pooled)
        assert abs(mom.shape - 0.7) / 0.7 < 0.01
        assert abs(mom.scale - 9.0) / 9.0 < 0.01

    def test_vanishing_gp_matches_plain_scenario(self):
        base = ScenarioConfig(n_sites=6, train_blocks=5, test_blocks=2, seed=9)
        gp_cfg = ScenarioConfig(
            scenario="WEI_gp",
            n_sites=6,
            train_blocks=5,
            test_blocks=2,
            gp_variance=1e-12,
            gp_range=0.3,
            seed=9,
        )
        fields_a = _site_fields(base, np.random.default_rng(3))
        fields_b = _site_fields(gp_cfg, np.random.default_rng(3))
        assert np.array_equal(fields_a.coords, fields_b.coords)
        assert np.max(np.abs(fields_a.shape_loc - fields_b.shape_loc)) < 1e-5

        # independent event draws from each field are distributionally equal
        events_a = _simulate_blocks(base, fields_a, 60, np.random.default_rng(100))
        events_b = _simulate_blocks(gp_cfg, fields_b, 60, np.random.default_rng(200))
        mags_a = np.concatenate(events_a[0])
        mags_b = np.concatenate(events_b[0])
        assert min(mags_a.size, mags_b.size) > 1000
        assert ks_2samp(mags_a, mags_b).pvalue > 0.01

    def test_gamma_scenario_is_not_weibull(self):
        cfg = ScenarioConfig(scenario="GM", n_sites=2, train_blocks=400, test_blocks=1, seed=23)
        synth = simulate_scenario(cfg)
        sample = np.concatenate([m for m in synth.train.events[0]])
        wei = weibull_mom(sample)
        wei_ll = float(
            np.sum(
                np.log(wei.shape)
                - np.log(wei.scale)
                + (wei.shape - 1) * (np.log(sample) - np.log(wei.scale))
                - (sample / wei.scale) ** wei.shape
            )
        )
        # gamma fit by moments
        k = sample.mean() ** 2 / sample.var()
        theta = sample.var() / sample.mean()
        from scipy.special import gammaln

        gam_ll = float(
            np.sum((k - 1) * np.log(sample) - sample / theta - gammaln(k) - k * np.log(theta))
        )
        assert gam_ll > wei_ll

    def test_counts_match_logistic_trend(self):
        cfg = ScenarioConfig(n_sites=3, train_blocks=400, test_blocks=1, seed=29)
        synth = simulate_scenario(cfg)
        counts = synth.train.counts()
        for s in range(3):
            lam = synth.fields.event_prob[s]
            expected = cfg.trials_per_block * lam
            se = np.sqrt(cfg.trials_per_block * lam * (1 - lam) / cfg.train_blocks)
            assert abs(counts[s].mean() - expected) < 3 * se

    def test_train_and_test_share_the_generative_field(self):
        cfg = ScenarioConfig(n_sites=20, train_blocks=20, test_blocks=40, seed=37)
        synth = simulate_scenario(cfg)
        rejected = 0
        for s in range(cfg.n_sites):
            train_mags = np.concatenate([m for m in synth.train.events[s]])
            fresh = true_maxima_sample  # noqa: F841  (fresh draws below)
            fields = synth.fields
            blocks = _simulate_blocks(cfg, fields, 1000, np.random.default_rng(1000 + s))
            fresh_mags = np.concatenate(blocks[s])[:100_000]
            if ks_2samp(train_mags, fresh_mags).pvalue < 0.01:
                rejected += 1
        assert rejected <= max(1, int(0.05 * cfg.n_sites))

    def test_invalid_scenario_rejected(self):
        with pytest.raises(ValueError):
            ScenarioConfig(scenario="NOPE")

    def test_latent_layer_near_zero_gives_positive_magnitudes(self):
        # an untruncated scale layer at loc 2, scale 2 is <= 0 with probability 0.066
        cfg = ScenarioConfig(
            n_sites=3,
            train_blocks=60,
            test_blocks=5,
            scale_trend=(2.0, 0.0, 0.0),
            scale_spread=2.0,
            seed=51,
        )
        synth = simulate_scenario(cfg)
        for row in synth.train.events:
            for mags in row:
                assert np.all(mags > 0.0)


class TestGpSample:
    def test_univariate_variance(self):
        rng = np.random.default_rng(2)
        coords = np.array([[0.3, 0.7]])
        alpha = 0.2
        draws = np.array([gp_sample(coords, alpha, 0.3, rng)[0] for _ in range(20_000)])
        se = alpha * np.sqrt(2.0 / draws.size)
        assert abs(draws.var(ddof=1) - alpha) < 3 * se

    def test_pairwise_correlation_decay(self):
        rng = np.random.default_rng(3)
        d = 0.4
        coords = np.array([[0.0, 0.0], [d, 0.0]])
        draws = np.array([gp_sample(coords, 1.0, 0.3, rng) for _ in range(20_000)])
        target = np.exp(-d / 0.3)
        corr = np.corrcoef(draws.T)[0, 1]
        se = (1 - target**2) / np.sqrt(draws.shape[0])
        assert abs(corr - target) < 3 * se

    def test_flat_limit_is_perfectly_correlated(self):
        rng = np.random.default_rng(4)
        coords = np.array([[0.1, 0.1], [0.9, 0.9], [0.4, 0.6]])
        draws = np.array([gp_sample(coords, 1.0, 1e9, rng) for _ in range(500)])
        corr = np.corrcoef(draws.T)
        assert corr.min() > 0.999

    def test_singular_beyond_jitter_raises(self):
        rng = np.random.default_rng(5)
        coords = np.array([[0.5, 0.5], [0.5, 0.5]])
        with pytest.raises(NumericError):
            gp_sample(coords, 1e8, 0.3, rng)

    def test_invalid_parameters(self):
        rng = np.random.default_rng(6)
        with pytest.raises(ValueError):
            gp_sample(np.array([[0.0, 0.0]]), -1.0, 0.3, rng)


class TestTrueQuantileOracle:
    def test_degenerate_closed_form(self):
        # trials 100 with saturated rate pins n = 100; spreads 0 pin (1, 10)
        cfg = ScenarioConfig(
            n_sites=1,
            train_blocks=1,
            test_blocks=1,
            shape_trend=(1.0, 0.0, 0.0),
            scale_trend=(10.0, 0.0, 0.0),
            count_trend=(37.0, 0.0, 0.0),
            shape_spread=0.0,
            scale_spread=0.0,
            trials_per_block=100,
            seed=41,
        )
        for prob in (0.5, 0.9, 0.99):
            q, se = true_quantile_oracle(cfg, 0, prob, n_years=150_000)
            closed = -10.0 * np.log(1.0 - prob ** (1.0 / 100.0))
            assert abs(q - closed) < 3 * se + 1e-9

    def test_monotone_in_probability(self):
        cfg = ScenarioConfig(n_sites=2, train_blocks=2, test_blocks=2, seed=43)
        qs = [true_quantile_oracle(cfg, 1, p, n_years=20_000)[0] for p in (0.5, 0.9, 0.98)]
        assert qs[0] < qs[1] < qs[2]

    def test_median_self_consistency_at_doubled_sample(self):
        cfg = ScenarioConfig(n_sites=2, train_blocks=2, test_blocks=2, seed=47)
        q, se = true_quantile_oracle(cfg, 0, 0.5, n_years=100_000, oracle_seed=1)
        big = true_maxima_sample(cfg, 0, 200_000, oracle_seed=2)
        assert abs(q - np.median(big)) < 3 * se * np.sqrt(1.5)

    def test_invalid_probability(self):
        cfg = ScenarioConfig(n_sites=1, train_blocks=1, test_blocks=1, seed=1)
        with pytest.raises(ValueError):
            true_quantile_oracle(cfg, 0, 1.0, n_years=100)


def test_true_standardized_coefficients_only_for_wei():
    cfg = ScenarioConfig(scenario="GM", n_sites=3, train_blocks=2, test_blocks=2, seed=3)
    synth = simulate_scenario(cfg)
    with pytest.raises(ValueError):
        true_standardized_coefficients(synth)

    wei = simulate_scenario(ScenarioConfig(n_sites=3, train_blocks=2, test_blocks=2, seed=3))
    truth = true_standardized_coefficients(wei)
    # the standardized-basis trend reproduces the raw trend at every site
    snap = wei.train.snapshot
    z = snap.standardize(wei.fields.coords)
    implied = z @ np.array([truth["beta_delta[0]"], truth["beta_delta[1]"], truth["beta_delta[2]"]])
    raw = 9.0 + 2.0 * wei.fields.coords[:, 0] + 1.0 * wei.fields.coords[:, 1]
    assert np.max(np.abs(implied - raw)) < 1e-10
