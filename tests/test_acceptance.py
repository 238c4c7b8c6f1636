"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line with its measured quantities and honoring its runtime budget.

Criterion 7 replays the North Carolina study and needs the archive extract;
it is skipped unless ``SHMEV_NC_EVENTS`` and ``SHMEV_NC_COVARIATES`` point
at the canonical event/covariate files.
"""
import os
import time

import numpy as np
import pytest
import yaml

from shmev.cli import run_command
from shmev.hmc import HmcJob, SamplerConfig, run_hmc, run_hmc_jobs
from shmev.ingest import (
    ElicitationRules,
    QcPolicy,
    build_dataset,
    elicit_priors,
    load_and_qc,
    read_covariate_file,
    training_events,
)
from shmev.metrics import evaluate_site
from shmev.model import GevPriorSpec, GevTarget, HmevTarget, ShmevTarget
from shmev.ingest import elicit_hmev_priors
from shmev.predictive import (
    PredictiveConfig,
    SitePredictiveParams,
    gev_per_draw_quantiles,
    predictive_cdf,
    shmev_site_params,
)
from shmev.simulate import ScenarioConfig, simulate_scenario, true_standardized_coefficients

from .test_metrics import lookup_quantile_fn


def report(criterion, passed, detail, elapsed=None):
    status = "PASS" if passed else "FAIL"
    suffix = f", {elapsed:.1f}s" if elapsed is not None else ""
    print(f"ACCEPTANCE {criterion}: {status} ({detail}{suffix})")


def perturbed_inits(target, config, seed):
    base = target.initial_vector()
    rng = np.random.default_rng(np.random.SeedSequence([seed, 1]))
    return base[None, :] + 0.1 * rng.standard_normal((config.n_chains, base.size))


def test_criterion_1_gradient_correctness():
    """Analytic gradients match central finite differences (step 1e-5) with
    per-coordinate relative error < 1e-5 at 20 random points per model."""
    start = time.time()
    step = 1e-5
    rng = np.random.default_rng(314)
    synth = simulate_scenario(ScenarioConfig(n_sites=5, train_blocks=5, test_blocks=50, seed=42))
    worst = 0.0

    def check(target, points):
        nonlocal worst
        for v in points:
            logp, grad = target(v)
            assert np.isfinite(logp)
            for k in range(v.size):
                vp, vm = v.copy(), v.copy()
                vp[k] += step
                vm[k] -= step
                fd = (target(vp)[0] - target(vm)[0]) / (2 * step)
                rel = abs(grad[k] - fd) / max(1.0, abs(fd))
                worst = max(worst, rel)

    starget = ShmevTarget(synth.train, elicit_priors(synth.train))
    points = []
    while len(points) < 20:
        v = starget.initial_vector() + 0.1 * rng.standard_normal(starget.layout.dim)
        # keep |logp| moderate so the FD oracle's float64 roundoff stays
        # well below the 1e-5 tolerance
        if abs(starget(v)[0]) < 5e4:
            points.append(v)
    check(starget, points)

    maxima = synth.test_maxima[0][np.isfinite(synth.test_maxima[0])]
    gtarget = GevTarget(maxima, GevPriorSpec.from_maxima(maxima))
    points = []
    while len(points) < 20:
        v = np.array(
            [rng.uniform(30, 90), np.log(rng.uniform(5, 30)), rng.uniform(-0.3, 0.4)]
        )
        if np.isfinite(gtarget(v)[0]):
            points.append(v)
    check(gtarget, points)

    blocks = synth.train.events[0]
    htarget = HmevTarget(blocks, synth.train.trials_per_block, elicit_hmev_priors(blocks, 366))
    points = [
        htarget.initial_vector() + 0.1 * rng.standard_normal(htarget.layout.dim)
        for _ in range(20)
    ]
    check(htarget, points)

    elapsed = time.time() - start
    report(1, worst < 1e-5 and elapsed < 60, f"max rel err {worst:.2e}", elapsed)
    assert worst < 1e-5
    assert elapsed < 60


def test_criterion_2_sampler_calibration():
    """10-dim standard normal with 4 chains x 2000 (half warmup, B = 4000):
    per-coordinate mean within +-0.05, variance within +-10%, R-hat < 1.01."""
    start = time.time()

    def target(v):
        return -0.5 * float(v @ v), -v

    config = SamplerConfig(n_chains=4, n_iterations=2000, warmup_fraction=0.5, seed=2024)
    init = np.random.default_rng(1).standard_normal((4, 10)) * 2.0
    post = run_hmc(target, config, init)
    elapsed = time.time() - start

    mean_err = float(np.abs(post.draws.mean(axis=0)).max())
    var_err = float(np.abs(post.draws.var(axis=0) - 1.0).max())
    max_rhat = float(post.rhat.max())
    ok = post.n_draws == 4000 and mean_err < 0.05 and var_err < 0.1 and max_rhat < 1.01
    report(
        2,
        ok and elapsed < 60,
        f"B={post.n_draws}, |mean|<={mean_err:.3f}, |var-1|<={var_err:.3f}, rhat<={max_rhat:.4f}",
        elapsed,
    )
    assert post.n_draws == 4000
    assert mean_err < 0.05
    assert var_err < 0.1
    assert max_rhat < 1.01
    assert elapsed < 60


def test_criterion_3_predictive_cdf_oracle_equivalence():
    """Pipeline maxima cdf at fixed (shape 0.86, scale 10.5, rate 0.283) vs a
    1e6-sample brute-force annual-maxima simulation: KS distance < 0.01."""
    start = time.time()
    shape, scale, rate = 0.86, 10.5, 0.283
    rng = np.random.default_rng(5150)
    params = SitePredictiveParams(
        mu_gamma=np.full(200, shape),
        sigma_gamma=np.full(200, 1e-12),
        mu_delta=np.full(200, scale),
        sigma_delta=np.full(200, 1e-12),
        event_prob=np.full(200, rate),
    )
    est = predictive_cdf(
        params,
        np.geomspace(1.0, 400.0, 512),
        PredictiveConfig(blocks_per_draw=500, trials_per_block=366),
        rng,
    )

    n_years = 1_000_000
    sim = np.random.default_rng(99)
    maxima = np.empty(n_years)
    filled = 0
    for begin in range(0, n_years, 100_000):
        chunk = min(100_000, n_years - begin)
        counts = sim.binomial(366, rate, size=chunk)
        events = scale * sim.weibull(shape, size=int(counts.sum()))
        starts = np.concatenate([[0], np.cumsum(counts)[:-1]])[counts > 0]
        block_max = np.maximum.reduceat(events, starts)
        maxima[filled : filled + block_max.size] = block_max
        filled += block_max.size
    maxima = np.sort(maxima[:filled])

    qs = np.quantile(maxima, np.linspace(0.0005, 0.9995, 2000))
    ecdf = np.searchsorted(maxima, qs, side="right") / maxima.size
    pooled = np.array([float(est.blocks.cdf_at(np.full(est.n_draws, q)).mean()) for q in qs])
    ks = float(np.abs(pooled - ecdf).max())
    elapsed = time.time() - start
    report(3, ks < 0.01 and elapsed < 120, f"KS distance {ks:.4f} over {filled} years", elapsed)
    assert ks < 0.01
    assert elapsed < 120


def test_criterion_4_parameter_recovery():
    """10 WEI replicates (S=27, J=20): the 90% credible interval covers the
    true value for >= 80% of the top-level parameters on average.

    The fitted WEI configuration has 3(p+1) + 2 = 11 top-level parameters
    (p = 2 spatial coordinates); the coverage fraction is computed over all
    of them, whatever p is configured.
    """
    start = time.time()
    coverages = []
    for rep in range(10):
        synth = simulate_scenario(ScenarioConfig(seed=1000 + rep))
        target = ShmevTarget(synth.train, elicit_priors(synth.train))
        config = SamplerConfig(
            n_chains=2, n_iterations=800, leapfrog_steps=24, seed=9000 + rep
        )
        post = run_hmc(
            target, config, perturbed_inits(target, config, 9000 + rep),
            target.layout.param_names(), n_workers=2,
        )
        truth = true_standardized_coefficients(synth)
        names = target.layout.param_names()
        hits = 0
        for name, value in truth.items():
            column = post.draws[:, names.index(name)]
            lo, hi = np.quantile(column, [0.05, 0.95])
            hits += int(lo <= value <= hi)
        coverages.append(hits / len(truth))
    mean_coverage = float(np.mean(coverages))
    elapsed = time.time() - start
    report(
        4,
        mean_coverage >= 0.8 and elapsed < 1800,
        f"mean 90%-CI coverage {mean_coverage:.2f} over {len(coverages)} replicates "
        f"(per-replicate {['%.2f' % c for c in coverages]})",
        elapsed,
    )
    assert mean_coverage >= 0.8
    assert elapsed < 1800


def test_criterion_5_simulation_benchmark_ordering():
    """WEI study with default coefficients, threshold return time 2 and 100
    test blocks: the spatial model beats the GEV benchmark on the median FSE
    across sites and on the credible width at >= 70% of sites."""
    start = time.time()
    cfg = ScenarioConfig(seed=2718)  # S=27, J_train=20, J_test=100
    synth = simulate_scenario(cfg)
    dataset = synth.train

    starget = ShmevTarget(dataset, elicit_priors(dataset))
    sconfig = SamplerConfig(n_chains=4, n_iterations=1200, leapfrog_steps=24, seed=55)
    spost = run_hmc(
        starget, sconfig, perturbed_inits(starget, sconfig, 55),
        starget.layout.param_names(), n_workers=4,
    )

    # each site's block maxima as cmd_fit takes them; the sites' GEV fits
    # run as one job each in one call, whose chains advance in lockstep
    gev_jobs = []
    for s in range(dataset.n_sites):
        maxima = np.array([b.max() for b in dataset.events[s] if b.size])
        gtarget = GevTarget(maxima, GevPriorSpec.from_maxima(maxima))
        gconfig = SamplerConfig(n_chains=4, n_iterations=600, leapfrog_steps=16, seed=7000 + s)
        gev_jobs.append(HmcJob(gtarget, gconfig, perturbed_inits(gtarget, gconfig, 7000 + s)))
    gev_draws = [post.draws for post in run_hmc_jobs(gev_jobs)]

    pconfig = PredictiveConfig(blocks_per_draw=100, trials_per_block=cfg.trials_per_block)
    streams = np.random.SeedSequence(808).spawn(dataset.n_sites)
    shmev_results, gev_results = [], []
    for s in range(dataset.n_sites):
        test_max = synth.test_maxima[s][np.isfinite(synth.test_maxima[s])]
        assert test_max.size == 100  # M_x = 100 test blocks
        rng = np.random.default_rng(streams[s])
        params = shmev_site_params(spost.draws, starget.layout, dataset.sites[s].z)
        grid = np.geomspace(0.1 * test_max.min(), 5.0 * test_max.max(), 256)
        est = predictive_cdf(params, grid, pconfig, rng)
        shmev_results.append(evaluate_site(f"S{s}", est.per_draw_quantiles, test_max, 2.0))
        gev_results.append(
            evaluate_site(f"S{s}", lambda p: gev_per_draw_quantiles(gev_draws[s], p), test_max, 2.0)
        )

    fse_shmev = np.array([r.fse for r in shmev_results])
    fse_gev = np.array([r.fse for r in gev_results])
    width_shmev = np.array([r.width for r in shmev_results])
    width_gev = np.array([r.width for r in gev_results])
    median_ok = np.median(fse_shmev) < np.median(fse_gev)
    width_frac = float(np.mean(width_shmev < width_gev))
    elapsed = time.time() - start
    report(
        5,
        median_ok and width_frac >= 0.7 and elapsed < 2700,
        f"median FSE {np.median(fse_shmev):.3f} (spatial) vs {np.median(fse_gev):.3f} (GEV); "
        f"narrower width at {width_frac:.0%} of sites",
        elapsed,
    )
    assert median_ok
    assert width_frac >= 0.7
    assert elapsed < 2700


def test_criterion_6_metric_unit_values():
    """FSE/bias/width closed-form unit checks."""
    maxima = np.array([1.0, 2.0, 3.0])

    over = lookup_quantile_fn(maxima, np.ones(4) * 1.1)
    res_over = evaluate_site("s", over, maxima, 2.0)
    sym = lookup_quantile_fn(maxima, np.array([0.9, 1.1]))
    res_sym = evaluate_site("s", sym, maxima, 2.0)
    degenerate = lookup_quantile_fn(maxima, np.ones(6) * 1.02)
    res_deg = evaluate_site("s", degenerate, maxima, 2.0)

    ok = (
        abs(res_over.fse - 0.1) < 1e-12
        and abs(res_sym.bias) < 1e-12
        and abs(res_sym.fse - 0.1) < 1e-12
        and res_deg.width == 0.0
    )
    report(6, ok, "FSE(+10%)=0.1, b_q(+-10%)=0 with FSE=0.1, width(degenerate)=0")
    assert abs(res_over.fse - 0.1) < 1e-12
    assert abs(res_sym.bias) < 1e-12
    assert abs(res_sym.fse - 0.1) < 1e-12
    assert res_deg.width == 0.0


@pytest.mark.skipif(
    not (os.environ.get("SHMEV_NC_EVENTS") and os.environ.get("SHMEV_NC_COVARIATES")),
    reason="North Carolina archive extract not supplied "
    "(set SHMEV_NC_EVENTS and SHMEV_NC_COVARIATES)",
)
def test_criterion_7_nc_replication():
    """With the elicitation defaults on the user-supplied archive extract,
    posterior means of the five headline parameters land within the stated
    tolerances of the published point estimates."""
    start = time.time()
    _, cov = read_covariate_file(os.environ["SHMEV_NC_COVARIATES"])
    records, _ = load_and_qc(
        os.environ["SHMEV_NC_EVENTS"],
        QcPolicy(max_missing_days=30, min_retained_years=73),
        cov,
    )
    stations = os.environ.get("SHMEV_NC_STATIONS")
    if stations:
        wanted = stations.split(",")
        records = [r for r in records if r.station in wanted]
    else:
        records = records[:25]
    assert len(records) == 25, f"expected 25 training stations, have {len(records)}"
    events = [training_events(rec, 20) for rec in records]
    dataset = build_dataset(records, 20, ["lat", "lon", "alt_m", "dist_coast_km"], events)
    target = ShmevTarget(dataset, elicit_priors(dataset, ElicitationRules()))
    config = SamplerConfig(n_chains=4, n_iterations=2000, leapfrog_steps=32, seed=1870)
    post = run_hmc(
        target, config, perturbed_inits(target, config, 1870),
        target.layout.param_names(), n_workers=4,
    )
    names = target.layout.param_names()
    sigma_g, sigma_d = np.exp(post.draws[:, names.index("log_sigma_gamma")]), np.exp(
        post.draws[:, names.index("log_sigma_delta")]
    )
    checks = [
        ("beta_gamma[0]", post.draws[:, names.index("beta_gamma[0]")].mean(), 0.86, 0.1),
        ("beta_delta[0]", post.draws[:, names.index("beta_delta[0]")].mean(), 10.5, 1.0),
        ("beta_lambda[0]", post.draws[:, names.index("beta_lambda[0]")].mean(), -0.93, 0.1),
        ("sigma_gamma", sigma_g.mean(), 0.09, 0.05),
        ("sigma_delta", sigma_d.mean(), 2.19, 0.5),
    ]
    elapsed = time.time() - start
    detail = ", ".join(f"{n}={v:.3f} (target {t}+-{tol})" for n, v, t, tol in checks)
    ok = all(abs(v - t) <= tol for _, v, t, tol in checks)
    report(7, ok and elapsed < 1800, detail, elapsed)
    for name, value, target_value, tol in checks:
        assert abs(value - target_value) <= tol, name
    assert elapsed < 1800


def test_criterion_8_cli_determinism(tmp_path):
    """Re-running every CLI pipeline step with the same seed and config
    yields byte-identical artifacts."""
    start = time.time()
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    config_path = tmp_path / "study.yaml"
    config_path.write_text(
        yaml.safe_dump(
            {
                "schema_version": 1,
                "seed": 424242,
                "simulate": {"sites": 3, "train_blocks": 3, "test_blocks": 10},
                "fit": {
                    "model": "shmev",
                    "events": str(out_a / "simulate" / "events.csv"),
                    "covariates": str(out_a / "simulate" / "covariates.csv"),
                    "covariate_columns": ["z1", "z2"],
                    "train_blocks": 3,
                    "sampler": {"chains": 2, "iterations": 60, "leapfrog_steps": 8},
                },
                "predict": {
                    "fit_dir": str(out_a / "fit"),
                    "return_periods": [10, 25],
                    "blocks_per_draw": 15,
                },
            }
        )
    )
    mismatches = []
    for command in ("simulate", "fit", "predict"):
        run_command(command, config_path, out_a / command)
        run_command(command, config_path, out_b / command)
        files_a = sorted(p for p in (out_a / command).rglob("*") if p.is_file())
        for path_a in files_a:
            rel = path_a.relative_to(out_a / command)
            path_b = out_b / command / rel
            if not path_b.exists() or path_a.read_bytes() != path_b.read_bytes():
                mismatches.append(str(rel))
    elapsed = time.time() - start
    report(8, not mismatches, f"{'no byte differences' if not mismatches else mismatches}", elapsed)
    assert mismatches == []
