import csv
import multiprocessing
import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest

from shmev.hmc import (
    HmcJob,
    PosteriorDraws,
    SamplerConfig,
    _MIN_ABORT_WARMUP,
    _leapfrog,
    _Rows,
    rhat_ess,
    run_hmc,
    run_hmc_jobs,
    trace_export,
)

from .oracles import (
    csv_writer_trace_export,
    oracle_run_hmc,
    split_chains,
    stacked_autocovariance,
    stacked_rhat_ess,
)

NORMAL_5_2_Q975 = 8.919927969080108  # 5 + 2 * Phi^-1(0.975)


def std_normal_target(dim):
    def target(v):
        return -0.5 * float(v @ v), -v

    return target, np.zeros(dim)


def make_draws(draws, n_chains, names=None):
    draws = np.asarray(draws, dtype=float)
    return PosteriorDraws(
        draws=draws,
        param_names=names or [f"theta[{k}]" for k in range(draws.shape[1])],
        n_chains=n_chains,
        accept_prob=np.full(n_chains, 0.9),
        divergences=np.zeros(n_chains, dtype=int),
        step_sizes=np.full(n_chains, 0.5),
        warmup_divergences=np.zeros(n_chains, dtype=int),
        grad_evals=np.full(n_chains, 1000),
    )


def loop_ess(x):
    """The per-parameter Geyer loop that ``rhat_ess`` replaced, as a reference."""
    m, n, dim = x.shape
    s = split_chains(x)
    n_half = s.shape[1]
    w = s.var(axis=1, ddof=1).mean(axis=0)
    b = n_half * s.mean(axis=1).var(axis=0, ddof=1)
    degenerate = w <= 0.0
    var_plus = (n_half - 1.0) / n_half * w + b / n_half
    tau_t = stacked_autocovariance(s).mean(axis=0)
    rho = 1.0 - (w - tau_t) / np.where(var_plus <= 0.0, 1.0, var_plus)
    rho[0] = 1.0
    ess = np.empty(dim)
    total = m * n
    for k in range(dim):
        if degenerate[k]:
            ess[k] = np.nan
            continue
        pair_sum = 0.0
        prev = np.inf
        for t in range((n_half - 1) // 2):
            p = rho[2 * t, k] + rho[2 * t + 1, k]
            if p < 0.0:
                break
            p = min(p, prev)
            pair_sum += p
            prev = p
        ess[k] = total / max(-1.0 + 2.0 * pair_sum, 1.0 / total)
    return ess


class TestRunHmc:
    def test_standard_normal_calibration(self):
        target, _ = std_normal_target(10)
        config = SamplerConfig(seed=2024)
        init = np.random.default_rng(1).standard_normal((4, 10)) * 2.0
        post = run_hmc(target, config, init)
        assert post.n_draws == 4000
        assert np.all(np.abs(post.draws.mean(axis=0)) < 0.05)
        assert np.all(np.abs(post.draws.var(axis=0) - 1.0) < 0.1)
        assert np.all(post.rhat < 1.01)

    def test_offset_normal_quantile(self):
        def target(v):
            z = (v - 5.0) / 2.0
            return -0.5 * float(z @ z), -z / 2.0

        config = SamplerConfig(n_chains=4, n_iterations=4000, leapfrog_steps=16, seed=7)
        init = np.full((4, 1), 5.0) + np.random.default_rng(2).standard_normal((4, 1))
        post = run_hmc(target, config, init)
        q = float(np.quantile(post.draws[:, 0], 0.975))
        assert abs(q - NORMAL_5_2_Q975) < 0.1

    def test_zero_leapfrog_steps_rejected(self):
        with pytest.raises(ValueError):
            SamplerConfig(leapfrog_steps=0)

    def test_determinism(self):
        target, _ = std_normal_target(3)
        config = SamplerConfig(n_chains=2, n_iterations=200, seed=99)
        init = np.ones((2, 3))
        a = run_hmc(target, config, init)
        b = run_hmc(target, config, init)
        assert np.array_equal(a.draws, b.draws)
        assert np.array_equal(a.step_sizes, b.step_sizes)

    def test_worker_count_does_not_change_draws(self):
        target, _ = std_normal_target(3)
        config = SamplerConfig(n_chains=4, n_iterations=200, seed=5)
        init = np.ones((4, 3))
        serial = run_hmc(target, config, init, n_workers=1)
        for n_workers in (2, 4):
            forked = run_hmc(target, config, init, n_workers=n_workers)
            for field in ("draws", "step_sizes", "accept_prob", "divergences"):
                assert np.array_equal(getattr(serial, field), getattr(forked, field)), (n_workers, field)
            assert multiprocessing.active_children() == []

    def test_grad_evals_count_the_gradients_each_chain_asked_for(self):
        class CountingNormal:
            """A standard normal target that counts its calls."""

            calls = 0

            def __call__(self, v):
                self.calls += 1
                return -0.5 * float(v @ v), -v

        # one single-chain job per target, so that a target's calls are its chain's
        config = SamplerConfig(n_chains=1, n_iterations=60, leapfrog_steps=8, seed=0)
        targets = [CountingNormal() for _ in range(3)]
        jobs = [HmcJob(t, replace(config, seed=k), np.ones((1, 3))) for k, t in enumerate(targets)]
        serial = run_hmc_jobs(jobs)
        # run_hmc_jobs calls each target once to check its dimension; a
        # trajectory on a normal target never ends early, so every step
        # asked for is a call
        assert [t.calls for t in targets] == [1 + post.grad_evals[0] for post in serial]
        forked = run_hmc_jobs(jobs, n_workers=2)
        for a, b in zip(serial, forked):
            assert np.array_equal(a.grad_evals, b.grad_evals)
            assert np.array_equal(a.warmup_divergences, b.warmup_divergences)
            assert a.grad_evals[0] >= 2 + config.n_iterations * 6

    def test_forked_workers_emit_no_warning(self):
        target, _ = std_normal_target(3)
        config = SamplerConfig(n_chains=2, n_iterations=40, seed=6)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            run_hmc(target, config, np.ones((2, 3)), n_workers=2)

    def test_chain_count_invariance_of_pooled_mean(self):
        target, _ = std_normal_target(10)
        init8 = np.random.default_rng(3).standard_normal((8, 10))
        init4 = np.random.default_rng(4).standard_normal((4, 10))
        post8 = run_hmc(target, SamplerConfig(n_chains=8, n_iterations=1000, seed=11), init8)
        post4 = run_hmc(target, SamplerConfig(n_chains=4, n_iterations=2000, seed=12), init4)
        assert np.all(np.abs(post8.draws.mean(axis=0) - post4.draws.mean(axis=0)) < 0.1)

    def test_gradient_dimension_mismatch(self):
        target, _ = std_normal_target(3)
        with pytest.raises(ValueError):
            run_hmc(target, SamplerConfig(n_chains=1, n_iterations=10), np.zeros((2, 3)))

    def test_all_divergent_warmup_aborts_with_diagnostic(self):
        from shmev.errors import NumericError

        def spike(v):
            # finite only at the exact starting point: every trajectory diverges
            if np.all(v == 0.0):
                return 0.0, np.zeros(v.size)
            return -np.inf, np.zeros(v.size)

        config = SamplerConfig(n_chains=1, n_iterations=40, seed=3)
        with pytest.raises(NumericError, match="diverged"):
            run_hmc(spike, config, np.zeros((1, 2)))

    def test_chain_error_in_a_worker_reaches_the_caller_as_in_serial(self):
        from shmev.errors import NumericError

        def steep(v):
            return 0.0, np.full(v.size, 1e200)

        config = SamplerConfig(n_chains=2, n_iterations=20, seed=3)
        messages = []
        for n_workers in (1, 2):
            with pytest.raises(NumericError) as info:
                run_hmc(steep, config, np.zeros((2, 2)), n_workers=n_workers)
            assert type(info.value) is NumericError
            messages.append(str(info.value))
            assert multiprocessing.active_children() == []
        assert messages[0] == messages[1] == (
            "all 10 warmup iterations diverged; the target may be ill-conditioned or the gradient wrong"
        )

    def test_kinetic_energy_overflow_is_a_silent_divergence(self):
        def steep(v):
            # finite density whose gradient drives the momentum past sqrt(max float)
            return 0.0, np.full(v.size, 1e200)

        # one warmup step, too short to abort on: the fit completes, and the
        # kept step's overflow counts as a divergence
        config = SamplerConfig(n_chains=1, n_iterations=2, seed=3)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            post = run_hmc(steep, config, np.zeros((1, 2)))
        assert post.divergences.tolist() == [1]
        assert post.draws.tolist() == [[0.0, 0.0]]

    @pytest.mark.parametrize("n_iterations", [2, 4, 2 * _MIN_ABORT_WARMUP - 2])
    def test_a_divergent_warmup_too_short_to_abort_on_completes(self, n_iterations):
        from shmev.errors import NumericError

        def spike(v):
            # finite only at the exact starting point: every trajectory diverges
            if np.all(v == 0.0):
                return 0.0, np.zeros(v.size)
            return -np.inf, np.zeros(v.size)

        config = SamplerConfig(n_chains=2, n_iterations=n_iterations, seed=3)
        post = run_hmc(spike, config, np.zeros((2, 2)), n_workers=2)
        assert post.divergences.tolist() == [config.n_kept] * 2
        assert not post.draws.any()
        oracle = oracle_run_hmc(spike, config, np.zeros((2, 2)))
        assert np.array_equal(oracle["draws"], post.draws)
        assert np.array_equal(oracle["divergences"], post.divergences)
        # the shortest warmup that aborts
        config = replace(config, n_iterations=2 * _MIN_ABORT_WARMUP)
        for sample in (run_hmc, oracle_run_hmc):
            with pytest.raises(NumericError, match=f"all {_MIN_ABORT_WARMUP} warmup iterations diverged"):
                sample(spike, config, np.zeros((2, 2)))


def one_row_leapfrog(target, q, p, grad, eps, n_steps, mass):
    """The lockstep leapfrog on a single row."""
    q1, p1, logp1, grad1 = _leapfrog(
        _Rows([target]), q[None], p[None], grad[None], np.array([eps]), np.array([n_steps]), mass[None]
    )
    return q1[0], p1[0], logp1[0], grad1[0]


class TestLeapfrogProperties:
    def test_reversibility(self):
        def target(v):
            return -0.5 * float(v @ v), -v

        rng = np.random.default_rng(0)
        q0 = rng.standard_normal(6)
        p0 = rng.standard_normal(6)
        mass = np.ones(6)
        _, grad0 = target(q0)
        q1, p1, _, grad1 = one_row_leapfrog(target, q0, p0, grad0, 0.15, 30, mass)
        q2, p2, _, _ = one_row_leapfrog(target, q1, -p1, grad1, 0.15, 30, mass)
        assert np.max(np.abs(q2 - q0)) < 1e-8
        assert np.max(np.abs(-p2 - p0)) < 1e-8

    def test_energy_error_is_second_order(self):
        def target(v):
            return -0.5 * float(v @ v), -v

        rng = np.random.default_rng(1)
        q0 = rng.standard_normal(5)
        p0 = rng.standard_normal(5)
        mass = np.ones(5)

        def energy_error(eps, steps):
            _, grad0 = target(q0)
            q1, p1, logp1, _ = one_row_leapfrog(target, q0, p0, grad0, eps, steps, mass)
            h0 = 0.5 * float(q0 @ q0) + 0.5 * float(p0 @ p0)
            h1 = -logp1 + 0.5 * float(p1 @ p1)
            return abs(h1 - h0)

        coarse = energy_error(0.2, 25)
        fine = energy_error(0.1, 50)
        assert fine < coarse / 3.0


class TestRhatEss:
    def test_constant_chains_flagged_degenerate(self):
        post = make_draws(np.ones((40, 2)), n_chains=4)
        rhat, ess, degenerate = rhat_ess(post)
        assert np.all(rhat == 1.0)
        assert np.all(np.isnan(ess))
        assert np.all(degenerate)

    def test_iid_normal_draws(self):
        rng = np.random.default_rng(123)
        post = make_draws(rng.standard_normal((4000, 2)), n_chains=4)
        rhat, ess, degenerate = rhat_ess(post)
        assert np.all((rhat > 0.999) & (rhat < 1.01))
        assert np.all(ess >= 0.8 * 4000)
        assert not degenerate.any()

    def test_separated_chains_have_large_rhat(self):
        rng = np.random.default_rng(5)
        chain_a = rng.normal(0.0, 1.0, size=(500, 1))
        chain_b = rng.normal(10.0, 1.0, size=(500, 1))
        post = make_draws(np.vstack([chain_a, chain_b]), n_chains=2)
        rhat, _, _ = rhat_ess(post)
        assert rhat[0] > 3.0

    def test_single_chain_reports_absent(self):
        post = make_draws(np.random.default_rng(0).standard_normal((100, 1)), n_chains=1)
        rhat, ess, degenerate = rhat_ess(post)
        assert rhat is None and ess is None and degenerate is None

    def test_too_few_draws_rejected(self):
        with pytest.raises(ValueError):
            rhat_ess(np.zeros((2, 3, 1)))

    @pytest.mark.parametrize("n", [4, 5, 9, 40, 301])
    def test_ess_equals_the_per_parameter_loop(self, n):
        rng = np.random.default_rng(n)
        x = np.empty((3, n, 7))
        x[..., 0] = rng.standard_normal((3, n))
        for k, phi in ((1, 0.95), (2, -0.7), (3, 0.5)):  # AR(1) chains
            e = rng.standard_normal((3, n))
            x[:, 0, k] = e[:, 0]
            for t in range(1, n):
                x[:, t, k] = phi * x[:, t - 1, k] + e[:, t]
        x[..., 4] = 2.5  # degenerate
        x[..., 5] = np.repeat([[0.0], [1.0], [2.0]], n, axis=1)  # constant chains at different levels
        x[..., 6] = rng.standard_normal((3, n))
        x[1, n // 2, 6] = np.nan  # the loop keeps a NaN pair: NaN ESS
        _, ess, degenerate = rhat_ess(x)
        expected = loop_ess(x)
        assert np.array_equal(ess, expected, equal_nan=True)
        assert list(degenerate) == [False, False, False, False, True, True, False]
        # one parameter alone: its pair sums lie along the contiguous axis
        assert np.array_equal(rhat_ess(x[..., 1:2])[1], loop_ess(x[..., 1:2]))

    @pytest.mark.parametrize("dim", [3, 45, 1091])
    @pytest.mark.parametrize("n", [5, 101])
    @pytest.mark.parametrize("m", [2, 3, 4])
    def test_one_split_chain_at_a_time_equals_the_stacked_computation(self, m, n, dim):
        rng = np.random.default_rng(1000 * m + n + dim)
        x = rng.standard_normal((m, n, dim)).cumsum(axis=1)
        x[..., 1] = 2.5  # degenerate
        post = make_draws(x.reshape(m * n, dim).copy(), n_chains=m)
        x[m - 1, n // 2, 2] = np.nan  # (posterior draws are finite)
        for draws in (x, post, x[..., 0]):  # (chains, n) is one parameter
            got, expected = rhat_ess(draws), stacked_rhat_ess(draws)
            for a, b in zip(got, expected):
                assert a.dtype == b.dtype and a.tobytes() == b.tobytes()

    @pytest.mark.parametrize("shape", [(6, 50, 100), (8, 64, 33)])
    def test_halves_take_the_stacked_power_spectrum_order(self, shape):
        # the stacked spectrum reaches numpy's 256 KiB temporary-elision size
        # while each half's does not
        x = np.random.default_rng(sum(shape)).standard_normal(shape).cumsum(axis=1)
        for a, b in zip(rhat_ess(x), stacked_rhat_ess(x)):
            assert a.tobytes() == b.tobytes()

    def test_traced_peak_is_under_three_copies_of_the_draws(self):
        x = np.random.default_rng(4).standard_normal((4, 400, 200))
        rhat_ess(x)  # any allocation numpy caches on first use
        tracemalloc.start()
        try:
            rhat_ess(x)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 3 * x.nbytes


class TestTraceExport:
    def test_row_count_and_roundtrip(self, tmp_path):
        rng = np.random.default_rng(8)
        post = make_draws(rng.standard_normal((6, 2)), n_chains=2, names=["beta_gamma[0]", "log_sigma_delta"])
        path = trace_export(post, tmp_path / "trace.csv")
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["iter", "chain", "param", "value"]
        assert len(rows) - 1 == 2 * 3 * 2  # chains x kept x params
        by_chain = post.by_chain()
        for row in rows[1:]:
            it, chain, param, value = int(row[0]), int(row[1]), row[2], float(row[3])
            k = post.param_names.index(param)
            assert value == by_chain[chain, it, k]  # bit-identical round trip

    def test_param_naming_scheme(self, tmp_path):
        from shmev.model import ShmevLayout

        layout = ShmevLayout(n_covariates=1, n_blocks=2, n_sites=2)
        names = layout.param_names()
        assert names[0] == "beta_gamma[0]"
        assert "log_sigma_delta" in names
        assert "log_gamma[1][0]" in names
        post = make_draws(np.zeros((8, layout.dim)), n_chains=2, names=names)
        path = trace_export(post, tmp_path / "trace.csv")
        with open(path, newline="") as fh:
            header_params = {row[2] for row in list(csv.reader(fh))[1:]}
        assert header_params == set(names)

    @pytest.mark.parametrize("n_chains", [1, 3])
    def test_equals_csv_writer_reference(self, tmp_path, n_chains):
        names = ["plain", "beta_gamma[0]", "a,b", 'say "hi"', '"', "", " padded ", "two\nlines", "cr\r"]
        rng = np.random.default_rng(n_chains)
        draws = rng.standard_normal((4 * n_chains, len(names))) * 10.0 ** rng.integers(-300, 300, (1, len(names)))
        draws[0, :3] = [-0.0, 5e-324, 1e308]
        draws[-1, -3:] = [-5e-324, -1e308, 0.0]
        post = make_draws(draws, n_chains=n_chains, names=names)
        ours = trace_export(post, tmp_path / "trace.csv").read_bytes()
        ref = csv_writer_trace_export(post, tmp_path / "ref.csv").read_bytes()
        assert ours == ref

    def test_empty_draws_rejected(self, tmp_path):
        post = make_draws(np.zeros((2, 1)), n_chains=2)
        post.draws = np.zeros((0, 1))
        with pytest.raises(ValueError):
            trace_export(post, tmp_path / "trace.csv")


def assert_equals_former_sampler(post, job):
    ref = oracle_run_hmc(job.target, job.config, job.init)
    for field in ("draws", "accept_prob", "divergences", "step_sizes"):
        ours, theirs = np.asarray(getattr(post, field), dtype=float), np.asarray(ref[field], dtype=float)
        assert ours.shape == theirs.shape, field
        assert np.array_equal(ours.view(np.int64), theirs.view(np.int64)), field


def station_jobs(data, config, models=("hmev", "gev")):
    """One job per station and model, each with its own seed."""
    from shmev.ingest import elicit_hmev_priors
    from shmev.model import GevPriorSpec, GevTarget, HmevTarget

    trials = data.trials_per_block
    jobs = []
    for s, events in enumerate(data.events):
        for model in models:
            if model == "hmev":
                target = HmevTarget(events, trials, elicit_hmev_priors(events, trials))
            else:
                maxima = np.array([b.max() for b in events if b.size])
                target = GevTarget(maxima, GevPriorSpec.from_maxima(maxima))
            base = target.initial_vector()
            init = base + 0.1 * np.random.default_rng(s).standard_normal((config.n_chains, base.size))
            jobs.append(HmcJob(target, replace(config, seed=1000 * s + len(jobs)), init))
    return jobs


class TestLockstepEqualsFormerSampler:
    """The lockstep sampler gives every chain the draws, acceptance,
    divergences and step size of the former per-chain sampler, bit for bit."""

    def test_gaussian_target(self):
        target, _ = std_normal_target(4)
        config = SamplerConfig(n_chains=3, n_iterations=120, seed=5)
        job = HmcJob(target, config, np.random.default_rng(1).standard_normal((3, 4)))
        assert_equals_former_sampler(run_hmc(target, config, job.init), job)

    def test_stations_of_both_models_in_one_batch(self, wei_small, monkeypatch):
        from shmev.model import _GevRows

        seen = []
        kernel = _GevRows.__call__

        def recording(self, V):
            logp, grad, parts = kernel(self, V)
            seen.append((V[:, 2].copy(), logp.copy()))
            return logp, grad, parts

        config = SamplerConfig(n_chains=2, n_iterations=60, leapfrog_steps=12, seed=0)
        jobs = station_jobs(wei_small.train, config)
        # one GEV station starts on the Gumbel limit (shape exactly 0)
        jobs[1].init[:, 2] = 0.0
        monkeypatch.setattr(_GevRows, "__call__", recording)
        posts = run_hmc_jobs(jobs)
        monkeypatch.setattr(_GevRows, "__call__", kernel)
        shape = np.concatenate([s for s, _ in seen])
        logp = np.concatenate([lp for _, lp in seen])
        assert (np.abs(shape) < 1e-10).any()              # the Gumbel branch
        assert (logp[np.abs(shape) >= 1e-10] == -np.inf).any()  # 1 + shape z <= 0
        for post, job in zip(posts, jobs):
            assert_equals_former_sampler(post, job)

    def test_some_rows_diverge_and_others_do_not(self):
        def walled(v):
            # a standard normal cut off at |v[0]| = 1: trajectories that
            # cross the wall diverge
            if abs(v[0]) > 1.0:
                return -np.inf, np.zeros(v.size)
            return -0.5 * float(v @ v), -v

        plain, _ = std_normal_target(3)
        config = SamplerConfig(n_chains=2, n_iterations=80, leapfrog_steps=10, seed=3)
        jobs = [HmcJob(walled, config, np.zeros((2, 3))),
                HmcJob(plain, replace(config, seed=4), np.ones((2, 3)))]
        posts = run_hmc_jobs(jobs)
        assert posts[0].divergences.sum() > 0 and posts[1].divergences.sum() == 0
        for post, job in zip(posts, jobs):
            assert_equals_former_sampler(post, job)

    def test_batched_rows_beside_rows_called_one_by_one(self, wei_small):
        # GEV rows (one kernel call) around the rows of a plain 3-dimensional
        # target in one lockstep group
        config = SamplerConfig(n_chains=2, n_iterations=40, leapfrog_steps=8, seed=0)
        gev = station_jobs(wei_small.train, config, models=("gev",))[:2]
        plain, _ = std_normal_target(3)
        jobs = [gev[0], HmcJob(plain, replace(config, seed=9), np.ones((2, 3))), gev[1]]
        for post, job in zip(run_hmc_jobs(jobs), jobs):
            assert_equals_former_sampler(post, job)

    def test_short_warmup_without_a_mass_window(self, wei_small):
        config = SamplerConfig(n_chains=2, n_iterations=30, leapfrog_steps=8, seed=0)
        assert config.n_warmup < 40
        jobs = station_jobs(wei_small.train, config, models=("hmev",))
        for post, job in zip(run_hmc_jobs(jobs), jobs):
            assert_equals_former_sampler(post, job)

    def test_single_chain(self, wei_small):
        config = SamplerConfig(n_chains=1, n_iterations=50, leapfrog_steps=8, seed=0)
        job = station_jobs(wei_small.train, config, models=("hmev",))[2]
        assert_equals_former_sampler(run_hmc(job.target, job.config, job.init), job)

    def test_worker_count_does_not_change_any_job(self, wei_small):
        config = SamplerConfig(n_chains=2, n_iterations=40, leapfrog_steps=8, seed=0)
        jobs = station_jobs(wei_small.train, config)[:5]
        serial = run_hmc_jobs(jobs)
        for n_workers in (2, 3, 4):
            forked = run_hmc_jobs(jobs, n_workers=n_workers)
            assert multiprocessing.active_children() == []
            for a, b in zip(serial, forked):
                for field in ("draws", "step_sizes", "accept_prob", "divergences"):
                    assert np.array_equal(getattr(a, field), getattr(b, field)), (n_workers, field)


def gaussian_target(sd):
    def target(v):
        return -0.5 * float(v @ v) / sd**2, -v / sd**2

    return target


def boxed_target(v):
    # a standard normal cut off at |v| = 0.05: steps of size 1 leave the box
    if np.abs(v).max() > 0.05:
        return -np.inf, np.zeros(v.size)
    return -0.5 * float(v @ v), -v


class TestLockstepWarmStart:
    """The first step sizes are searched for on the lockstep rows, with the
    iterations' leapfrog, and equal the former one-row search's."""

    def test_rows_equal_the_former_search_wherever_it_ends(self):
        from shmev.hmc import _first_step_sizes

        from .oracles import _find_reasonable_epsilon

        def cliff(v):
            # the energy difference of a step off the plateau overflows to
            # inf, a non-finite ratio
            return (1e308 if np.abs(v).max() > 0.5 else -1e308), np.zeros(v.size)

        # doubles to the upper bound, doubles or halves a little, halves,
        # halves to the lower bound, halves out of a bounded support, halves
        # off a cliff
        sds = [1e9, 1.0, 1e-3, 1e-14, 0.01, 0.0]
        targets = [gaussian_target(sd) for sd in sds[:4]] + [boxed_target, cliff]
        calls = np.zeros(6, dtype=int)

        def counted(r):
            def target(v):
                calls[r] += 1
                return targets[r](v)

            return target

        q = np.random.default_rng(0).standard_normal((6, 3)) * np.array(sds)[:, None]
        logp, grad = np.empty(6), np.empty((6, 3))
        evaluate = _Rows([counted(r) for r in range(6)])
        evaluate(q, np.ones(6, dtype=bool), logp, grad)
        calls[:] = 0
        ours = _first_step_sizes(evaluate, q, logp, grad, np.ones((6, 3)), [np.random.default_rng(s) for s in range(6)])
        theirs = np.array([
            _find_reasonable_epsilon(target, q[r], np.ones(3), np.random.default_rng(r))
            for r, target in enumerate(targets)
        ])
        assert ours.tobytes() == theirs.tobytes()
        assert ours[0] == 2.0**24 and ours[3] == 2.0**-40 and ours[5] < 1.0
        assert len(set(ours)) == 6
        # a row is evaluated at each step size it tried, from 1 to its last
        # one, and a last one out of bounds is not tried
        tried = np.abs(np.log2(ours)) + ((ours >= 1e-12) & (ours <= 1e7))
        assert np.array_equal(calls, tried)

    def test_searches_ending_at_different_rounds_in_one_run(self, monkeypatch):
        import shmev.hmc as hmc

        found = []
        search = hmc._first_step_sizes

        def recording(*args):
            found.append(search(*args))
            return found[-1]

        config = SamplerConfig(n_chains=2, n_iterations=60, leapfrog_steps=8, seed=0)
        plain, _ = std_normal_target(3)
        jobs = [
            HmcJob(gaussian_target(1e9), config, 1e9 * np.ones((2, 3))),
            HmcJob(boxed_target, replace(config, seed=1), np.zeros((2, 3))),
            HmcJob(plain, replace(config, seed=2), np.ones((2, 3))),
        ]
        monkeypatch.setattr(hmc, "_first_step_sizes", recording)
        posts = run_hmc_jobs(jobs)
        assert len(found) == 1
        wide, boxed, normal = found[0].reshape(3, 2)
        assert np.all(wide == 2.0**24) and np.all(boxed < 0.1) and np.all(normal >= 0.5)
        for post, job in zip(posts, jobs):
            assert_equals_former_sampler(post, job)

    def test_batched_targets_are_called_one_row_at_a_time_only_for_the_dimension_check(self, wei_small, monkeypatch):
        from shmev.model import _RowBatchedTarget

        config = SamplerConfig(n_chains=2, n_iterations=20, leapfrog_steps=4, seed=0)
        jobs = station_jobs(wei_small.train, config)[:6]
        calls = []
        one_row = _RowBatchedTarget._one_row

        def counting(self, v):
            calls.append(type(self).__name__)
            return one_row(self, v)

        monkeypatch.setattr(_RowBatchedTarget, "_one_row", counting)
        run_hmc_jobs(jobs)
        assert sorted(calls) == sorted(type(job.target).__name__ for job in jobs)
        assert {"GevTarget", "HmevTarget"} <= set(calls)
