import numpy as np
import pytest

from shmev.data import Dataset, SiteCovariates
from shmev.ingest import elicit_hmev_priors
from shmev.special import gammaln
from shmev.model import (
    BetaPrior,
    GammaPrior,
    GevPriorSpec,
    GevTarget,
    HmevTarget,
    InverseGammaPrior,
    NormalPrior,
    ShmevLayout,
    ShmevParams,
    ShmevPriorSpec,
    ShmevTarget,
    shmev_gradient,
    shmev_log_posterior,
)

from .oracles import (
    hmev_params_view,
    naive_gev_log_posterior,
    naive_hmev_log_posterior,
    naive_shmev_log_posterior,
    oracle_gev_target,
    oracle_hmev_target,
    take_shmev_value_grad,
)


def _tiny_prior(p1):
    norm = tuple(NormalPrior(0.5, 1.0) for _ in range(p1))
    return ShmevPriorSpec(
        beta_gamma=norm,
        beta_delta=tuple(NormalPrior(10.0, 3.0) for _ in range(p1)),
        beta_lambda=tuple(NormalPrior(-1.0, 1.0) for _ in range(p1)),
        sigma_gamma=InverseGammaPrior.from_mean(0.05),
        sigma_delta=InverseGammaPrior.from_mean(2.0),
    )


def _empty_dataset(p=1, trials=366):
    sites = [SiteCovariates("A", np.concatenate([[1.0], np.zeros(p)]))]
    return Dataset(sites=sites, blocks=[], events=[[]], trials_per_block=trials)


def _random_params(layout, rng, spread=0.1):
    base = np.concatenate(
        [
            np.full(layout.n_covariates + 1, 0.7),
            np.full(layout.n_covariates + 1, 10.0),
            np.full(layout.n_covariates + 1, -0.9),
            [np.log(0.05), np.log(1.5)],
            np.full(layout.n_blocks * layout.n_sites, np.log(0.7)),
            np.full(layout.n_blocks * layout.n_sites, np.log(10.0)),
        ]
    )
    # slopes sit near zero, not at the intercept level
    base[1 : layout.n_covariates + 1] = 0.0
    p1 = layout.n_covariates + 1
    base[p1 + 1 : 2 * p1] = 0.0
    base[2 * p1 + 1 : 3 * p1] = 0.0
    return base + spread * rng.standard_normal(layout.dim)


class TestShmevLogPosterior:
    def test_empty_dataset_is_prior_only(self):
        dataset = _empty_dataset()
        prior = _tiny_prior(2)
        layout = ShmevLayout(1, 0, 1)
        v = np.array([0.6, 0.1, 9.0, 0.5, -1.0, 0.2, np.log(0.05), np.log(2.0)])
        params = ShmevParams.from_vector(layout, v)
        expected = (
            sum(q.logpdf(x) for q, x in zip(prior.beta_gamma, v[0:2]))
            + sum(q.logpdf(x) for q, x in zip(prior.beta_delta, v[2:4]))
            + sum(q.logpdf(x) for q, x in zip(prior.beta_lambda, v[4:6]))
            + prior.sigma_gamma.log_density_unconstrained(v[6])
            + prior.sigma_delta.log_density_unconstrained(v[7])
        )
        assert shmev_log_posterior(params, dataset, prior) == pytest.approx(expected, abs=1e-12)

    def test_single_observation_closed_form(self):
        # one site, one block, one event at x = delta, n = 1
        gam, dlt, n_trials = 0.9, 11.0, 366
        sites = [SiteCovariates("A", np.array([1.0]))]
        dataset = Dataset(sites, [2001], [[np.array([dlt])]], trials_per_block=n_trials)
        prior = _tiny_prior(1)
        beta_g, beta_d, beta_l = 0.7, 10.0, -0.9
        params = ShmevParams(
            beta_gamma=[beta_g],
            beta_delta=[beta_d],
            beta_lambda=[beta_l],
            log_sigma_gamma=np.log(0.05),
            log_sigma_delta=np.log(1.5),
            log_gamma=np.array([[np.log(gam)]]),
            log_delta=np.array([[np.log(dlt)]]),
        )
        lam = 1.0 / (1.0 + np.exp(0.9))
        weibull = np.log(gam) - np.log(dlt) + (gam - 1.0) * 0.0 - 1.0
        binom = np.log(n_trials) + np.log(lam) + (n_trials - 1) * np.log1p(-lam)
        z1 = (gam - beta_g) / 0.05
        z2 = (dlt - beta_d) / 1.5
        gumbel = -np.log(0.05) - z1 - np.exp(-z1) - np.log(1.5) - z2 - np.exp(-z2)
        priors = (
            prior.beta_gamma[0].logpdf(beta_g)
            + prior.beta_delta[0].logpdf(beta_d)
            + prior.beta_lambda[0].logpdf(beta_l)
            + prior.sigma_gamma.log_density_unconstrained(np.log(0.05))
            + prior.sigma_delta.log_density_unconstrained(np.log(1.5))
        )
        jac = np.log(gam) + np.log(dlt)
        expected = weibull + binom + gumbel + priors + jac
        assert shmev_log_posterior(params, dataset, prior) == pytest.approx(expected, abs=1e-12)

    def test_matches_naive_loop_oracle(self, wei_small, wei_small_prior, rng):
        dataset = wei_small.train
        target = ShmevTarget(dataset, wei_small_prior)
        for _ in range(5):
            v = _random_params(target.layout, rng)
            params = ShmevParams.from_vector(target.layout, v)
            fast = shmev_log_posterior(params, dataset, wei_small_prior)
            slow = naive_shmev_log_posterior(params, dataset, wei_small_prior)
            assert fast == pytest.approx(slow, rel=1e-10)

    def test_dimension_mismatch_rejected(self, wei_small, wei_small_prior):
        layout = ShmevLayout(2, 3, 2)  # J/S disagree with the dataset
        params = ShmevParams.from_vector(layout, np.zeros(layout.dim))
        with pytest.raises(ValueError, match="do not match"):
            shmev_log_posterior(params, wei_small.train, wei_small_prior)


def _without_blocks(dataset, empty):
    """``dataset`` with the (site, block) pairs in ``empty`` holding no events."""
    events = [
        [np.zeros(0) if (s, j) in empty else mags for j, mags in enumerate(row)]
        for s, row in enumerate(dataset.events)
    ]
    return Dataset(dataset.sites, dataset.blocks, events, dataset.trials_per_block, dataset.snapshot)


# The kernels sum the Weibull terms over per-block-shifted logs, the former
# ones over the logs themselves: a value or gradient coordinate may differ
# from the former kernel's by this much, relative to max(1, |former|)
FORMER_KERNEL_RTOL = 1e-9


def assert_near_former(logp, grad, ref_logp, ref_grad, label):
    """``(logp, grad)`` within ``FORMER_KERNEL_RTOL`` of the former kernel's
    ``(ref_logp, ref_grad)``; rows that both reject compare equal, and a row
    that only one of them rejects fails."""
    rejected, ref_rejected = logp == -np.inf, ref_logp == -np.inf
    assert rejected == ref_rejected, f"{label}: rejected by one side only, logp {logp} against {ref_logp}"
    if rejected:
        assert _same_bits(grad, ref_grad), label
        return
    assert abs(logp - ref_logp) <= FORMER_KERNEL_RTOL * max(1.0, abs(ref_logp)), (label, logp, ref_logp)
    err = np.abs(grad - ref_grad) / np.maximum(1.0, np.abs(ref_grad))
    assert np.all(err <= FORMER_KERNEL_RTOL), (label, int(np.argmax(err)), float(np.max(err)))


class TestShmevEventGather:
    """The kernel's pass over block runs of shifted logs equals the
    per-event ``np.take`` gather of the logs to ``FORMER_KERNEL_RTOL``,
    value and gradient, with empty blocks anywhere; the value also matches
    the scalar loop."""

    EMPTY = {
        "none": set(),
        "first": {(0, 0)},
        "last": {(4, 4)},
        "consecutive across sites": {(1, 3), (1, 4), (2, 0), (2, 1)},
        "first, last and a whole site": {(0, 0), (4, 4), *((3, j) for j in range(5))},
        "all": {(s, j) for s in range(5) for j in range(5)},
    }

    @pytest.mark.parametrize("empty", EMPTY.values(), ids=EMPTY.keys())
    def test_matches_take_reference(self, wei_small, wei_small_prior, empty):
        target = ShmevTarget(_without_blocks(wei_small.train, empty), wei_small_prior)
        assert target.dataset.counts().sum() == wei_small.train.counts().sum() - sum(
            wei_small.train.events[s][j].size for s, j in empty
        )
        rng = np.random.default_rng(len(empty))
        for spread in (0.0, 0.05, 0.3, 3.0):
            for _ in range(3):
                v = _random_params(target.layout, rng, spread)
                ref_logp, ref_grad = take_shmev_value_grad(v, target)
                logp, grad = target(v)
                assert_near_former(logp, grad, ref_logp, ref_grad, spread)
                assert _same_bits(target.value(v), logp)
                if spread < 1.0:  # the scalar loop overflows farther out
                    params = ShmevParams.from_vector(target.layout, v)
                    slow = naive_shmev_log_posterior(params, target.dataset, wei_small_prior)
                    assert logp == pytest.approx(slow, rel=1e-10)

    def test_empty_block_next_to_an_overflowing_factor_adds_nothing(self, wei_small, wei_small_prior):
        # block (1, 2) is empty; at log delta -2000 its factor exp(gamma (m -
        # log delta)) would overflow for any finite m, and so does that of
        # its non-empty neighbour (1, 3) at the same log delta
        target = ShmevTarget(_without_blocks(wei_small.train, {(1, 2)}), wei_small_prior)
        L = target.layout
        empty, neighbour = 1 * L.n_blocks + 2, 1 * L.n_blocks + 3
        v = _random_params(L, np.random.default_rng(3), 0.05)
        _, base_grad = target(v)
        base = target.parts(v)

        v[L.log_delta.start + empty] = -2000.0
        logp, grad = target(v)
        parts = target.parts(v)
        assert np.isfinite(logp) and np.all(np.isfinite(grad))
        assert _same_bits(parts["weibull"], base["weibull"])
        # each block's log-gamma gradient has no term in the empty block's delta
        assert _same_bits(grad[L.log_gamma], base_grad[L.log_gamma])
        assert_near_former(logp, grad, *take_shmev_value_grad(v, target), "empty")

        v[L.log_delta.start + neighbour] = -2000.0
        logp, grad = target(v)
        assert target.parts(v)["weibull"] == -np.inf
        assert logp == -np.inf and np.all(grad == 0.0)
        assert_near_former(logp, grad, *take_shmev_value_grad(v, target), "neighbour")


class TestShmevGradient:
    def test_matches_finite_differences(self, wei_small, wei_small_prior, rng):
        target = ShmevTarget(wei_small.train, wei_small_prior)
        h = 1e-5
        for _ in range(5):
            v = _random_params(target.layout, rng, spread=0.05)
            logp, grad = target(v)
            assert abs(logp) < 5e4  # keeps the FD oracle's roundoff below tolerance
            ks = rng.choice(target.layout.dim, size=40, replace=False)
            for k in ks:
                vp, vm = v.copy(), v.copy()
                vp[k] += h
                vm[k] -= h
                fd = (target.value(vp) - target.value(vm)) / (2 * h)
                assert abs(grad[k] - fd) / max(1.0, abs(fd)) < 1e-5

    def test_count_score_vanishes_at_rate_mle(self):
        # all n_j(s) equal to trials * lambda exactly -> zero count score
        n_trials, n = 200, 50
        lam = n / n_trials
        mags = np.sort(np.random.default_rng(0).weibull(0.8, n) * 10.0)
        sites = [SiteCovariates("A", np.array([1.0, 0.3])), SiteCovariates("B", np.array([1.0, -0.3]))]
        # identical count in every block; beta_lambda chosen so lambda(s) = n/N at both sites
        dataset = Dataset(sites, [1, 2], [[mags, mags], [mags, mags]], trials_per_block=n_trials)
        prior = _tiny_prior(2)
        flat_prior = ShmevPriorSpec(
            beta_gamma=prior.beta_gamma,
            beta_delta=prior.beta_delta,
            beta_lambda=tuple(NormalPrior(0.0, 1e8) for _ in range(2)),
            sigma_gamma=prior.sigma_gamma,
            sigma_delta=prior.sigma_delta,
        )
        layout = ShmevLayout(1, 2, 2)
        v = _random_params(layout, np.random.default_rng(1), spread=0.0)
        v[layout.beta_lambda] = [np.log(lam / (1 - lam)), 0.0]
        params = ShmevParams.from_vector(layout, v)
        grad = shmev_gradient(params, dataset, flat_prior)
        assert np.allclose(grad[layout.beta_lambda], 0.0, atol=1e-6)

    def test_prior_only_gradient_is_gaussian_score(self):
        dataset = _empty_dataset()
        prior = _tiny_prior(2)
        layout = ShmevLayout(1, 0, 1)
        v = np.array([0.9, -0.2, 8.0, 1.0, -0.5, 0.3, np.log(0.04), np.log(1.0)])
        grad = shmev_gradient(ShmevParams.from_vector(layout, v), dataset, prior)
        q = prior.beta_gamma[0]
        assert grad[0] == pytest.approx(-(v[0] - q.mean) / q.sd**2, abs=1e-12)
        q = prior.beta_delta[1]
        assert grad[3] == pytest.approx(-(v[3] - q.mean) / q.sd**2, abs=1e-12)


class TestGevModel:
    def test_support_violation_is_minus_infinity(self):
        prior = GevPriorSpec(loc=NormalPrior(0.0, 10.0), scale=__import__("shmev.model", fromlist=["GammaPrior"]).GammaPrior(1.0, 1.0))
        theta = np.array([0.0, 0.0, 0.5])  # lower endpoint -2
        assert GevTarget(np.array([-3.0]), prior).value(theta) == -np.inf

    def test_shape_limit_continuity(self):
        maxima = np.array([40.0, 55.0, 62.0, 38.0, 71.0])
        prior = GevPriorSpec.from_maxima(maxima)
        base = np.array([50.0, np.log(12.0), 0.0])
        at_zero = GevTarget(maxima, prior).value(base)
        for tau in (1e-12, -1e-12, 1e-9, -1e-9):
            theta = base.copy()
            theta[2] = tau
            assert abs(GevTarget(maxima, prior).value(theta) - at_zero) < 1e-6

    def test_matches_naive_oracle(self, rng):
        maxima = 40.0 + 20.0 * rng.weibull(1.5, size=60)
        prior = GevPriorSpec.from_maxima(maxima)
        for _ in range(10):
            theta = np.array(
                [rng.uniform(30, 70), np.log(rng.uniform(5, 25)), rng.uniform(-0.3, 0.4)]
            )
            fast = GevTarget(maxima, prior).value(theta)
            slow = naive_gev_log_posterior(theta, maxima, prior)
            assert fast == pytest.approx(slow, rel=1e-10)

    def test_gradient_matches_finite_differences(self, rng):
        maxima = 40.0 + 20.0 * rng.weibull(1.5, size=60)
        prior = GevPriorSpec.from_maxima(maxima)
        target = GevTarget(maxima, prior)
        h = 1e-5
        for _ in range(20):
            theta = np.array(
                [rng.uniform(30, 70), np.log(rng.uniform(5, 25)), rng.uniform(-0.3, 0.4)]
            )
            if not np.isfinite(target.value(theta)):
                continue
            _, grad = target(theta)
            for k in range(3):
                tp, tm = theta.copy(), theta.copy()
                tp[k] += h
                tm[k] -= h
                fd = (target.value(tp) - target.value(tm)) / (2 * h)
                assert abs(grad[k] - fd) / max(1.0, abs(fd)) < 1e-5

    def test_empty_maxima_rejected(self):
        prior = GevPriorSpec.from_maxima(np.array([1.0, 2.0]))
        with pytest.raises(ValueError):
            GevTarget(np.array([]), prior)


class TestHmevModel:
    def test_likelihood_matches_intercept_only_shmev(self, wei_small, rng):
        # one site of the spatial model with intercept-only covariates shares
        # the likelihood term exactly; prior layers differ by construction
        site_events = wei_small.train.events[0]
        trials = wei_small.train.trials_per_block
        J = len(site_events)
        hprior = elicit_hmev_priors(site_events, trials)
        htarget = HmevTarget(site_events, trials, hprior)

        mu_g, sig_g, mu_d, sig_d, lam = 0.72, 0.06, 10.4, 1.8, 0.27
        log_gamma = np.log(0.7) + 0.05 * rng.standard_normal(J)
        log_delta = np.log(10.0) + 0.1 * rng.standard_normal(J)
        hv = np.concatenate(
            [
                [np.log(mu_g), np.log(sig_g), np.log(mu_d), np.log(sig_d), np.log(lam / (1 - lam))],
                log_gamma,
                log_delta,
            ]
        )
        hparts = htarget.parts(hv)

        sites = [SiteCovariates(wei_small.train.sites[0].station, np.array([1.0]))]
        sdataset = Dataset(sites, wei_small.train.blocks, [site_events], trials_per_block=trials)
        sprior = _tiny_prior(1)
        starget = ShmevTarget(sdataset, sprior)
        sv = np.concatenate(
            [[mu_g], [mu_d], [np.log(lam / (1 - lam))], [np.log(sig_g), np.log(sig_d)], log_gamma, log_delta]
        )
        sparts = starget.parts(sv)
        for key in ("weibull", "binomial", "latent_gumbel", "latent_jacobian"):
            assert hparts[key] == pytest.approx(sparts[key], rel=1e-10)

    def test_no_blocks_is_prior_only(self):
        prior = elicit_hmev_priors([np.array([5.0, 8.0, 12.0])], 366)
        v = np.array([np.log(0.7), np.log(0.05), np.log(10.0), np.log(1.5), -1.0])
        target = HmevTarget([], 366, prior)
        expected = (
            prior.mu_gamma.log_density_unconstrained(v[0])
            + prior.sigma_gamma.log_density_unconstrained(v[1])
            + prior.mu_delta.log_density_unconstrained(v[2])
            + prior.sigma_delta.log_density_unconstrained(v[3])
            + prior.event_rate.log_density_unconstrained(v[4])
        )
        assert target.value(v) == pytest.approx(expected, abs=1e-12)

    def test_matches_naive_oracle(self, wei_small, rng):
        site_events = wei_small.train.events[1]
        trials = wei_small.train.trials_per_block
        prior = elicit_hmev_priors(site_events, trials)
        target = HmevTarget(site_events, trials, prior)
        J = len(site_events)
        for _ in range(5):
            v = target.initial_vector() + 0.1 * rng.standard_normal(target.layout.dim)
            params = hmev_params_view(target.layout, v)
            fast = HmevTarget(site_events, trials, prior).value(v)
            slow = naive_hmev_log_posterior(params, site_events, trials, prior)
            assert fast == pytest.approx(slow, rel=1e-10)

    def test_gradient_matches_finite_differences(self, wei_small, rng):
        site_events = wei_small.train.events[2]
        trials = wei_small.train.trials_per_block
        prior = elicit_hmev_priors(site_events, trials)
        target = HmevTarget(site_events, trials, prior)
        h = 1e-5
        for _ in range(5):
            v = target.initial_vector() + 0.05 * rng.standard_normal(target.layout.dim)
            _, grad = target(v)
            for k in range(target.layout.dim):
                vp, vm = v.copy(), v.copy()
                vp[k] += h
                vm[k] -= h
                fd = (target.value(vp) - target.value(vm)) / (2 * h)
                assert abs(grad[k] - fd) / max(1.0, abs(fd)) < 1e-5


class TestModelInvariants:
    def test_site_and_event_permutation_invariance(self, wei_small, wei_small_prior, rng):
        dataset = wei_small.train
        target = ShmevTarget(dataset, wei_small_prior)
        v = _random_params(target.layout, rng, spread=0.05)
        base = target.value(v)

        # permute sites (and the matching latent columns)
        perm = rng.permutation(dataset.n_sites)
        sites = [dataset.sites[i] for i in perm]
        events = [dataset.events[i] for i in perm]
        permuted = Dataset(sites, dataset.blocks, events, dataset.trials_per_block)
        params = ShmevParams.from_vector(target.layout, v)
        pparams = ShmevParams(
            beta_gamma=params.beta_gamma,
            beta_delta=params.beta_delta,
            beta_lambda=params.beta_lambda,
            log_sigma_gamma=params.log_sigma_gamma,
            log_sigma_delta=params.log_sigma_delta,
            log_gamma=params.log_gamma[:, perm],
            log_delta=params.log_delta[:, perm],
        )
        assert shmev_log_posterior(pparams, permuted, wei_small_prior) == pytest.approx(base, rel=1e-12)

        # permute events within one block
        events2 = [list(row) for row in dataset.events]
        shuffled = events2[0][0].copy()
        rng.shuffle(shuffled)
        events2[0][0] = shuffled
        permuted2 = Dataset(dataset.sites, dataset.blocks, events2, dataset.trials_per_block)
        assert shmev_log_posterior(params, permuted2, wei_small_prior) == pytest.approx(base, rel=1e-12)

    def test_zero_covariate_column_shifts_by_its_prior_only(self, wei_small, wei_small_prior, rng):
        dataset = wei_small.train
        target = ShmevTarget(dataset, wei_small_prior)
        v = _random_params(target.layout, rng, spread=0.05)
        base = target.value(v)

        extra = NormalPrior(0.0, 1.3)
        prior2 = ShmevPriorSpec(
            beta_gamma=wei_small_prior.beta_gamma + (extra,),
            beta_delta=wei_small_prior.beta_delta + (extra,),
            beta_lambda=wei_small_prior.beta_lambda + (extra,),
            sigma_gamma=wei_small_prior.sigma_gamma,
            sigma_delta=wei_small_prior.sigma_delta,
        )
        sites2 = [
            SiteCovariates(s.station, np.concatenate([s.z, [0.0]]), s.raw) for s in dataset.sites
        ]
        dataset2 = Dataset(sites2, dataset.blocks, dataset.events, dataset.trials_per_block)
        params = ShmevParams.from_vector(target.layout, v)
        params2 = ShmevParams(
            beta_gamma=np.concatenate([params.beta_gamma, [0.0]]),
            beta_delta=np.concatenate([params.beta_delta, [0.0]]),
            beta_lambda=np.concatenate([params.beta_lambda, [0.0]]),
            log_sigma_gamma=params.log_sigma_gamma,
            log_sigma_delta=params.log_sigma_delta,
            log_gamma=params.log_gamma,
            log_delta=params.log_delta,
        )
        expected = base + 3 * extra.logpdf(0.0)
        assert shmev_log_posterior(params2, dataset2, prior2) == pytest.approx(expected, rel=1e-12)

    def test_tail_magnitude_decreases_all_log_posteriors(self, wei_small, wei_small_prior, rng):
        dataset = wei_small.train
        target = ShmevTarget(dataset, wei_small_prior)
        v = _random_params(target.layout, rng, spread=0.02)
        base = target.value(v)
        events2 = [list(row) for row in dataset.events]
        moved = events2[0][0].copy()
        moved[-1] = moved[-1] * 50.0  # far into the Weibull tail
        events2[0][0] = moved
        dataset2 = Dataset(dataset.sites, dataset.blocks, events2, dataset.trials_per_block)
        params = ShmevParams.from_vector(target.layout, v)
        assert shmev_log_posterior(params, dataset2, wei_small_prior) < base

        site_events = dataset.events[0]
        trials = dataset.trials_per_block
        hprior = elicit_hmev_priors(site_events, trials)
        htarget = HmevTarget(site_events, trials, hprior)
        hv = htarget.initial_vector()
        hbase = htarget.value(hv)
        h2 = HmevTarget(events2[0], trials, hprior)
        assert h2.value(hv) < hbase

        maxima = np.array([b.max() for b in site_events if b.size])
        gprior = GevPriorSpec.from_maxima(maxima)
        gtheta = np.array([maxima.mean(), np.log(maxima.std(ddof=1)), 0.1])
        gbase = GevTarget(maxima, gprior).value(gtheta)
        maxima2 = maxima.copy()
        maxima2[-1] *= 50.0
        assert GevTarget(maxima2, gprior).value(gtheta) < gbase


def _same_bits(a, b):
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and np.array_equal(a.view(np.int64), b.view(np.int64))


class TestRowBatchedKernels:
    """One kernel call over rows of several stations equals, row by row, the
    one-row call bit for bit, and the former one-row kernel to
    ``FORMER_KERNEL_RTOL`` (GEV's, whose kernel is the former one's, bit
    for bit)."""

    @pytest.fixture(scope="class")
    def stations(self, wei_small):
        data = wei_small.train
        trials = data.trials_per_block
        hmev, gev = [], []
        for events in data.events:
            prior = elicit_hmev_priors(events, trials)
            target = HmevTarget(events, trials, prior)
            hmev.append((target, oracle_hmev_target(target, events, trials)))
            maxima = np.array([b.max() for b in events if b.size])
            gtarget = GevTarget(maxima, GevPriorSpec.from_maxima(maxima))
            gev.append((gtarget, oracle_gev_target(gtarget)))
        # a station with fewer maxima: its rows form their own (rows, n) block
        maxima = np.array([b.max() for b in data.events[0] if b.size])[:-2]
        gtarget = GevTarget(maxima, GevPriorSpec.from_maxima(maxima))
        gev.append((gtarget, oracle_gev_target(gtarget)))
        return hmev, gev

    @staticmethod
    def check_rows(pairs, V, exact=False):
        targets = [t for t, _ in pairs]
        logp, grad, _ = type(targets[0]).batch_kernel(targets)(V)
        for r, (target, former) in enumerate(pairs):
            one_logp, one_grad = target(V[r])
            ref_logp, ref_grad = former(V[r])
            assert _same_bits(logp[r], one_logp) and _same_bits(grad[r], one_grad), r
            if exact:
                assert _same_bits(logp[r], ref_logp) and _same_bits(grad[r], ref_grad), r
            else:
                assert_near_former(logp[r], grad[r], ref_logp, ref_grad, r)
        return logp

    def test_hmev_rows(self, stations, rng):
        hmev, _ = stations
        rejected = 0
        for _ in range(40):
            pick = rng.integers(0, len(hmev), size=rng.integers(1, 9))
            pairs = [hmev[i] for i in pick]
            V = np.array([t.initial_vector() for t, _ in pairs])
            V += rng.standard_normal(V.shape) * rng.choice([0.01, 0.3, 3.0, 30.0])
            V[rng.random(len(pick)) < 0.2, 3] = rng.choice([np.nan, np.inf, 800.0])
            rejected += int(np.sum(self.check_rows(pairs, V) == -np.inf))
        assert rejected > 0

    def test_gev_rows(self, stations, rng):
        _, gev = stations
        logps = []
        for _ in range(60):
            pick = rng.integers(0, len(gev), size=rng.integers(1, 9))
            pairs = [gev[i] for i in pick]
            V = np.array([t.initial_vector() for t, _ in pairs])
            V += rng.standard_normal(V.shape) * rng.choice([0.01, 0.3])
            # Gumbel limit, series shape gradient, support violations, NaN
            special = rng.random(len(pick)) < 0.5
            V[special, 2] = rng.choice([0.0, -0.0, 3e-11, -7e-11, 4e-6, -2e-6, 2.5, -2.5, np.nan], size=special.sum())
            logps.append((V[:, 2], self.check_rows(pairs, V, exact=True)))
        shape = np.concatenate([s for s, _ in logps])
        logp = np.concatenate([lp for _, lp in logps])
        gumbel = np.abs(shape) < 1e-10
        assert np.isfinite(logp[gumbel]).any() and np.isfinite(logp[~gumbel]).any()
        assert (logp[np.abs(shape) == 2.5] == -np.inf).any()

    @staticmethod
    def shifted(prior: ShmevPriorSpec) -> ShmevPriorSpec:
        """``prior`` with every coefficient prior moved and widened, each by
        its own amount, and both latent-scale priors reshaped."""
        def normals(priors, offset):
            return tuple(NormalPrior(q.mean + offset + 0.1 * k, (1.5 + 0.2 * k) * q.sd) for k, q in enumerate(priors))

        return ShmevPriorSpec(
            beta_gamma=normals(prior.beta_gamma, 0.3),
            beta_delta=normals(prior.beta_delta, -2.0),
            beta_lambda=normals(prior.beta_lambda, 0.7),
            sigma_gamma=InverseGammaPrior(prior.sigma_gamma.shape + 1.5, 2.0 * prior.sigma_gamma.scale),
            sigma_delta=InverseGammaPrior(prior.sigma_delta.shape + 0.5, 0.5 * prior.sigma_delta.scale),
        )

    def test_shmev_rows(self, wei_small, wei_small_prior, rng):
        # datasets of one layout, some with empty blocks, each under the
        # elicited prior and a shifted one; each row against its one-row
        # call and the take reference
        priors = (wei_small_prior, self.shifted(wei_small_prior))
        targets = [
            ShmevTarget(_without_blocks(wei_small.train, empty), prior)
            for empty in TestShmevEventGather.EMPTY.values()
            for prior in priors
        ]
        pairs = [(t, lambda v, t=t: take_shmev_value_grad(v, t)) for t in targets]
        rejected = 0
        for _ in range(10):
            pick = rng.integers(0, len(pairs), size=rng.integers(2, 5))
            # the first two rows share their events but not their priors
            pick[1] = pick[0] ^ 1
            V = np.array([_random_params(pairs[i][0].layout, rng, rng.choice([0.0, 0.05, 0.3, 3.0])) for i in pick])
            V[rng.random(len(pick)) < 0.2, pairs[0][0].layout.log_sigma_delta] = rng.choice([np.nan, np.inf, 800.0])
            rejected += int(np.sum(self.check_rows([pairs[i] for i in pick], V) == -np.inf))
        assert rejected > 0

    @pytest.mark.parametrize("kind", ["shmev", "hmev", "gev"])
    def test_huge_coordinates_raise_nothing(self, kind, stations, wei_small, wei_small_prior):
        # +-1e300 in any one coordinate, as rows of a batch and one row at a
        # time: a rejected state (-inf, zero gradient) or a finite value and
        # gradient, never an exception
        if kind == "shmev":
            targets = [ShmevTarget(wei_small.train, wei_small_prior), ShmevTarget(wei_small.train, self.shifted(wei_small_prior))]
        else:
            targets = [t for t, _ in stations[kind == "gev"][:2]]
        dim = targets[0].initial_vector().size
        rows = targets * dim
        for huge in (1e300, -1e300):
            V = np.array([t.initial_vector() for t in rows])
            V[np.arange(V.shape[0]), np.repeat(np.arange(dim), len(targets))] = huge
            logp, grad, _ = type(targets[0]).batch_kernel(rows)(V)
            rejected = logp == -np.inf
            assert np.all(grad[rejected] == 0.0)
            assert np.all(np.isfinite(logp[~rejected])) and np.all(np.isfinite(grad[~rejected]))
            if kind == "gev":  # a huge shape puts some maximum outside the support
                assert np.all(rejected[-len(targets):])
            for r, (t, v) in enumerate(zip(rows, V)):
                one_logp, one_grad = t(v)
                assert _same_bits(logp[r], one_logp) and _same_bits(grad[r], one_grad), r

    def test_one_target_batch_uses_the_targets_own_kernel(self, wei_small, wei_small_prior):
        # the sampler's kernel for a single row must not copy the events again
        target = ShmevTarget(wei_small.train, wei_small_prior)
        target(target.initial_vector())
        kernel = ShmevTarget.batch_kernel([target])
        assert kernel is target._kernel
        assert kernel.events.d_e is target._events.d_e

    def test_value_and_parts_come_from_the_same_kernel(self, stations, rng):
        hmev, gev = stations
        target, _ = hmev[1]
        v = target.initial_vector() + 0.1 * rng.standard_normal(target.layout.dim)
        assert _same_bits(target.value(v), target(v)[0])
        parts = target.parts(v)
        assert set(parts) == {"weibull", "binomial", "latent_gumbel", "latent_jacobian", "prior"}
        assert all(isinstance(x, float) for x in parts.values())
        gtarget, _ = gev[0]
        theta = gtarget.initial_vector()
        assert _same_bits(gtarget.value(theta), gtarget(theta)[0])


def test_gamma_prior_cached_constants_give_the_same_bits(rng):
    for shape, scale in ((1.0, 7.3), (2.5, 0.04), (0.3, 1e5)):
        prior = GammaPrior(shape, scale)
        for u in rng.standard_normal(50) * 3.0:
            inline = shape * u - np.exp(u) / scale - gammaln(shape) - shape * np.log(scale)
            assert _same_bits(prior.log_density_unconstrained(u), inline)


@pytest.mark.parametrize("prior", [InverseGammaPrior, GammaPrior, BetaPrior])
@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize("position", [0, 1])
def test_prior_parameters_must_be_finite(prior, bad, position):
    params = [2.0, 3.0]
    params[position] = bad
    with pytest.raises(ValueError, match="must be finite"):
        prior(*params)
