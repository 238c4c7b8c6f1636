"""Independent reference implementations used as test oracles.

Everything here is a straight-line re-implementation with scalar ``math``
loops over every observation, deliberately sharing no code with the
vectorized package internals, except the former implementations kept as
bit-for-bit references for the current ones: ``take_shmev_value_grad``
(the spatial kernel before its gather went by block runs, on the event data
it compiled before it shared a block kernel with the single-site model),
the per-chain sampler with the one-row GEV and single-site kernels, the
split-chain diagnostics on stacked copies of the draws and, at the end, the
one-estimate quantile inversion.  ``weibull_cdf`` is the
vectorized Weibull cdf that the predictive tests compare the maxima cdf
with.
"""
import csv
import datetime as dt
import math
import re
from pathlib import Path
from types import SimpleNamespace
from typing import Sequence

import numpy as np

import shmev.predictive as predictive
from shmev.distributions import WeibullParams
from shmev.errors import ConvergenceError, DataError, NumericError
from shmev.hmc import _MAX_ENERGY_ERROR, _MIN_ABORT_WARMUP, PosteriorDraws, SamplerConfig
from shmev.ingest import QcLedger
from shmev.model import GevPriorSpec, HmevLayout, HmevPriorSpec
from shmev.predictive import BlockDraws
from shmev.special import expit, expit_log_expit_pair, gammaln, log_expit


def _normal_logpdf(x, mean, sd):
    return -0.5 * math.log(2 * math.pi) - math.log(sd) - 0.5 * ((x - mean) / sd) ** 2


def _invgamma_unconstrained(u, shape, scale):
    return shape * math.log(scale) - math.lgamma(shape) - shape * u - scale * math.exp(-u)


def naive_shmev_log_posterior(params, dataset, prior):
    total = 0.0
    n_trials = dataset.trials_per_block
    sig_g = math.exp(params.log_sigma_gamma)
    sig_d = math.exp(params.log_sigma_delta)
    for s, site in enumerate(dataset.sites):
        z = [float(v) for v in site.z]
        mu_g = sum(zk * float(bk) for zk, bk in zip(z, params.beta_gamma))
        mu_d = sum(zk * float(bk) for zk, bk in zip(z, params.beta_delta))
        ell = sum(zk * float(bk) for zk, bk in zip(z, params.beta_lambda))
        lam = 1.0 / (1.0 + math.exp(-ell))
        for j in range(dataset.n_blocks):
            gam = math.exp(float(params.log_gamma[j, s]))
            dlt = math.exp(float(params.log_delta[j, s]))
            mags = dataset.events[s][j]
            n = len(mags)
            for x in mags:
                x = float(x)
                total += (
                    math.log(gam)
                    - math.log(dlt)
                    + (gam - 1.0) * (math.log(x) - math.log(dlt))
                    - (x / dlt) ** gam
                )
            total += (
                math.lgamma(n_trials + 1)
                - math.lgamma(n + 1)
                - math.lgamma(n_trials - n + 1)
                + n * math.log(lam)
                + (n_trials - n) * math.log(1.0 - lam)
            )
            for value, mu, sig in ((gam, mu_g, sig_g), (dlt, mu_d, sig_d)):
                zz = (value - mu) / sig
                total += -math.log(sig) - zz - math.exp(-zz)
            total += float(params.log_gamma[j, s]) + float(params.log_delta[j, s])
    for qs, vals in (
        (prior.beta_gamma, params.beta_gamma),
        (prior.beta_delta, params.beta_delta),
        (prior.beta_lambda, params.beta_lambda),
    ):
        for q, x in zip(qs, vals):
            total += _normal_logpdf(float(x), q.mean, q.sd)
    total += _invgamma_unconstrained(params.log_sigma_gamma, prior.sigma_gamma.shape, prior.sigma_gamma.scale)
    total += _invgamma_unconstrained(params.log_sigma_delta, prior.sigma_delta.shape, prior.sigma_delta.scale)
    return total


def naive_gev_log_posterior(theta, maxima, prior):
    mu, log_sigma, tau = float(theta[0]), float(theta[1]), float(theta[2])
    sigma = math.exp(log_sigma)
    total = 0.0
    for y in maxima:
        z = (float(y) - mu) / sigma
        if abs(tau) < 1e-10:
            total += -log_sigma - z - math.exp(-z)
        else:
            t = 1.0 + tau * z
            if t <= 0.0:
                return -math.inf
            total += -log_sigma - (1.0 + 1.0 / tau) * math.log(t) - t ** (-1.0 / tau)
    total += _normal_logpdf(mu, prior.loc.mean, prior.loc.sd)
    total += (
        prior.scale.shape * log_sigma
        - sigma / prior.scale.scale
        - math.lgamma(prior.scale.shape)
        - prior.scale.shape * math.log(prior.scale.scale)
    )
    total += _normal_logpdf(tau, prior.shape.mean, prior.shape.sd)
    return total


def hmev_params_view(layout, v):
    """The attributes of a single-site vector that
    ``naive_hmev_log_posterior`` reads: the five hyperparameters as floats,
    ``log_gamma`` and ``log_delta`` as arrays."""
    v = np.asarray(v, dtype=float)
    return SimpleNamespace(
        **{name: float(v[k]) for k, name in enumerate(layout.HYPER)},
        log_gamma=v[layout.log_gamma].copy(),
        log_delta=v[layout.log_delta].copy(),
    )


def naive_hmev_log_posterior(params, events, n_trials, prior):
    total = 0.0
    mu_g = math.exp(params.log_mu_gamma)
    sig_g = math.exp(params.log_sigma_gamma)
    mu_d = math.exp(params.log_mu_delta)
    sig_d = math.exp(params.log_sigma_delta)
    lam = 1.0 / (1.0 + math.exp(-params.logit_lambda))
    for j, mags in enumerate(events):
        gam = math.exp(float(params.log_gamma[j]))
        dlt = math.exp(float(params.log_delta[j]))
        n = len(mags)
        for x in mags:
            x = float(x)
            total += (
                math.log(gam)
                - math.log(dlt)
                + (gam - 1.0) * (math.log(x) - math.log(dlt))
                - (x / dlt) ** gam
            )
        total += (
            math.lgamma(n_trials + 1)
            - math.lgamma(n + 1)
            - math.lgamma(n_trials - n + 1)
            + n * math.log(lam)
            + (n_trials - n) * math.log(1.0 - lam)
        )
        for value, mu, sig in ((gam, mu_g, sig_g), (dlt, mu_d, sig_d)):
            zz = (value - mu) / sig
            total += -math.log(sig) - zz - math.exp(-zz)
        total += float(params.log_gamma[j]) + float(params.log_delta[j])
    total += _invgamma_unconstrained(params.log_mu_gamma, prior.mu_gamma.shape, prior.mu_gamma.scale)
    total += _invgamma_unconstrained(params.log_sigma_gamma, prior.sigma_gamma.shape, prior.sigma_gamma.scale)
    total += _invgamma_unconstrained(params.log_mu_delta, prior.mu_delta.shape, prior.mu_delta.scale)
    total += _invgamma_unconstrained(params.log_sigma_delta, prior.sigma_delta.shape, prior.sigma_delta.scale)
    a, b = prior.event_rate.a, prior.event_rate.b
    total += (
        a * math.log(lam)
        + b * math.log(1.0 - lam)
        - (math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b))
    )
    return total


def weibull_logpdf_cdf(x, p: WeibullParams):
    """Return ``(logpdf, cdf)`` of the Weibull family at ``x`` (> 0).

    The cdf is ``1 - exp(-(x/scale)**shape)``; the log-density is its exact
    derivative on the log scale.  Both are finite for valid inputs.
    """
    x = np.asarray(x, dtype=float)
    if np.any(x <= 0.0) or not np.all(np.isfinite(x)):
        raise ValueError("Weibull support is x > 0")
    shape = np.asarray(p.shape, dtype=float)
    scale = np.asarray(p.scale, dtype=float)
    logratio = np.log(x) - np.log(scale)
    t = np.exp(shape * logratio)
    logpdf = np.log(shape) - np.log(scale) + (shape - 1.0) * logratio - t
    cdf = -np.expm1(-t)
    return logpdf, cdf


def weibull_cdf(x, p: WeibullParams):
    return weibull_logpdf_cdf(x, p)[1]


def central_difference(value_fn, v, step=1e-5):
    """Central finite-difference gradient of a scalar function."""
    fd = [0.0] * len(v)
    for k in range(len(v)):
        vp = v.copy()
        vm = v.copy()
        vp[k] += step
        vm[k] -= step
        fd[k] = (value_fn(vp) - value_fn(vm)) / (2.0 * step)
    return fd


_EVENT_HEADER = ["station", "date", "prcp_mm", "qflag"]
_MISSING = {"", "NA", "NaN", "nan"}


def naive_read_event_file(paths, ledger=None):
    """Row-by-row event-file parser: one ``dt.date`` and ``float`` per row,
    (date, value, flag) tuples sorted per station in Python."""
    if isinstance(paths, (str, Path)):
        paths = [paths]
    ledger = ledger if ledger is not None else QcLedger()
    per_station = {}
    for path in paths:
        path = Path(path)
        if not path.exists():
            raise DataError(f"event file not found: {path}")
        with open(path, newline="", encoding="utf-8") as fh:
            reader = csv.reader(fh)
            try:
                header = next(reader, None)
                if header is None or [h.strip() for h in header] != _EVENT_HEADER:
                    raise DataError(f"{path}: expected header {','.join(_EVENT_HEADER)}")
                for row in reader:
                    lineno = reader.line_num  # the physical line on which the record ends
                    if not row or all(not c.strip() for c in row):
                        continue
                    if len(row) != 4:
                        ledger.reject(str(path), lineno, "wrong field count", ",".join(row))
                        continue
                    station, date_s, prcp_s, qflag = (c.strip() for c in row)
                    try:
                        if not re.fullmatch(r"\d{4}-\d{2}-\d{2}", date_s, re.ASCII):
                            raise ValueError(date_s)
                        date = dt.date.fromisoformat(date_s)
                    except ValueError:
                        ledger.reject(str(path), lineno, "unparseable date", ",".join(row))
                        continue
                    if prcp_s in _MISSING:
                        value = np.nan
                    else:
                        try:
                            value = float(prcp_s)
                        except ValueError:
                            ledger.reject(str(path), lineno, "unparseable precipitation", ",".join(row))
                            continue
                        if value < 0.0:
                            ledger.reject(str(path), lineno, "negative precipitation", ",".join(row))
                            continue
                        if value == math.inf:
                            ledger.reject(str(path), lineno, "non-finite precipitation", ",".join(row))
                            continue
                    per_station.setdefault(station, []).append((date, value, qflag))
            except csv.Error as exc:
                raise DataError(f"{path}:{reader.line_num}: {exc}") from exc
    out = {}
    for station in sorted(per_station):
        rows = sorted(per_station[station], key=lambda r: r[0])
        for (d1, *_), (d2, *_) in zip(rows, rows[1:]):
            if d1 == d2:
                raise DataError(f"station {station}: duplicate date {d1}")
        dates = np.array([r[0] for r in rows], dtype="datetime64[D]")
        values = np.array([r[1] for r in rows], dtype=float)
        flags = [r[2] for r in rows]
        out[station] = (dates, values, flags)
    return out, ledger


def csv_writer_trace_export(draws, path):
    """The trace file written one ``csv.writer.writerow`` per (draw, param)."""
    per_chain = draws.by_chain()
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["iter", "chain", "param", "value"])
        for c in range(draws.n_chains):
            for it in range(draws.n_kept_per_chain):
                for k, name in enumerate(draws.param_names):
                    writer.writerow([it, c, name, repr(float(per_chain[c, it, k]))])
    return path


def _former_compiled_shmev(dataset):
    """The event data that the spatial kernel compiled before it shared a
    block kernel with the single-site model, computed as it was then."""
    S, J = dataset.n_sites, dataset.n_blocks
    counts = dataset.counts()
    n_b = counts.ravel().astype(float)
    logs, slx = [], np.zeros(S * J)
    for s in range(S):
        for j in range(J):
            mags = dataset.events[s][j]
            if mags.size:
                lx = np.log(mags)
                logs.append(lx)
                slx[s * J + j] = lx.sum()
    N = float(dataset.trials_per_block)
    return SimpleNamespace(
        S=S,
        J=J,
        trials=dataset.trials_per_block,
        Z=dataset.design_matrix(),
        n_b=n_b,
        site_of_block=np.repeat(np.arange(S), J),
        logx=np.concatenate(logs) if logs else np.zeros(0),
        slx_b=slx,
        sum_n_s=counts.sum(axis=1).astype(float),
        binom_const=float(np.sum(gammaln(N + 1.0) - gammaln(n_b + 1.0) - gammaln(N - n_b + 1.0))),
    )


def take_shmev_value_grad(v, target):
    """``ShmevTarget``'s value and gradient with every event's log delta and
    gamma gathered by ``np.take`` over a per-event block index: the spatial
    kernel as it was before the gather went by block runs."""
    prior, layout, dataset = target.prior, target.layout, target.dataset
    c = _former_compiled_shmev(dataset)
    block_ids = [
        np.full(dataset.events[s][j].size, s * c.J + j, dtype=np.int64)
        for s in range(c.S)
        for j in range(c.J)
        if dataset.events[s][j].size
    ]
    block_of_event = np.concatenate(block_ids) if block_ids else np.zeros(0, dtype=np.int64)
    if block_of_event.size:
        change = np.nonzero(np.diff(block_of_event))[0] + 1
        seg_starts = np.concatenate([[0], change])
        seg_blocks = block_of_event[seg_starts]
    else:
        seg_starts = np.zeros(0, dtype=np.int64)
        seg_blocks = np.zeros(0, dtype=np.int64)

    def block_sums(values, out):
        out[:] = 0.0
        if seg_starts.size:
            out[seg_blocks] = np.add.reduceat(values, seg_starts)
        return out

    bg = v[layout.beta_gamma]
    bd = v[layout.beta_delta]
    bl = v[layout.beta_lambda]
    lsg = v[layout.log_sigma_gamma]
    lsd = v[layout.log_sigma_delta]
    ug = v[layout.log_gamma]
    ud = v[layout.log_delta]

    with np.errstate(over="ignore", invalid="ignore", divide="ignore", under="ignore"):
        sig_g, sig_d = np.exp(lsg), np.exp(lsd)
        gam, dlt = np.exp(ug), np.exp(ud)
        mu_g = c.Z @ bg
        mu_d = c.Z @ bd
        ell = c.Z @ bl
        lam = expit(ell)

        t_e, work = np.empty(c.logx.size), np.empty(c.logx.size)
        np.take(ud, block_of_event, out=t_e)
        np.subtract(c.logx, t_e, out=t_e)
        np.take(gam, block_of_event, out=work)
        np.multiply(t_e, work, out=t_e)
        np.exp(t_e, out=t_e)
        T1 = block_sums(t_e, np.empty(c.S * c.J))
        np.multiply(t_e, c.logx, out=work)
        U = block_sums(work, np.empty(c.S * c.J))
        weibull = float(
            np.sum(c.n_b * ug - c.n_b * ud + (gam - 1.0) * (c.slx_b - c.n_b * ud)) - t_e.sum()
        )

        z1 = (gam - mu_g[c.site_of_block]) / sig_g
        z2 = (dlt - mu_d[c.site_of_block]) / sig_d
        e1 = np.exp(-z1)
        e2 = np.exp(-z2)
        nb = float(c.S * c.J)
        latent = float(-nb * (lsg + lsd) - np.sum(z1 + e1) - np.sum(z2 + e2))

        N = float(c.trials)
        _, log_lam, log_1m_lam = expit_log_expit_pair(ell)
        binom = float(
            np.sum(c.sum_n_s * log_lam + (c.J * N - c.sum_n_s) * log_1m_lam) + c.binom_const
        )

        prior_terms = (
            sum(q.logpdf(x) for q, x in zip(prior.beta_gamma, bg))
            + sum(q.logpdf(x) for q, x in zip(prior.beta_delta, bd))
            + sum(q.logpdf(x) for q, x in zip(prior.beta_lambda, bl))
            + prior.sigma_gamma.log_density_unconstrained(lsg)
            + prior.sigma_delta.log_density_unconstrained(lsd)
        )
        jacobian = float(np.sum(ug) + np.sum(ud))
        logp = weibull + latent + binom + prior_terms + jacobian
        if not np.isfinite(logp):
            logp = -np.inf

        grad = np.zeros(layout.dim)
        if np.isfinite(logp):
            T2 = U - ud * T1
            d_ug = (
                c.n_b
                + gam * (c.slx_b - c.n_b * ud - T2)
                + gam * (e1 - 1.0) / sig_g
                + 1.0
            )
            d_ud = gam * (T1 - c.n_b) + dlt * (e2 - 1.0) / sig_d + 1.0
            v_g = np.bincount(c.site_of_block, weights=(1.0 - e1) / sig_g, minlength=c.S)
            v_d = np.bincount(c.site_of_block, weights=(1.0 - e2) / sig_d, minlength=c.S)
            v_l = c.sum_n_s - c.J * N * lam
            grad[layout.beta_gamma] = c.Z.T @ v_g + np.array(
                [q.score(x) for q, x in zip(prior.beta_gamma, bg)]
            )
            grad[layout.beta_delta] = c.Z.T @ v_d + np.array(
                [q.score(x) for q, x in zip(prior.beta_delta, bd)]
            )
            grad[layout.beta_lambda] = c.Z.T @ v_l + np.array(
                [q.score(x) for q, x in zip(prior.beta_lambda, bl)]
            )
            grad[layout.log_sigma_gamma] = float(
                np.sum(-1.0 + z1 * (1.0 - e1)) + prior.sigma_gamma.score_unconstrained(lsg)
            )
            grad[layout.log_sigma_delta] = float(
                np.sum(-1.0 + z2 * (1.0 - e2)) + prior.sigma_delta.score_unconstrained(lsd)
            )
            grad[layout.log_gamma] = d_ug
            grad[layout.log_delta] = d_ud
            if not np.all(np.isfinite(grad)):
                logp, grad = -np.inf, np.zeros(layout.dim)
    return logp, grad


# ---------------------------------------------------------------------------
# The per-chain sampler and per-row kernels the lockstep sampler replaced
# ---------------------------------------------------------------------------
#
# Kept verbatim as the bit-for-bit references for ``shmev.hmc`` and the
# row-batched ``GevTarget`` and ``HmevTarget`` kernels.

_DA_GAMMA = 0.05
_DA_T0 = 10.0
_DA_KAPPA = 0.75
_GEV_LIMIT_EPS = 1e-10
_GEV_GRAD_EPS = 1e-5


def _find_reasonable_epsilon(target, q, mass, rng) -> float:
    """Double/halve an initial step size until one leapfrog step has
    acceptance ratio crossing 1/2 (Hoffman & Gelman 2014, alg. 4)."""
    eps = 1.0
    logp, grad = target(q)
    if not np.isfinite(logp):
        raise NumericError("initial point has non-finite log density")
    p = rng.standard_normal(q.size) * np.sqrt(mass)

    def energy_delta(eps):
        with np.errstate(over="ignore", invalid="ignore"):
            p1 = p + 0.5 * eps * grad
            q1 = q + eps * p1 / mass
            logp1, grad1 = target(q1)
            p1 = p1 + 0.5 * eps * grad1
            if not np.isfinite(logp1):
                return -np.inf
            delta = (logp1 - 0.5 * np.sum(p1 * p1 / mass)) - (logp - 0.5 * np.sum(p * p / mass))
        return delta if np.isfinite(delta) else -np.inf

    delta = energy_delta(eps)
    direction = 1.0 if delta > np.log(0.5) else -1.0
    for _ in range(100):
        eps = eps * (2.0 ** direction)
        delta = energy_delta(eps)
        if direction > 0 and delta <= np.log(0.5):
            break
        if direction < 0 and delta >= np.log(0.5):
            break
        if eps < 1e-12 or eps > 1e7:
            break
    return eps


def _leapfrog(target, q, p, grad, eps, n_steps, mass):
    """Standard velocity-leapfrog trajectory; returns the final state."""
    p = p + 0.5 * eps * grad
    for step in range(n_steps):
        q = q + eps * p / mass
        logp, grad = target(q)
        if not np.all(np.isfinite(grad)) or not np.isfinite(logp):
            return q, p, -np.inf, grad
        if step < n_steps - 1:
            p = p + eps * grad
    p = p + 0.5 * eps * grad
    return q, p, logp, grad


def _run_chain(target, config: SamplerConfig, q0: np.ndarray, rng: np.random.Generator):
    dim = q0.size
    mass = np.ones(dim)
    q = q0.astype(float).copy()
    logp, grad = target(q)
    if not np.isfinite(logp):
        raise NumericError("chain initialized at a point with non-finite log density")

    n_warmup = config.n_warmup
    eps = _find_reasonable_epsilon(target, q, mass, rng)
    mu = np.log(10.0 * eps)
    log_eps_bar, h_bar, da_iter = np.log(eps), 0.0, 1

    # mass-estimation window: draws in [n_warmup/4, n_warmup/2)
    use_mass_window = n_warmup >= 40
    win_lo, win_hi = n_warmup // 4, n_warmup // 2
    window = np.zeros((max(win_hi - win_lo, 1), dim)) if use_mass_window else None

    kept = np.empty((config.n_kept, dim))
    divergences = 0
    warmup_divergences = 0
    accept_sum = 0.0

    for it in range(config.n_iterations):
        warming = it < n_warmup
        p0 = rng.standard_normal(dim) * np.sqrt(mass)
        if config.step_jitter > 0.0:
            jitter = 1.0 + config.step_jitter * (2.0 * rng.random() - 1.0)
        else:
            jitter = 1.0
        n_steps = max(1, int(round(config.leapfrog_steps * jitter)))
        q1, p1, logp1, grad1 = _leapfrog(target, q, p0, grad, eps, n_steps, mass)

        h0 = -logp + 0.5 * np.sum(p0 * p0 / mass)
        # a diverging trajectory can overflow the kinetic energy to inf,
        # which the delta_h check below marks divergent
        with np.errstate(over="ignore"):
            kinetic1 = 0.5 * np.sum(p1 * p1 / mass)
        h1 = -logp1 + kinetic1 if np.isfinite(logp1) else np.inf
        delta_h = h1 - h0
        divergent = not np.isfinite(delta_h) or delta_h > _MAX_ENERGY_ERROR
        if divergent:
            alpha = 0.0
            if warming:
                warmup_divergences += 1
            else:
                divergences += 1
        else:
            alpha = 1.0 if delta_h <= 0.0 else float(np.exp(-delta_h))
            if rng.random() < alpha:
                q, logp, grad = q1, logp1, grad1

        if warming:
            frac = 1.0 / (da_iter + _DA_T0)
            h_bar = (1.0 - frac) * h_bar + frac * (config.target_accept - alpha)
            log_eps = mu - np.sqrt(da_iter) / _DA_GAMMA * h_bar
            w = da_iter ** (-_DA_KAPPA)
            log_eps_bar = w * log_eps + (1.0 - w) * log_eps_bar
            eps = float(np.exp(log_eps))
            da_iter += 1
            if use_mass_window and win_lo <= it < win_hi:
                window[it - win_lo] = q
            if use_mass_window and it == win_hi - 1:
                n_win = window.shape[0]
                var = np.var(window, axis=0)
                # shrink toward a small diagonal, as in windowed adaptation
                var = (n_win / (n_win + 5.0)) * var + (5.0 / (n_win + 5.0)) * 1e-3
                mass = 1.0 / np.maximum(var, 1e-10)
                eps = float(np.exp(log_eps_bar))
                mu = np.log(10.0 * eps)
                log_eps_bar, h_bar, da_iter = np.log(eps), 0.0, 1
            if it == n_warmup - 1:
                if n_warmup >= _MIN_ABORT_WARMUP and warmup_divergences >= n_warmup:
                    raise NumericError(
                        f"all {n_warmup} warmup iterations diverged; the target may be "
                        "ill-conditioned or the gradient wrong"
                    )
                eps = float(np.exp(log_eps_bar))
        else:
            kept[it - n_warmup] = q
            accept_sum += alpha

    return {
        "draws": kept,
        "accept_prob": accept_sum / config.n_kept,
        "divergences": divergences,
        "warmup_divergences": warmup_divergences,
        "step_size": eps,
    }


def _gev_shape_series(z, ez, tau):
    # the shape gradient to first order in tau, in the model's order of operations
    z2 = z * z
    z3 = z2 * z
    return -z + 0.5 * z2 * (1.0 - ez) + tau * (z2 - 2.0 / 3.0 * z3 - ez * (0.25 * z2 * z2 - 2.0 / 3.0 * z3))


def _gev_value_grad(v: np.ndarray, y: np.ndarray, prior: GevPriorSpec, want_grad: bool):
    mu, lsig, tau = float(v[0]), float(v[1]), float(v[2])
    with np.errstate(over="ignore", invalid="ignore", divide="ignore", under="ignore"):
        sig = np.exp(lsig)
        z = (y - mu) / sig
        n = y.size
        grad = np.zeros(3)
        if abs(tau) < _GEV_LIMIT_EPS:
            ez = np.exp(-z)
            loglik = float(-n * lsig - np.sum(z) - np.sum(ez))
            if want_grad:
                grad[0] = np.sum(1.0 - ez) / sig
                grad[1] = np.sum(-1.0 + z * (1.0 - ez))
                grad[2] = np.sum(_gev_shape_series(z, ez, tau))
        else:
            t = 1.0 + tau * z
            if np.any(t <= 0.0):
                return -np.inf, np.zeros(3)
            logt = np.log1p(tau * z)
            w = np.exp(-logt / tau)  # t^(-1/tau)
            loglik = float(-n * lsig - (1.0 + 1.0 / tau) * np.sum(logt) - np.sum(w))
            if want_grad:
                tauA = -(tau + 1.0) / t + w / t  # tau * dloglik_i/dt_i
                grad[0] = -np.sum(tauA) / sig
                grad[1] = np.sum(-1.0 - z * tauA)
                if abs(tau) < _GEV_GRAD_EPS:
                    ez = np.exp(-z)
                    grad[2] = np.sum(_gev_shape_series(z, ez, tau))
                else:
                    grad[2] = np.sum(logt * (1.0 - w) / tau**2 + z * tauA / tau)

        logp = (
            loglik
            + prior.loc.logpdf(mu)
            + (
                prior.scale.shape * lsig
                - np.exp(lsig) / prior.scale.scale
                - gammaln(prior.scale.shape)
                - prior.scale.shape * np.log(prior.scale.scale)
            )
            + prior.shape.logpdf(tau)
        )
        if not np.isfinite(logp):
            return -np.inf, np.zeros(3)
        if want_grad:
            grad[0] += prior.loc.score(mu)
            grad[1] += prior.scale.score_unconstrained(lsig)
            grad[2] += prior.shape.score(tau)
            if not np.all(np.isfinite(grad)):
                return -np.inf, np.zeros(3)
        return logp, grad



class _CompiledHmev:
    def __init__(self, events: Sequence[np.ndarray], trials: int):
        self.J = len(events)
        self.trials = trials
        self.n_b = np.array([np.asarray(e).size for e in events], dtype=float)
        if np.any(self.n_b > trials):
            raise ValueError("block event count exceeds trials_per_block")
        logs, ids = [], []
        self.slx_b = np.zeros(self.J)
        for j, mags in enumerate(events):
            arr = np.asarray(mags, dtype=float)
            if np.any(arr <= 0.0):
                raise ValueError("magnitudes must be strictly positive")
            if arr.size:
                lx = np.log(arr)
                logs.append(lx)
                ids.append(np.full(arr.size, j, dtype=np.int64))
                self.slx_b[j] = lx.sum()
        self.logx = np.concatenate(logs) if logs else np.zeros(0)
        self.block_of_event = np.concatenate(ids) if ids else np.zeros(0, dtype=np.int64)
        n, N = self.n_b, float(trials)
        self.binom_const = float(
            np.sum(gammaln(N + 1.0) - gammaln(n + 1.0) - gammaln(N - n + 1.0))
        )


def _hmev_value_grad(
    v: np.ndarray,
    c: _CompiledHmev,
    prior: HmevPriorSpec,
    want_grad: bool,
    want_parts: bool = False,
):
    layout = HmevLayout(c.J)
    lmg, lsg, lmd, lsd, llam = v[:5]
    ug = v[layout.log_gamma]
    ud = v[layout.log_delta]
    with np.errstate(over="ignore", invalid="ignore", divide="ignore", under="ignore"):
        mu_g, sig_g = np.exp(lmg), np.exp(lsg)
        mu_d, sig_d = np.exp(lmd), np.exp(lsd)
        lam = expit(llam)
        gam, dlt = np.exp(ug), np.exp(ud)

        gam_e = gam[c.block_of_event]
        a_e = gam_e * (c.logx - ud[c.block_of_event])
        t_e = np.exp(a_e)
        T1, U = np.zeros(c.J), np.zeros(c.J)
        blocks = np.flatnonzero(c.n_b)  # the non-empty blocks, summed by their runs
        if blocks.size:
            starts = np.searchsorted(c.block_of_event, blocks)
            T1[blocks] = np.add.reduceat(t_e, starts)
            U[blocks] = np.add.reduceat(t_e * c.logx, starts)
        weibull = float(
            np.sum(c.n_b * ug - c.n_b * ud + (gam - 1.0) * (c.slx_b - c.n_b * ud)) - t_e.sum()
        )

        z1 = (gam - mu_g) / sig_g
        z2 = (dlt - mu_d) / sig_d
        e1, e2 = np.exp(-z1), np.exp(-z2)
        latent = float(-c.J * (lsg + lsd) - np.sum(z1 + e1) - np.sum(z2 + e2))

        N = float(c.trials)
        sum_n = float(c.n_b.sum())
        binom = float(
            sum_n * log_expit(llam) + (c.J * N - sum_n) * log_expit(-llam) + c.binom_const
        )

        prior_terms = (
            prior.mu_gamma.log_density_unconstrained(lmg)
            + prior.sigma_gamma.log_density_unconstrained(lsg)
            + prior.mu_delta.log_density_unconstrained(lmd)
            + prior.sigma_delta.log_density_unconstrained(lsd)
            + prior.event_rate.log_density_unconstrained(llam)
        )
        jacobian = float(np.sum(ug) + np.sum(ud))
        logp = weibull + latent + binom + prior_terms + jacobian
        if not np.isfinite(logp):
            logp = -np.inf

        parts = None
        if want_parts:
            parts = {
                "weibull": weibull,
                "binomial": binom,
                "latent_gumbel": latent,
                "latent_jacobian": jacobian,
                "prior": float(prior_terms),
            }
        if not want_grad:
            return logp, None, parts

        grad = np.zeros(layout.dim)
        if np.isfinite(logp):
            T2 = U - ud * T1
            grad[layout.log_gamma] = (
                c.n_b + gam * (c.slx_b - c.n_b * ud - T2) + gam * (e1 - 1.0) / sig_g + 1.0
            )
            grad[layout.log_delta] = gam * (T1 - c.n_b) + dlt * (e2 - 1.0) / sig_d + 1.0
            grad[layout.log_mu_gamma] = float(
                mu_g * np.sum(1.0 - e1) / sig_g + prior.mu_gamma.score_unconstrained(lmg)
            )
            grad[layout.log_mu_delta] = float(
                mu_d * np.sum(1.0 - e2) / sig_d + prior.mu_delta.score_unconstrained(lmd)
            )
            grad[layout.log_sigma_gamma] = float(
                np.sum(-1.0 + z1 * (1.0 - e1)) + prior.sigma_gamma.score_unconstrained(lsg)
            )
            grad[layout.log_sigma_delta] = float(
                np.sum(-1.0 + z2 * (1.0 - e2)) + prior.sigma_delta.score_unconstrained(lsd)
            )
            grad[layout.logit_lambda] = float(
                sum_n - c.J * N * lam + prior.event_rate.score_unconstrained(llam)
            )
            if not np.all(np.isfinite(grad)):
                logp, grad = -np.inf, np.zeros(layout.dim)
        return logp, grad, parts


def oracle_run_hmc(target, config, init):
    """``run_hmc`` as it was: each chain sampled on its own, one after
    another, with the streams spawned from ``config.seed``; returns the
    merged draws and the per-chain statistics."""
    init = np.atleast_2d(np.asarray(init, dtype=float))
    streams = [np.random.default_rng(s) for s in np.random.SeedSequence(config.seed).spawn(config.n_chains)]
    results = [_run_chain(target, config, init[c], streams[c]) for c in range(config.n_chains)]
    return {
        "draws": np.concatenate([r["draws"] for r in results], axis=0),
        "accept_prob": np.array([r["accept_prob"] for r in results]),
        "divergences": np.array([r["divergences"] for r in results]),
        "step_sizes": np.array([r["step_size"] for r in results]),
    }


def oracle_gev_target(target):
    """``GevTarget``'s value and gradient by the former one-row kernel."""
    return lambda v: _gev_value_grad(np.asarray(v, dtype=float), target.maxima, target.prior, True)


def oracle_hmev_target(target, events, trials):
    """``HmevTarget``'s value and gradient by the former one-row kernel."""
    c = _CompiledHmev(events, trials)
    return lambda v: _hmev_value_grad(np.asarray(v, dtype=float), c, target.prior, True)[:2]


# ---------------------------------------------------------------------------
# The split-chain diagnostics on stacked copies of the draws
# ---------------------------------------------------------------------------
#
# Kept verbatim as the bit-for-bit reference for ``shmev.hmc.rhat_ess``,
# which takes one split chain at a time.

def split_chains(x: np.ndarray) -> np.ndarray:
    """(M, N, dim) -> (2M, N//2, dim), dropping the middle draw when N is odd."""
    m, n, dim = x.shape
    half = n // 2
    return np.concatenate([x[:, :half], x[:, n - half:]], axis=0)


def stacked_autocovariance(x: np.ndarray) -> np.ndarray:
    """Biased autocovariance along axis 1 via FFT; x is (chains, n, dim)."""
    n = x.shape[1]
    centered = x - x.mean(axis=1, keepdims=True)
    size = 2 ** int(np.ceil(np.log2(2 * n)))
    f = np.fft.rfft(centered, n=size, axis=1)
    acov = np.fft.irfft(f * np.conj(f), n=size, axis=1)[:, :n]
    return acov.real / n


def stacked_rhat_ess(draws):
    """``rhat_ess`` as it was: every split chain copied into one stacked
    array, and one FFT over all of them."""
    if isinstance(draws, PosteriorDraws):
        x = draws.by_chain()
    else:
        x = np.asarray(draws, dtype=float)
        if x.ndim == 2:
            x = x[:, :, None]
    m, n, dim = x.shape
    if m < 2:
        return None, None, None
    if n < 4:
        raise ValueError("need at least 4 post-warmup draws per chain")

    s = split_chains(x)  # (2M, half, dim)
    n_half = s.shape[1]
    means = s.mean(axis=1)                      # (2M, dim)
    variances = s.var(axis=1, ddof=1)           # (2M, dim)
    w = variances.mean(axis=0)                  # within-chain
    b = n_half * means.var(axis=0, ddof=1)      # between-chain
    degenerate = w <= 0.0
    w_safe = np.where(degenerate, 1.0, w)
    var_plus = (n_half - 1.0) / n_half * w + b / n_half
    rhat = np.sqrt(np.where(degenerate, 1.0, var_plus / w_safe))

    acov = stacked_autocovariance(s)            # (2M, half, dim)
    tau_t = acov.mean(axis=0)                   # (half, dim)
    var_plus_safe = np.where(var_plus <= 0.0, 1.0, var_plus)
    rho = 1.0 - (w - tau_t) / var_plus_safe     # (half, dim)
    rho[0] = 1.0
    total = m * n
    max_pairs = (n_half - 1) // 2
    pairs = rho[0:2 * max_pairs:2] + rho[1:2 * max_pairs:2]   # (max_pairs, dim)
    kept = np.logical_and.accumulate(~(pairs < 0.0), axis=0)
    terms = np.where(kept, np.minimum.accumulate(pairs, axis=0), 0.0)
    pair_sum = np.cumsum(np.vstack([np.zeros(dim), terms]), axis=0)[-1]
    tau = np.maximum(-1.0 + 2.0 * pair_sum, 1.0 / total)
    ess = np.where(degenerate, np.nan, total / tau)
    return rhat, ess, degenerate


def per_draw_quantiles_reference(est, probs):
    """``MaximaCdfEstimate.per_draw_quantiles`` as it was before the draws of
    many estimates were solved together in row chunks: one estimate, all its
    draws at once, under the solver's current ``_CDF_TOL`` and
    ``_MAX_EXTENSIONS``.  The chunked solver must equal it bit for bit."""
    probs = np.atleast_1d(np.asarray(probs, dtype=float))
    if np.any(probs <= 0.0) or np.any(probs >= 1.0):
        raise ValueError("probabilities must lie in (0, 1)")
    tol, max_extensions = predictive._CDF_TOL, predictive._MAX_EXTENSIONS
    levels, inverse = np.unique(probs, return_inverse=True)
    b = est.n_draws
    out = np.empty((b, levels.size))

    hi_global = np.full(b, float(est.y[-1]))
    pmax = float(levels[-1])
    for _ in range(max_extensions):
        short = est.cdf_at(hi_global) < pmax
        if not short.any():
            break
        hi_global[short] *= 2.0
    else:
        raise ConvergenceError(
            f"target probability {pmax} unreachable after "
            f"{max_extensions} grid extensions"
        )

    lo = np.zeros(b)
    # the smallest probability starts midway, in log y, inside the grid
    x = np.sqrt(est.y[0] * hi_global)
    g, dg = est.blocks.cdf_kernel(x, slope=True)
    for k, p in enumerate(levels):
        hi = hi_global.copy()
        act = np.arange(b)
        for _ in range(200):
            below = g[act] < p
            lo[act] = np.where(below, x[act], lo[act])
            hi[act] = np.where(below, hi[act], x[act])
            stop = np.abs(g[act] - p) < tol
            stop |= (hi[act] - lo[act]) <= 1e-12 * np.maximum(hi[act], 1.0)
            act = act[~stop]
            if act.size == 0:
                break
            with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
                step = x[act] * np.exp((p - g[act]) / dg[act])
            inside = (lo[act] < step) & (step < hi[act])
            x[act] = np.where(inside, step, 0.5 * (lo[act] + hi[act]))
            rows = BlockDraws(gamma=est.blocks.gamma[act], delta=est.blocks.delta[act], n=est.blocks.n[act])
            g[act], dg[act] = rows.cdf_kernel(x[act], slope=True)
        out[:, k] = x
        lo = x.copy()  # the next, larger probability's lower bracket
    return out[:, inverse]
