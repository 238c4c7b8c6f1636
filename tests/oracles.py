"""Independent reference implementations used as test oracles.

Everything here is a straight-line re-implementation with scalar ``math``
loops over every observation, deliberately sharing no code with the
vectorized package internals, except ``take_shmev_value_grad``: the former
vectorized spatial kernel, kept as the bit-for-bit reference for the
current one.
"""
import csv
import datetime as dt
import math
from pathlib import Path

import numpy as np

from shmev.errors import DataError
from shmev.ingest import QcLedger
from shmev.special import expit, log_expit_pair


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


def take_shmev_value_grad(v, target):
    """``ShmevTarget``'s value and gradient with every event's log delta and
    gamma gathered by ``np.take`` over a per-event block index: the spatial
    kernel as it was before the gather went by block runs."""
    c, prior, layout = target._compiled, target.prior, target.layout
    dataset = target.dataset
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
        log_lam, log_1m_lam = log_expit_pair(ell)
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
