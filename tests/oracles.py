"""Independent reference implementations used as test oracles.

Everything here is a straight-line re-implementation with scalar ``math``
loops over every observation, deliberately sharing no code with the
vectorized package internals.
"""
import csv
import datetime as dt
import math
from pathlib import Path

import numpy as np

from shmev.errors import DataError
from shmev.ingest import QcLedger


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
            for lineno, row in enumerate(reader, start=2):
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
