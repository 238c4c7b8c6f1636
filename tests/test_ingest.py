import csv
import datetime as dt

import numpy as np
import pytest
from scipy.optimize import bisect
from scipy.special import gammaln

from shmev.data import Dataset, SiteCovariates
from shmev.errors import ConvergenceError, DataError
from shmev.ingest import (
    _MOM_BRACKET,
    ElicitationRules,
    QcPolicy,
    _bisect,
    _log_cv2_plus_one,
    build_dataset,
    convert_ghcn_dly,
    dataset_to_rows,
    elicit_hmev_priors,
    elicit_priors,
    load_and_qc,
    read_covariate_file,
    read_event_file,
    training_events,
    weibull_mom,
    write_covariate_file,
    write_event_file,
)
from shmev.model import InverseGammaPrior
from shmev.simulate import ScenarioConfig, simulate_scenario

PERMISSIVE = QcPolicy(max_missing_days=366, min_retained_years=0)


def daily_rows(station, year, wet_prob=0.3, rng=None, missing_days=0, flag_days=0):
    """One calendar year of daily rows with the requested gaps and flags."""
    rng = rng or np.random.default_rng(abs(hash((station, year))) % 2**32)
    start = dt.date(year, 1, 1)
    n_days = (dt.date(year + 1, 1, 1) - start).days
    rows = []
    for i in range(n_days):
        date = start + dt.timedelta(days=i)
        if i < missing_days:
            continue
        flag = "X" if i >= n_days - flag_days else ""
        value = float(rng.weibull(0.8) * 10.0) if rng.random() < wet_prob else 0.0
        rows.append((station, date, value, flag))
    return rows


def write_events(path, rows):
    return write_event_file(path, rows)


class TestQualityControl:
    def test_year_over_missing_budget_dropped(self, tmp_path):
        rows = daily_rows("A", 2000, missing_days=31) + daily_rows("A", 2001, missing_days=30)
        path = write_events(tmp_path / "e.csv", rows)
        records, ledger = load_and_qc(path, QcPolicy(max_missing_days=30, min_retained_years=0))
        years = sorted(set(records[0].years()))
        assert years == [2001]
        assert any(e["code"] == "YEAR_MISSING_BUDGET" and e["year"] == 2000 for e in ledger.entries)

    def test_station_year_minimum_is_strict(self, tmp_path):
        rows = []
        for year in range(1900, 1973):  # 73 years
            rows += daily_rows("SHORT", year)
        for year in range(1900, 1974):  # 74 years
            rows += daily_rows("LONG", year)
        path = write_events(tmp_path / "e.csv", rows)
        records, ledger = load_and_qc(path, QcPolicy(max_missing_days=30, min_retained_years=73))
        assert [r.station for r in records] == ["LONG"]
        assert any(
            e["station"] == "SHORT" and e["code"] == "STATION_TOO_SHORT" for e in ledger.entries
        )

    def test_blank_flags_mean_no_removals(self, tmp_path):
        rows = daily_rows("A", 2000) + daily_rows("A", 2001)
        path = write_events(tmp_path / "e.csv", rows)
        _, ledger = load_and_qc(path, PERMISSIVE)
        assert not any(e["code"] == "FLAGGED_VALUE" for e in ledger.entries)

    def test_flagged_values_removed_and_counted(self, tmp_path):
        rows = daily_rows("A", 2000, flag_days=5)
        path = write_events(tmp_path / "e.csv", rows)
        records, ledger = load_and_qc(path, PERMISSIVE)
        flagged = [e for e in ledger.entries if e["code"] == "FLAGGED_VALUE"]
        assert len(flagged) == 1 and "5 flagged" in flagged[0]["detail"]
        # flagged days count as missing afterward
        assert records[0].dates.size == 366 - 5

    def test_any_nonblank_flag_is_removed(self, tmp_path):
        rows = daily_rows("A", 2000)
        flagged_days = (3, 40, 41, 365)
        for i, flag in zip(flagged_days, ("Q", "0", "a", "X")):
            rows[i] = (*rows[i][:3], flag)
        path = write_events(tmp_path / "e.csv", rows)
        records, ledger = load_and_qc(path, PERMISSIVE)
        details = [e["detail"] for e in ledger.entries if e["code"] == "FLAGGED_VALUE"]
        assert details == ["4 flagged values removed"]
        assert records[0].dates.size == 366 - 4
        assert not set(records[0].dates.tolist()) & {rows[i][1] for i in flagged_days}

    def test_flagged_values_kept_when_drop_flagged_is_off(self, tmp_path):
        rows = daily_rows("A", 2000)
        flagged_days = (3, 40, 41, 365)
        for i, flag in zip(flagged_days, ("Q", "0", "a", "X")):
            rows[i] = (*rows[i][:2], 7.25 + i, flag)
        path = write_events(tmp_path / "e.csv", rows)
        policy = QcPolicy(max_missing_days=366, min_retained_years=0, drop_flagged=False)
        records, ledger = load_and_qc(path, policy)
        assert not any(e["code"] == "FLAGGED_VALUE" for e in ledger.entries)
        assert records[0].dates.size == 366
        kept = dict(zip(records[0].dates.tolist(), records[0].values.tolist()))
        assert [kept[rows[i][1]] for i in flagged_days] == [7.25 + i for i in flagged_days]

    def test_malformed_rows_collected_not_skipped(self, tmp_path):
        path = tmp_path / "e.csv"
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["station", "date", "prcp_mm", "qflag"])
            writer.writerow(["A", "2000-01-01", "1.5", ""])
            writer.writerow(["A", "not-a-date", "1.5", ""])
            writer.writerow(["A", "2000-01-03", "oops", ""])
            writer.writerow(["A", "2000-01-04", "-3.0", ""])
        _, ledger = load_and_qc(path, PERMISSIVE)
        reasons = sorted(r["reason"] for r in ledger.rejects)
        assert reasons == ["negative precipitation", "unparseable date", "unparseable precipitation"]

    def test_qc_is_idempotent(self, tmp_path):
        rows = []
        for year in range(2000, 2010):
            rows += daily_rows("A", year, missing_days=40 if year == 2003 else 0)
        path = write_events(tmp_path / "e.csv", rows)
        policy = QcPolicy(max_missing_days=30, min_retained_years=5)
        records, _ = load_and_qc(path, policy)
        # write the QC output back out and re-apply
        out_rows = [
            (records[0].station, d.astype(dt.date), float(v), "")
            for d, v in zip(records[0].dates, records[0].values)
        ]
        path2 = write_events(tmp_path / "e2.csv", out_rows)
        records2, _ = load_and_qc(path2, policy)
        assert np.array_equal(records[0].dates, records2[0].dates)
        assert np.array_equal(records[0].values, records2[0].values)

    def test_input_file_order_invariance(self, tmp_path):
        rows_a = daily_rows("A", 2000) + daily_rows("A", 2001)
        rows_b = daily_rows("B", 2000) + daily_rows("B", 2001)
        p1 = write_events(tmp_path / "a.csv", rows_a)
        p2 = write_events(tmp_path / "b.csv", rows_b)
        rec_ab, _ = load_and_qc([p1, p2], PERMISSIVE)
        rec_ba, _ = load_and_qc([p2, p1], PERMISSIVE)
        assert [r.station for r in rec_ab] == [r.station for r in rec_ba]
        for a, b in zip(rec_ab, rec_ba):
            assert np.array_equal(a.values, b.values)


class TestBuildDataset:
    def _records(self, tmp_path, n_stations=25, n_years=21):
        rng = np.random.default_rng(1)
        rows = []
        cov = {}
        for i in range(n_stations):
            station = f"ST{i:02d}"
            for year in range(2000, 2000 + n_years):
                rows += daily_rows(station, year, rng=rng)
            cov[station] = {
                "lat": 34.0 + rng.random(),
                "lon": -80.0 + rng.random(),
                "alt_m": 100.0 * rng.random(),
                "dist_coast_km": 200.0 * rng.random(),
            }
        path = write_events(tmp_path / "e.csv", rows)
        records, _ = load_and_qc(path, PERMISSIVE, cov)
        return records

    def test_paper_scale_dataset_dimensions(self, tmp_path):
        records = self._records(tmp_path)
        dataset = build_dataset(records, 20, ["lat", "lon", "alt_m", "dist_coast_km"])
        assert dataset.n_sites == 25
        assert dataset.n_blocks == 20
        assert dataset.n_covariates == 4

    def test_standardization_is_exact(self, tmp_path):
        records = self._records(tmp_path, n_stations=8, n_years=4)
        dataset = build_dataset(records, 3, ["lat", "alt_m"])
        z = dataset.design_matrix()
        assert np.all(z[:, 0] == 1.0)
        assert np.max(np.abs(z[:, 1:].mean(axis=0))) < 1e-12
        assert np.max(np.abs(z[:, 1:].std(axis=0) - 1.0)) < 1e-12

    def test_missing_covariate_is_structural_error(self, tmp_path):
        records = self._records(tmp_path, n_stations=3, n_years=3)
        with pytest.raises(DataError, match="lacks covariates"):
            build_dataset(records, 2, ["lat", "nope"])

    def test_short_station_rejected(self, tmp_path):
        records = self._records(tmp_path, n_stations=3, n_years=3)
        with pytest.raises(DataError, match="train window"):
            build_dataset(records, 10, ["lat"])

    def test_precomputed_training_events_give_the_same_dataset(self, tmp_path):
        records = self._records(tmp_path, n_stations=4, n_years=5)
        events = [training_events(rec, 4) for rec in records]
        given = build_dataset(records, 4, ["lat", "alt_m"], events=events)
        built = build_dataset(records, 4, ["lat", "alt_m"])
        assert given.design_matrix().tobytes() == built.design_matrix().tobytes()
        for given_row, built_row in zip(given.events, built.events, strict=True):
            assert [m.tobytes() for m in given_row] == [m.tobytes() for m in built_row]

    def test_simulated_roundtrip_is_identity(self, tmp_path):
        synth = simulate_scenario(ScenarioConfig(n_sites=4, train_blocks=3, test_blocks=2, seed=13))
        rows = dataset_to_rows(synth.train)
        path = write_events(tmp_path / "sim.csv", rows)
        cov = {site.station: dict(site.raw) for site in synth.train.sites}
        records, _ = load_and_qc(path, PERMISSIVE, cov)
        rebuilt = build_dataset(records, 3, ["z1", "z2"])
        assert rebuilt.n_sites == synth.train.n_sites
        for s in range(rebuilt.n_sites):
            for j in range(rebuilt.n_blocks):
                assert np.array_equal(
                    np.sort(rebuilt.events[s][j]), np.sort(synth.train.events[s][j])
                )
        assert np.allclose(rebuilt.design_matrix(), synth.train.design_matrix())


class TestWeibullMom:
    def test_unit_cv_is_exponential(self):
        sample = np.array([2.0 - np.sqrt(2.0), 2.0 + np.sqrt(2.0)])
        mom = weibull_mom(sample)
        assert mom.shape == pytest.approx(1.0, abs=1e-9)
        assert mom.scale == pytest.approx(2.0, abs=1e-9)

    def test_parameter_recovery(self, rng):
        sample = 10.5 * rng.weibull(0.86, size=100_000)
        mom = weibull_mom(sample)
        assert abs(mom.shape - 0.86) / 0.86 < 0.01
        assert abs(mom.scale - 10.5) / 10.5 < 0.01

    def test_constant_sample_rejected(self):
        with pytest.raises(ValueError):
            weibull_mom(np.full(10, 3.0))

    def test_cv_outside_bracket(self):
        # nearly constant positive sample: CV below the shape-20 bound
        sample = np.array([10.0, 10.0001, 9.9999, 10.00005])
        with pytest.raises(ConvergenceError):
            weibull_mom(sample)

    def test_bisection_matches_scipy_bit_for_bit(self):
        # CV targets across the whole shape bracket, both ends included
        lo, hi = _MOM_BRACKET
        for shape in np.geomspace(lo, hi, 301):
            target = _log_cv2_plus_one(shape)

            def f(g):
                return _log_cv2_plus_one(g) - target

            assert _bisect(f, lo, hi, xtol=1e-13) == bisect(f, lo, hi, xtol=1e-13), shape

    def test_moment_roundtrip(self, rng):
        sample = 4.0 * rng.weibull(1.3, size=5_000)
        mom = weibull_mom(sample)
        implied_mean = mom.scale * np.exp(gammaln(1.0 + 1.0 / mom.shape))
        assert implied_mean == pytest.approx(sample.mean(), rel=1e-8)


class TestElicitation:
    def _dataset(self, scales, rng, shape=0.9, n=4000, n_blocks=20):
        sites = []
        events = []
        per_block = n // n_blocks
        for i, scale in enumerate(scales):
            z1 = i / max(len(scales) - 1, 1)
            sites.append(SiteCovariates(f"S{i}", np.array([1.0, z1]), {"z1": z1}))
            mags = scale * rng.weibull(shape, size=n)
            events.append([mags[j * per_block : (j + 1) * per_block] for j in range(n_blocks)])
        return Dataset(sites, list(range(n_blocks)), events, trials_per_block=366)

    def test_scale_intercept_centered_on_mean_of_mom_fits(self, rng):
        dataset = self._dataset([10.0, 11.0], rng)
        prior = elicit_priors(dataset, ElicitationRules())
        per_station = [
            weibull_mom(np.concatenate(dataset.events[s])).scale for s in range(2)
        ]
        assert prior.beta_delta[0].mean == pytest.approx(np.mean(per_station), rel=1e-12)

    def test_symmetric_interval_sd(self, rng):
        dataset = self._dataset([10.0, 11.0], rng)
        rules = ElicitationRules(intervals={"beta_delta[0]": (8.0, 12.0)})
        prior = elicit_priors(dataset, rules)
        center = prior.beta_delta[0].mean
        assert 8.0 < center < 12.0
        expected = max(12.0 - center, center - 8.0) / 1.96
        assert prior.beta_delta[0].sd == pytest.approx(expected, rel=1e-12)
        symmetric = ElicitationRules(
            intervals={"beta_delta[0]": (center - 2.0, center + 2.0)}
        )
        prior2 = elicit_priors(dataset, symmetric)
        assert prior2.beta_delta[0].sd == pytest.approx(4.0 / (2 * 1.96), rel=1e-12)

    def test_inverse_gamma_mean_identity(self):
        prior = InverseGammaPrior.from_mean(2.5)
        assert prior.shape == 3.0
        assert prior.scale == pytest.approx(5.0)
        assert prior.mean == pytest.approx(2.5, rel=1e-15)

    def test_gamma_intercept_defaults_to_geophysical_value(self, rng):
        dataset = self._dataset([10.0, 11.0], rng)
        prior = elicit_priors(dataset)
        assert prior.beta_gamma[0].mean == pytest.approx(2.0 / 3.0)
        # the latent-scale priors mean-match fixed fractions of the centers
        assert prior.sigma_gamma.mean == pytest.approx(0.05 * 2.0 / 3.0)
        assert prior.sigma_delta.mean == pytest.approx(0.25 * prior.beta_delta[0].mean)

    @pytest.mark.parametrize("center", [0.0, -0.5, float("nan")])
    def test_non_positive_gamma_intercept_center_rejected(self, center):
        # a Weibull shape is positive
        with pytest.raises(ValueError, match="gamma_intercept_center must be positive"):
            ElicitationRules(gamma_intercept_center=center)

    def test_collinear_covariate_falls_back_to_wide_zero_prior(self, rng, caplog):
        dataset = self._dataset([10.0, 11.0], rng)
        sites = [
            SiteCovariates(s.station, np.array([1.0, 0.5]), s.raw) for s in dataset.sites
        ]
        flat = Dataset(sites, dataset.blocks, dataset.events, 366)
        import logging

        with caplog.at_level(logging.WARNING):
            prior = elicit_priors(flat)
        assert prior.beta_delta[1].mean == 0.0
        assert prior.beta_delta[1].sd > 5.0 * prior.beta_delta[0].sd / 10.0
        assert any("collinear" in rec.message for rec in caplog.records)

    def test_hmev_rate_prior_centered_on_wet_day_rate(self, rng):
        events = [10.0 * rng.weibull(0.8, size=100) for _ in range(5)]
        prior = elicit_hmev_priors(events, 366)
        rate = prior.event_rate.a / (prior.event_rate.a + prior.event_rate.b)
        assert rate == pytest.approx(500 / (5 * 366), rel=1e-12)


class TestFileFormats:
    def test_event_writer_roundtrip_is_bit_identical(self, tmp_path):
        rng = np.random.default_rng(0)
        rows = daily_rows("A", 2000, rng=rng)
        path = write_events(tmp_path / "e.csv", rows)
        parsed, _ = read_event_file(path)
        dates, values, _ = parsed["A"]
        original = {r[1].isoformat(): r[2] for r in rows}
        for d, v in zip(dates, values):
            assert v == original[str(d)]

    def test_covariate_file_roundtrip(self, tmp_path):
        table = {"A": {"lat": 35.1, "lon": -80.2}, "B": {"lat": 36.0, "lon": -78.5}}
        path = write_covariate_file(tmp_path / "c.csv", ["lat", "lon"], table)
        names, parsed = read_covariate_file(path)
        assert names == ["lat", "lon"]
        assert parsed == table

    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
    def test_non_finite_covariate_rejected(self, tmp_path, bad):
        path = tmp_path / "c.csv"
        path.write_text(f"station,lat,lon\nA,35.1,-80.2\nB,{bad},-78.5\n")
        with pytest.raises(DataError, match="c.csv:3: non-finite covariate"):
            read_covariate_file(path)

    def test_wrong_header_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b,c\n1,2,3\n")
        with pytest.raises(DataError, match="header"):
            read_event_file(path)

    def test_ghcn_converter(self, tmp_path):
        line = (
            "USC00000001" + "2000" + "01" + "PRCP"
            + "".join(
                f"{value:5d}{'':1s}{flag:1s}{'':1s}"
                for value, flag in [(150, ""), (-9999, ""), (25, "X")] + [(0, "")] * 28
            )
        )
        src = tmp_path / "x.dly"
        src.write_text(line + "\n")
        out = convert_ghcn_dly(src, tmp_path / "x.csv")
        parsed, ledger = read_event_file(out)
        dates, values, flagged = parsed["USC00000001"]
        assert values[0] == pytest.approx(15.0)  # tenths of mm -> mm
        assert np.isnan(values[1])
        assert flagged.tolist() == [False, False, True] + [False] * 28
        assert dates.size == 31
