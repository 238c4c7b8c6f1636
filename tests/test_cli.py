import csv
import hashlib
import json
import multiprocessing
import os
import re
import shutil
import subprocess
import sys
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
import yaml

import shmev
from shmev.cli import _diag_dict, load_fit, main, run_command
from shmev.errors import ConfigError, DataError
from shmev.hmc import CHAIN_STATS, PosteriorDraws
from shmev.predictive import PredictiveConfig, default_y_grid, predictive_cdf, shmev_site_params


def write_config(path: Path, body: dict) -> Path:
    path.write_text(yaml.safe_dump(body, sort_keys=False))
    return path


def explicit_prior(n_coefficients: int) -> dict:
    """A full shmev prior, in the form model.json stores one."""
    def normals(mean):
        return [{"mean": mean, "sd": 1.0} for _ in range(n_coefficients)]

    return {
        "beta_gamma": normals(0.7),
        "beta_delta": normals(9.0),
        "beta_lambda": normals(-0.9),
        "sigma_gamma": {"shape": 3.0, "scale": 0.1},
        "sigma_delta": {"shape": 3.0, "scale": 1.0},
    }


def explicit(body: dict) -> dict:
    return body["fit"]["priors"]["explicit"]


def tiny_study_config(base: Path, out: Path) -> Path:
    body = {
        "schema_version": 1,
        "seed": 777,
        "out_dir": str(out),
        "simulate": {
            "scenario": "WEI",
            "sites": 4,
            "train_blocks": 4,
            "test_blocks": 30,
        },
        "fit": {
            "model": "shmev",
            "events": str(out / "simulate" / "events.csv"),
            "covariates": str(out / "simulate" / "covariates.csv"),
            "covariate_columns": ["z1", "z2"],
            "train_blocks": 4,
            "sampler": {
                "chains": 2,
                "iterations": 80,
                "leapfrog_steps": 8,
            },
        },
        "predict": {
            "fit_dir": str(out / "fit"),
            "return_periods": [10, 25],
            "blocks_per_draw": 20,
        },
        "diagnose": {"fit_dir": str(out / "fit")},
        "map": {
            "fit_dir": str(out / "fit"),
            "grid": str(base / "grid.csv"),
            "return_periods": [25],
            "blocks_per_draw": 10,
        },
        "evaluate": {
            "fits": {"shmev": str(out / "fit"), "gev": str(out / "fit_gev")},
            "test_maxima": str(out / "simulate" / "test_maxima.csv"),
            "blocks_per_draw": 20,
        },
    }
    return write_config(base / "study.yaml", body)


@pytest.fixture(scope="module")
def study(tmp_path_factory):
    base = tmp_path_factory.mktemp("study")
    out = base / "runs"
    config = tiny_study_config(base, out)
    run_command("simulate", config, out / "simulate")
    run_command("fit", config, out / "fit")

    gev_cfg = yaml.safe_load(config.read_text())
    gev_cfg["fit"]["model"] = "gev"
    gev_cfg["fit"].pop("covariates")
    gev_cfg["fit"].pop("covariate_columns")
    gev_config = write_config(base / "gev.yaml", gev_cfg)
    run_command("fit", gev_config, out / "fit_gev")

    (base / "grid.csv").write_text("z1,z2\n0.2,0.3\n0.7,0.6\n")
    return base, out, config


class TestEndToEnd:
    def test_simulate_fit_evaluate_pipeline(self, study):
        base, out, config = study
        run_command("evaluate", config, out / "evaluate")
        with open(out / "evaluate" / "evaluation.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        models = {r[1] for r in rows[1:]}
        assert models == {"shmev", "gev"}
        assert any(r[0] == "median" for r in rows)
        for cmd in ("simulate", "fit", "evaluate"):
            manifest = json.loads((out / cmd / "manifest.json").read_text())
            assert manifest["command"] == cmd
            assert manifest["seed"] == 777
            for artifact in manifest["artifacts"]:
                assert (out / cmd / artifact["path"]).exists()

    def test_predict_and_diagnose_and_map(self, study):
        base, out, config = study
        run_command("predict", config, out / "predict")
        with open(out / "predict" / "predictions.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["station", "T", "rl_mean", "rl_q05", "rl_q95"]
        assert len(rows) == 1 + 4 * 2  # stations x periods
        by_station = {}
        for r in rows[1:]:
            by_station.setdefault(r[0], []).append(float(r[2]))
        for values in by_station.values():
            assert values[1] >= values[0]  # monotone in the return period

        run_command("diagnose", config, out / "diagnose")
        assert (out / "diagnose" / "trace.csv").exists()
        assert (out / "diagnose" / "diagnostics.csv").exists()

        run_command("map", config, out / "map")
        with open(out / "map" / "return_levels.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["z1", "z2", "T", "rl_mean", "rl_q05", "rl_q95"]
        assert len(rows) == 3
        meta = json.loads((out / "map" / "return_levels.csv.meta.json").read_text())
        assert meta["seed"] == 777
        assert meta["blocks_per_draw"] == 10

    @pytest.mark.parametrize("model", ["shmev", "gev"])
    def test_fit_artifact_reload(self, study, model):
        base, out, config = study
        fit_dir = out / {"shmev": "fit", "gev": "fit_gev"}[model]
        fitted = load_fit(fit_dir)
        assert fitted.kind == model
        assert (fitted.snapshot is not None) == (model == "shmev")
        assert len(fitted.stations) == 4
        # the spatial fit is one posterior at the top, a per-site fit one per
        # station under sites/<station>/
        keys = [""] if model == "shmev" else fitted.stations
        assert list(fitted.posteriors) == keys
        posterior_dirs = [""] if model == "shmev" else [f"sites/{s}/" for s in fitted.stations]
        files = {p.relative_to(fit_dir).as_posix() for p in fit_dir.rglob("*") if p.is_file()}
        assert files == {"manifest.json", "model.json", "qc_ledger.csv", "summary.csv"} | {
            d + "draws.npy" for d in posterior_dirs
        }
        for post in fitted.posteriors.values():
            assert post.n_chains == 2
            assert post.n_kept_per_chain == 40
            assert post.draws.shape[0] == 2 * 40

    @pytest.mark.parametrize("model", ["shmev", "gev"])
    def test_model_json_holds_each_chains_counts(self, study, model):
        base, out, config = study
        fit_dir = out / {"shmev": "fit", "gev": "fit_gev"}[model]
        meta = json.loads((fit_dir / "model.json").read_text())
        fitted = load_fit(fit_dir)
        for key, post in fitted.posteriors.items():
            diag = meta["diagnostics"] if model == "shmev" else meta["diagnostics"][key]
            assert diag["grad_evals"] == post.grad_evals.tolist()
            assert diag["warmup_divergences"] == post.warmup_divergences.tolist()
            # the initial gradient, the step-size search and at least one
            # leapfrog step per iteration
            assert len(diag["grad_evals"]) == post.n_chains
            assert all(n >= 2 + meta["sampler"]["iterations"] for n in diag["grad_evals"])

    def test_fit_of_the_former_schema_is_data_error(self, study, tmp_path):
        # schema 1 had no per-chain counts in its diagnostics
        base, out, config = study
        meta = json.loads((out / "fit" / "model.json").read_text())
        meta["schema_version"] = 1
        (tmp_path / "model.json").write_text(json.dumps(meta))
        with pytest.raises(DataError, match="schema_version 1"):
            load_fit(tmp_path)

    def test_hmev_fit_runs_per_site(self, study):
        base, out, config = study
        body = yaml.safe_load(config.read_text())
        body["fit"]["model"] = "hmev"
        body["fit"]["sampler"]["iterations"] = 60
        hmev_config = write_config(base / "hmev.yaml", body)
        run_command("fit", hmev_config, out / "fit_hmev")
        fitted = load_fit(out / "fit_hmev")
        assert fitted.kind == "hmev"
        assert sorted(fitted.posteriors) == fitted.stations
        assert len(fitted.stations) == 4
        for post in fitted.posteriors.values():
            assert post.draws.shape == (2 * 30, 5 + 2 * 4)

    def test_diagnose_short_chains_leaves_rhat_empty(self, study, tmp_path):
        base, out, config = study
        body = yaml.safe_load(config.read_text())
        body["fit"]["sampler"]["iterations"] = 6  # three kept draws per chain
        body["diagnose"]["fit_dir"] = str(tmp_path / "fit")
        short_config = write_config(tmp_path / "short.yaml", body)
        assert main(["fit", "--config", str(short_config), "--out", str(tmp_path / "fit")]) == 0
        assert main(["diagnose", "--config", str(short_config), "--out", str(tmp_path / "diagnose")]) == 0
        with open(tmp_path / "diagnose" / "diagnostics.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert rows
        assert all(r["rhat"] == "" and r["ess"] == "" and r["degenerate"] == "" for r in rows)

    def test_map_predicts_a_stations_covariates_like_the_station(self, study, tmp_path):
        # a grid point at a station's raw covariates is standardised to the
        # station's row, and its levels are the station's quantiles under the
        # map's pooled bracket and first stream, bit for bit
        base, out, config = study
        fitted = load_fit(out / "fit")
        site = fitted.meta["sites"][1]
        raw = [site["raw"][name] for name in fitted.snapshot.names]
        (tmp_path / "grid.csv").write_text("z1,z2\n" + ",".join(map(repr, raw)) + "\n")
        body = yaml.safe_load(config.read_text())
        body["map"].update(grid=str(tmp_path / "grid.csv"), return_periods=[50, 10])
        run_command("map", write_config(tmp_path / "map.yaml", body), tmp_path / "map")
        with open(tmp_path / "map" / "return_levels.csv", newline="") as fh:
            rows = list(csv.reader(fh))[1:]

        draws, z, _ = fitted.site(site["station"])
        bracket = default_y_grid(fitted.magnitude_range())
        config_ = PredictiveConfig(blocks_per_draw=10, trials_per_block=fitted.meta["trials_per_block"])
        stream = np.random.SeedSequence(777).spawn(1)[0]
        est = predictive_cdf(shmev_site_params(draws, fitted.shmev_layout(), z), bracket, config_,
                             np.random.default_rng(stream))
        q = est.per_draw_quantiles([0.9, 0.98])
        assert rows == [
            [repr(float(v)) for v in (*raw, period, q[:, t].mean(), np.quantile(q[:, t], 0.05),
                                      np.quantile(q[:, t], 0.95))]
            for t, period in enumerate([10.0, 50.0])
        ]

    def test_covariate_name_that_needs_quoting_survives_map(self, study, tmp_path):
        base, out, config = study
        with open(out / "simulate" / "covariates.csv", newline="") as fh:
            table = list(csv.reader(fh))
        table[0] = ["station", "alt,m", "z2"]
        with open(tmp_path / "covariates.csv", "w", newline="") as fh:
            csv.writer(fh).writerows(table)
        (tmp_path / "grid.csv").write_text('"alt,m",z2\n0.2,0.3\n0.7,0.6\n')
        body = yaml.safe_load(config.read_text())
        body["fit"].update(covariates=str(tmp_path / "covariates.csv"), covariate_columns=["alt,m", "z2"])
        body["fit"]["sampler"]["iterations"] = 20
        body["map"].update(fit_dir=str(tmp_path / "fit"), grid=str(tmp_path / "grid.csv"))
        quoted = write_config(tmp_path / "quoted.yaml", body)
        run_command("fit", quoted, tmp_path / "fit")
        run_command("map", quoted, tmp_path / "map")
        with open(tmp_path / "map" / "return_levels.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["alt,m", "z2", "T", "rl_mean", "rl_q05", "rl_q95"]
        assert [row[:3] for row in rows[1:]] == [["0.2", "0.3", "25.0"], ["0.7", "0.6", "25.0"]]

    @pytest.mark.parametrize("model", ["shmev", "hmev", "gev"])
    def test_one_warmup_iteration_fits(self, study, tmp_path, capsys, model):
        # the smallest run the config accepts; a divergent warmup iteration
        # (as in the hmev and gev fits here) is too little evidence to abort on
        base, out, config = study
        body = yaml.safe_load(config.read_text())
        body["fit"]["model"] = model
        body["fit"]["sampler"]["iterations"] = 2
        if model == "gev":
            body["fit"].pop("covariates")
            body["fit"].pop("covariate_columns")
        short_config = write_config(tmp_path / "short.yaml", body)
        assert main(["fit", "--config", str(short_config), "--out", str(tmp_path / "fit")]) == 0
        assert capsys.readouterr().err == ""
        fitted = load_fit(tmp_path / "fit")
        assert {post.draws.shape[0] for post in fitted.posteriors.values()} == {2}


class TestDeterminism:
    def test_identical_config_and_seed_give_byte_identical_artifacts(self, tmp_path):
        out = tmp_path / "runs"
        config = tiny_study_config(tmp_path, out)
        run_command("simulate", config, out / "simulate")
        run_command("fit", config, out / "fit")
        alt = tmp_path / "again"
        run_command("simulate", config, alt / "simulate")
        # rewire the fit inputs at the second location
        body = yaml.safe_load(config.read_text())
        body["fit"]["events"] = str(alt / "simulate" / "events.csv")
        body["fit"]["covariates"] = str(alt / "simulate" / "covariates.csv")
        config2 = write_config(tmp_path / "study2.yaml", body)
        run_command("fit", config2, alt / "fit")
        for sub in ("simulate", "fit"):
            first = sorted((out / sub).rglob("*"))
            second = sorted((alt / sub).rglob("*"))
            rel_first = [p.relative_to(out / sub) for p in first if p.is_file()]
            rel_second = [p.relative_to(alt / sub) for p in second if p.is_file()]
            assert rel_first == rel_second
            for rel in rel_first:
                if rel.name == "manifest.json":
                    # manifests differ only through the rewired input paths:
                    # the artifact hashes themselves must agree exactly
                    a = json.loads((out / sub / rel).read_text())
                    b = json.loads((alt / sub / rel).read_text())
                    assert a["artifacts"] == b["artifacts"]
                else:
                    assert (out / sub / rel).read_bytes() == (alt / sub / rel).read_bytes(), rel

    @pytest.mark.parametrize(
        "model, stations",
        [
            pytest.param("shmev", None, id="shmev"),
            pytest.param("hmev", None, id="hmev"),
            pytest.param("gev", None, id="gev"),
            # 6 chain rows: 3 workers take 2 each, 2 workers split a station
            pytest.param("hmev", 3, id="hmev-3-stations"),
            pytest.param("gev", 3, id="gev-3-stations"),
        ],
    )
    def test_worker_count_does_not_change_fit_artifacts(self, study, tmp_path, model, stations):
        base, out, config = study
        body = yaml.safe_load(config.read_text())
        body["fit"]["model"] = model
        if model == "gev":
            body["fit"].pop("covariates")
            body["fit"].pop("covariate_columns")
        if stations is not None:
            body["fit"]["stations"] = [f"S{s + 1:02d}" for s in range(stations)]
        model_config = write_config(tmp_path / f"{model}.yaml", body)
        manifests = []
        for threads in ("1", "2", "3"):
            fit_dir = tmp_path / f"fit_{threads}"
            code = main(["fit", "--config", str(model_config), "--out", str(fit_dir), "--threads", threads])
            assert code == 0
            assert multiprocessing.active_children() == []
            manifests.append((fit_dir / "manifest.json").read_bytes())
        assert manifests[0] == manifests[1] == manifests[2]
        if stations is not None:
            assert sorted(p.name for p in (tmp_path / "fit_1" / "sites").iterdir()) == body["fit"]["stations"]

    def test_worker_count_does_not_change_predictive_artifacts(self, study, tmp_path):
        base, out, config = study
        for command in ("predict", "map", "evaluate"):
            manifests = []
            for threads in ("1", "2"):
                cmd_dir = tmp_path / f"{command}_{threads}"
                code = main([command, "--config", str(config), "--out", str(cmd_dir), "--threads", threads])
                assert code == 0
                assert multiprocessing.active_children() == []
                manifests.append((cmd_dir / "manifest.json").read_bytes())
            assert manifests[0] == manifests[1], command


class TestValidation:
    def test_negative_blocks_per_draw_fails_before_any_work(self, tmp_path, capsys):
        out = tmp_path / "runs"
        config = tiny_study_config(tmp_path, out)
        body = yaml.safe_load(config.read_text())
        body["predict"]["blocks_per_draw"] = -5
        bad = write_config(tmp_path / "bad.yaml", body)
        code = main(["predict", "--config", str(bad), "--out", str(out / "p")])
        assert code == 2
        err = json.loads(capsys.readouterr().err.strip())
        assert err["error"] == "ConfigError"
        assert not (out / "p" / "manifest.json").exists()

    @pytest.mark.parametrize(
        "key, value",
        [
            ("warmup_fraction", 1.5),
            ("warmup_fraction", 0.0),
            ("target_accept", 1.0),
            ("step_jitter", 1.0),
            ("step_jitter", -0.1),
            ("iterations", 1),
        ],
    )
    def test_sampler_range_is_config_error(self, tmp_path, capsys, key, value):
        out = tmp_path / "runs"
        body = yaml.safe_load(tiny_study_config(tmp_path, out).read_text())
        body["fit"]["sampler"][key] = value
        bad = write_config(tmp_path / "bad.yaml", body)
        code = main(["fit", "--config", str(bad), "--out", str(out / "fit")])
        assert code == 2
        err = json.loads(capsys.readouterr().err.strip())
        assert err["error"] == "ConfigError"
        assert err["exit_code"] == 2
        assert err["command"] == "fit"
        assert f"fit.sampler.{key}" in err["message"]
        assert not (out / "fit" / "manifest.json").exists()

    @pytest.mark.parametrize("model", ["shmev", "gev"])
    def test_empty_station_list_is_config_error(self, tmp_path, capsys, model):
        out = tmp_path / "runs"
        body = yaml.safe_load(tiny_study_config(tmp_path, out).read_text())
        body["fit"].update(model=model, stations=[])
        bad = write_config(tmp_path / "bad.yaml", body)
        code = main(["fit", "--config", str(bad), "--out", str(out / "fit")])
        assert code == 2
        err = json.loads(capsys.readouterr().err.strip())
        assert err["error"] == "ConfigError"
        assert "fit.stations" in err["message"]
        assert not (out / "fit" / "manifest.json").exists()

    @pytest.mark.parametrize(
        "command, edit, path",
        [
            # an explicit prior that is malformed
            ("fit", lambda b: explicit(b).pop("beta_gamma"), "fit.priors.explicit"),
            ("fit", lambda b: b["fit"]["priors"].update(explicit=5), "fit.priors.explicit"),
            ("fit", lambda b: explicit(b)["beta_delta"][1].update(sd="wide"), "fit.priors.explicit.beta_delta[1].sd"),
            ("fit", lambda b: explicit(b)["beta_lambda"][0].update(sd=-1.0), "fit.priors.explicit.beta_lambda[0]: "),
            ("fit", lambda b: explicit(b)["sigma_gamma"].update(shape=0.0), "fit.priors.explicit.sigma_gamma: "),
            ("fit", lambda b: explicit(b)["beta_gamma"].pop(), "fit.priors.explicit.beta_gamma"),
            ("fit", lambda b: explicit(b)["sigma_delta"].update(scale=float("nan")), "fit.priors.explicit.sigma_delta.scale"),
            # or one given for a single-site model
            ("fit", lambda b: b["fit"].update(model="hmev"), "fit.priors.mode"),
            ("fit", lambda b: b["fit"].update(model="gev"), "fit.priors.mode"),
            # subsections that are not mappings
            ("fit", lambda b: b["fit"].update(qc=5), "fit.qc"),
            ("fit", lambda b: b["fit"].update(sampler=[1]), "fit.sampler"),
            ("fit", lambda b: b["fit"].update(priors=3), "fit.priors"),
            ("fit", lambda b: b["fit"].update(priors={"intervals": 5}), "fit.priors.intervals"),
            ("evaluate", lambda b: b["evaluate"].update(fits=["fit"]), "evaluate.fits"),
            # a station listed twice, or no station
            (
                "predict",
                lambda b: b["predict"].update(stations=["S01", "S02", "S01"]),
                "predict.stations: repeated station 'S01'",
            ),
            ("predict", lambda b: b["predict"].update(stations=[]), "predict.stations: expected a non-empty list"),
            # keys of mixed types, values that are not finite
            ("fit", lambda b: b["fit"].update(sampler={1: 2, "bogus": 3}), "fit.sampler"),
            ("evaluate", lambda b: b["evaluate"].update(threshold_return_time=float("inf")), "evaluate.threshold_return_time"),
            # elicitation rules out of range
            ("fit", lambda b: b["fit"].update(priors={"interval_fraction": 0.0}), "fit.priors.interval_fraction"),
            ("fit", lambda b: b["fit"].update(priors={"interval_fraction": -0.5}), "fit.priors.interval_fraction"),
            ("fit", lambda b: b["fit"].update(priors={"gamma_intercept_center": 0.0}), "fit.priors.gamma_intercept_center"),
            ("fit", lambda b: b["fit"].update(priors={"gamma_intercept_center": -0.5}), "fit.priors.gamma_intercept_center"),
            (
                "fit",
                lambda b: b["fit"].update(priors={"intervals": {"beta_delta[0]": [12.0, 8.0]}}),
                "fit.priors.intervals.beta_delta[0]",
            ),
            # a library config's own check
            ("simulate", lambda b: b["simulate"].update(scenario="WEI_gp", gp_variance=0), "simulate"),
        ],
    )
    def test_config_mistake_is_config_error(self, tmp_path, capsys, command, edit, path):
        out = tmp_path / "runs"
        body = yaml.safe_load(tiny_study_config(tmp_path, out).read_text())
        body["fit"]["priors"] = {"mode": "explicit", "explicit": explicit_prior(n_coefficients=3)}
        edit(body)
        bad = write_config(tmp_path / "bad.yaml", body)
        code = main([command, "--config", str(bad), "--out", str(out / command)])
        assert code == 2
        err = json.loads(capsys.readouterr().err.strip())
        assert err["error"] == "ConfigError"
        assert err["exit_code"] == 2
        assert err["command"] == command
        assert path in err["message"]
        if command == "simulate":
            assert "gp_variance" in err["message"]
        assert not (out / command / "manifest.json").exists()

    def test_non_positive_simulated_magnitude_is_numeric_error(self, tmp_path, capsys):
        # WEI_gp at seed 11 and the default sizes puts a site's Weibull-shape
        # location below zero, and near-zero block shapes round magnitudes
        # to 0 or inf
        out = tmp_path / "runs"
        body = yaml.safe_load(tiny_study_config(tmp_path, out).read_text())
        body.update(seed=11, simulate={"scenario": "WEI_gp"})
        config = write_config(tmp_path / "gp.yaml", body)
        code = main(["simulate", "--config", str(config), "--out", str(out / "simulate")])
        assert code == 4
        err = json.loads(capsys.readouterr().err.strip())
        assert err == {
            "error": "NumericError",
            "message": "scenario WEI_gp drew a non-finite or non-positive magnitude at site S20, training block 11 of 20",
            "command": "simulate",
            "exit_code": 4,
        }
        assert not (out / "simulate" / "manifest.json").exists()

    @pytest.mark.parametrize("command", ["simulate", "fit"])
    def test_negative_seed_flag_is_config_error(self, tmp_path, capsys, command):
        out = tmp_path / "runs"
        config = tiny_study_config(tmp_path, out)
        code = main([command, "--config", str(config), "--out", str(out / command), "--seed", "-1"])
        assert code == 2
        err = json.loads(capsys.readouterr().err.strip())
        assert err["error"] == "ConfigError"
        assert "--seed" in err["message"]
        assert not (out / command).exists()

    def test_explicit_prior_equal_to_the_elicited_one_gives_the_same_fit(self, study, tmp_path):
        base, out, config = study
        elicited = json.loads((out / "fit" / "model.json").read_text())
        body = yaml.safe_load(config.read_text())
        body["fit"]["priors"] = {"mode": "explicit", "explicit": elicited["priors"]}
        run_command("fit", write_config(tmp_path / "explicit.yaml", body), tmp_path / "fit")
        for name in ("model.json", "draws.npy", "summary.csv"):
            assert (tmp_path / "fit" / name).read_bytes() == (out / "fit" / name).read_bytes(), name

    @pytest.mark.parametrize("model", ["shmev", "hmev", "gev"])
    def test_model_json_priors_hold_each_fitted_prior_by_field(self, study, tmp_path, monkeypatch, model):
        # the layout that fit.priors.explicit reads back
        import shmev.cli as cli

        base, out, config = study
        body = yaml.safe_load(config.read_text())
        body["fit"].update(model=model, stations=["S01", "S02"])
        body["fit"]["sampler"]["iterations"] = 20
        fitted = []
        run_hmc_jobs = cli.run_hmc_jobs

        def capture(jobs, **kwargs):
            fitted.extend(job.target.prior for job in jobs)
            return run_hmc_jobs(jobs, **kwargs)

        monkeypatch.setattr(cli, "run_hmc_jobs", capture)
        run_command("fit", write_config(tmp_path / "fit.yaml", body), tmp_path / "fit")

        def normal(q):
            return {"mean": q.mean, "sd": q.sd}

        def shape_scale(q):
            return {"shape": q.shape, "scale": q.scale}

        def layout(prior):
            if model == "shmev":
                return {
                    **{k: [normal(q) for q in getattr(prior, k)] for k in ("beta_gamma", "beta_delta", "beta_lambda")},
                    "sigma_gamma": shape_scale(prior.sigma_gamma),
                    "sigma_delta": shape_scale(prior.sigma_delta),
                }
            if model == "hmev":
                return {
                    **{k: shape_scale(getattr(prior, k)) for k in ("mu_gamma", "sigma_gamma", "mu_delta", "sigma_delta")},
                    "event_rate": {"a": prior.event_rate.a, "b": prior.event_rate.b},
                }
            return {"loc": normal(prior.loc), "scale": shape_scale(prior.scale), "shape": normal(prior.shape)}

        stored = json.loads((tmp_path / "fit" / "model.json").read_text())["priors"]
        if model == "shmev":
            assert stored == layout(fitted[0])
        else:
            assert stored == {"S01": layout(fitted[0]), "S02": layout(fitted[1])}

    @staticmethod
    def assert_threads_rejected(capsys, code, fit_dir, name):
        assert code == 2
        err = json.loads(capsys.readouterr().err.strip())
        assert err["error"] == "ConfigError"
        assert err["exit_code"] == 2
        assert err["command"] == "fit"
        assert name in err["message"]
        assert not fit_dir.exists()

    @pytest.mark.parametrize("flag", ["two", "-5", "0", "1.5", "True"])
    def test_threads_flag_must_be_a_positive_integer(self, tmp_path, capsys, flag):
        out = tmp_path / "runs"
        config = tiny_study_config(tmp_path, out)
        code = main(["fit", "--config", str(config), "--out", str(out / "fit"), "--threads", flag])
        self.assert_threads_rejected(capsys, code, out / "fit", "--threads")

    @pytest.mark.parametrize("value", ["two", True, -2, 0, 2.5, None])
    def test_threads_key_must_be_a_positive_integer(self, tmp_path, capsys, value):
        out = tmp_path / "runs"
        body = yaml.safe_load(tiny_study_config(tmp_path, out).read_text())
        body["threads"] = value
        bad = write_config(tmp_path / "bad.yaml", body)
        code = main(["fit", "--config", str(bad), "--out", str(out / "fit")])
        self.assert_threads_rejected(capsys, code, out / "fit", "threads")

    @pytest.mark.parametrize("key, flag, expected", [(3, None, 3), (3, "1", 1), (None, None, os.cpu_count() or 1)])
    def test_threads_flag_then_key_then_cpu_count(self, tmp_path, monkeypatch, key, flag, expected):
        import shmev.cli as cli

        seen = []
        monkeypatch.setattr(cli, "cmd_fit", lambda section, session, seed, threads, base_dir: seen.append(threads))
        out = tmp_path / "runs"
        body = yaml.safe_load(tiny_study_config(tmp_path, out).read_text())
        if key is not None:
            body["threads"] = key
        config = write_config(tmp_path / "threads.yaml", body)
        argv = ["fit", "--config", str(config), "--out", str(out / "fit")]
        assert main(argv + (["--threads", flag] if flag else [])) == 0
        assert seen == [expected]

    def test_non_finite_covariate_is_data_error(self, tmp_path, capsys):
        out = tmp_path / "runs"
        config = tiny_study_config(tmp_path, out)
        run_command("simulate", config, out / "simulate")
        covariates = out / "simulate" / "covariates.csv"
        header, first, *rest = covariates.read_text().splitlines()
        station = first.split(",")[0]
        covariates.write_text("\n".join([header, f"{station},nan,0.5", *rest]) + "\n")
        code = main(["fit", "--config", str(config), "--out", str(out / "fit")])
        assert code == 3
        err = json.loads(capsys.readouterr().err.strip())
        assert err["error"] == "DataError"
        assert err["exit_code"] == 3
        assert "non-finite covariate" in err["message"]
        assert not (out / "fit" / "manifest.json").exists()

    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_test_maximum_is_data_error(self, tmp_path, capsys, value):
        out = tmp_path / "runs"
        config = tiny_study_config(tmp_path, out)
        run_command("simulate", config, out / "simulate")
        maxima = out / "simulate" / "test_maxima.csv"
        header, first, *rest = maxima.read_text().splitlines()
        station, block, _ = first.split(",")
        maxima.write_text("\n".join([header, f"{station},{block},{value}", *rest]) + "\n")
        code = main(["evaluate", "--config", str(config), "--out", str(out / "evaluate")])
        assert code == 3
        err = json.loads(capsys.readouterr().err.strip())
        assert err["error"] == "DataError"
        assert err["exit_code"] == 3
        assert err["command"] == "evaluate"
        assert f"{maxima}:2: non-finite maximum" in err["message"]
        assert not (out / "evaluate" / "manifest.json").exists()

    def test_repeated_test_maximum_block_is_data_error(self, tmp_path, capsys):
        out = tmp_path / "runs"
        config = tiny_study_config(tmp_path, out)
        run_command("simulate", config, out / "simulate")
        maxima = out / "simulate" / "test_maxima.csv"
        header, first, *rest = maxima.read_text().splitlines()
        station, block, value = first.split(",")
        maxima.write_text("\n".join([header, first, f"{station},{block},{float(value) + 1.0}", *rest]) + "\n")
        code = main(["evaluate", "--config", str(config), "--out", str(out / "evaluate")])
        assert code == 3
        err = json.loads(capsys.readouterr().err.strip())
        assert err["error"] == "DataError"
        assert err["exit_code"] == 3
        assert err["command"] == "evaluate"
        assert f"{maxima}:3: repeated block {block} of station {station}" in err["message"]
        assert not (out / "evaluate" / "manifest.json").exists()

    def test_field_over_the_csv_limit_is_data_error(self, tmp_path, capsys):
        out = tmp_path / "runs"
        config = tiny_study_config(tmp_path, out)
        run_command("simulate", config, out / "simulate")
        maxima = out / "simulate" / "test_maxima.csv"
        header, first, *rest = maxima.read_text().splitlines()
        maxima.write_text("\n".join([header, first, f"{'S' * 40},1,2.5", *rest]) + "\n")
        limit = csv.field_size_limit(30)
        try:
            code = main(["evaluate", "--config", str(config), "--out", str(out / "evaluate")])
        finally:
            csv.field_size_limit(limit)
        assert code == 3
        err = json.loads(capsys.readouterr().err.strip())
        assert err["error"] == "DataError"
        assert err["exit_code"] == 3
        assert err["command"] == "evaluate"
        assert "field larger than field limit" in err["message"]
        assert not (out / "evaluate" / "manifest.json").exists()

    def test_events_csv_error_names_path_and_line(self, study, tmp_path, capsys):
        base, out, config = study
        body = yaml.safe_load(config.read_text())
        header, first, *rest = Path(body["fit"]["events"]).read_text().splitlines()
        bad = tmp_path / "events.csv"
        bad.write_text("\n".join([header, first, "S" * 40 + first[first.index(","):], *rest]) + "\n")
        body["fit"]["events"] = str(bad)
        config = write_config(tmp_path / "config.yaml", body)
        limit = csv.field_size_limit(30)
        try:
            code = main(["fit", "--config", str(config), "--out", str(tmp_path / "out")])
        finally:
            csv.field_size_limit(limit)
        assert code == 3
        assert json.loads(capsys.readouterr().err.strip()) == {
            "command": "fit",
            "error": "DataError",
            "exit_code": 3,
            "message": f"{bad}:3: field larger than field limit (30)",
        }
        assert not (tmp_path / "out" / "manifest.json").exists()

    @pytest.mark.parametrize(
        "command, key", [("fit", "covariates"), ("map", "grid"), ("evaluate", "test_maxima")]
    )
    def test_side_table_csv_error_names_path_and_line(self, study, tmp_path, capsys, command, key):
        base, out, config = study
        body = yaml.safe_load(config.read_text())
        header, first, *rest = Path(body[command][key]).read_text().splitlines()
        bad = tmp_path / "input.csv"
        bad.write_text("\n".join([header, "9" * 40 + first[first.index(","):], *rest]) + "\n")
        body[command][key] = str(bad)
        config = write_config(tmp_path / "config.yaml", body)
        limit = csv.field_size_limit(30)
        try:
            code = main([command, "--config", str(config), "--out", str(tmp_path / "out")])
        finally:
            csv.field_size_limit(limit)
        assert code == 3
        assert json.loads(capsys.readouterr().err.strip()) == {
            "command": command,
            "error": "DataError",
            "exit_code": 3,
            "message": f"{bad}:2: field larger than field limit (30)",
        }
        assert not (tmp_path / "out" / "manifest.json").exists()

    @pytest.mark.parametrize(
        "model, message",
        [
            ("shmev", r"training data: site S01 block 0: \d+ events exceed trials_per_block=20"),
            ("hmev", r"station S01: block 0: \d+ events exceed trials_per_block=20"),
            # a GEV fit reads only the block maxima
            ("gev", None),
        ],
        ids=["shmev", "hmev", "gev"],
    )
    def test_trials_per_block_below_a_block_event_count_is_data_error(self, study, tmp_path, capsys, model, message):
        base, out, config = study
        body = yaml.safe_load(config.read_text())
        body["fit"].update(model=model, trials_per_block=20)
        body["fit"]["sampler"]["iterations"] = 20
        bad = write_config(tmp_path / "fit.yaml", body)
        code = main(["fit", "--config", str(bad), "--out", str(tmp_path / "fit")])
        if message is None:
            assert code == 0
            return
        assert code == 3
        err = json.loads(capsys.readouterr().err.strip())
        assert re.fullmatch(message, err.pop("message"))
        assert err == {"command": "fit", "error": "DataError", "exit_code": 3}
        assert not (tmp_path / "fit" / "manifest.json").exists()

    @pytest.mark.parametrize(
        "rows, message",
        [
            ([], "{grid}: no grid points"),
            (["0.2,nan"], "{grid}:2: non-finite grid value"),
            (["0.2,0.3", "inf,0.6"], "{grid}:3: non-finite grid value"),
            (["0.2,-inf"], "{grid}:2: non-finite grid value"),
        ],
        ids=["empty", "nan", "inf", "-inf"],
    )
    def test_grid_without_points_or_with_a_non_finite_value_is_data_error(self, study, tmp_path, capsys, rows, message):
        base, out, config = study
        body = yaml.safe_load(config.read_text())
        grid = tmp_path / "grid.csv"
        grid.write_text("\n".join(["z1,z2", *rows]) + "\n")
        body["map"]["grid"] = str(grid)
        bad = write_config(tmp_path / "map.yaml", body)
        assert main(["map", "--config", str(bad), "--out", str(tmp_path / "map")]) == 3
        assert json.loads(capsys.readouterr().err.strip()) == {
            "command": "map",
            "error": "DataError",
            "exit_code": 3,
            "message": message.format(grid=grid),
        }
        assert not (tmp_path / "map" / "manifest.json").exists()

    @pytest.mark.parametrize("model", ["shmev", "hmev"])
    def test_repeated_fit_station_is_config_error(self, tmp_path, capsys, model):
        out = tmp_path / "runs"
        body = yaml.safe_load(tiny_study_config(tmp_path, out).read_text())
        body["fit"].update(model=model, stations=["S01", "S01", "S02", "S03"])
        bad = write_config(tmp_path / "bad.yaml", body)
        assert main(["fit", "--config", str(bad), "--out", str(out / "fit")]) == 2
        assert json.loads(capsys.readouterr().err.strip()) == {
            "command": "fit",
            "error": "ConfigError",
            "exit_code": 2,
            "message": "fit.stations: repeated station 'S01'",
        }
        assert not (out / "fit" / "manifest.json").exists()

    @pytest.mark.parametrize("model", ["hmev", "gev"])
    def test_map_on_a_per_site_fit_is_config_error(self, study, tmp_path, capsys, model):
        base, out, config = study
        body = yaml.safe_load(config.read_text())
        fit_dir = out / "fit_gev"
        if model == "hmev":
            fit_dir = tmp_path / "fit_hmev"
            body["fit"].update(model="hmev", stations=["S01", "S02"])
            body["fit"]["sampler"]["iterations"] = 20
            assert main(["fit", "--config", str(write_config(tmp_path / "hmev.yaml", body)),
                         "--out", str(fit_dir)]) == 0
        body["map"]["fit_dir"] = str(fit_dir)
        bad = write_config(tmp_path / "map.yaml", body)
        capsys.readouterr()
        assert main(["map", "--config", str(bad), "--out", str(tmp_path / "map")]) == 2
        assert json.loads(capsys.readouterr().err.strip()) == {
            "command": "map",
            "error": "ConfigError",
            "exit_code": 2,
            "message": "return-level maps require a spatial (shmev) fit",
        }
        assert not (tmp_path / "map" / "manifest.json").exists()

    @pytest.mark.parametrize("model", ["shmev", "hmev", "gev"])
    def test_station_missing_from_the_fit_is_data_error(self, study, tmp_path, capsys, model):
        base, out, config = study
        body = yaml.safe_load(config.read_text())
        fit_dir = {"shmev": out / "fit", "gev": out / "fit_gev", "hmev": tmp_path / "fit_hmev"}[model]
        if model == "hmev":
            body["fit"].update(model="hmev", stations=["S01", "S02"])
            body["fit"]["sampler"]["iterations"] = 20
            assert main(["fit", "--config", str(write_config(tmp_path / "hmev.yaml", body)),
                         "--out", str(fit_dir)]) == 0
        body["predict"].update(fit_dir=str(fit_dir), stations=["S01", "S09"])
        bad = write_config(tmp_path / "predict.yaml", body)
        capsys.readouterr()
        code = main(["predict", "--config", str(bad), "--out", str(tmp_path / "predict")])
        assert code == 3
        err = json.loads(capsys.readouterr().err.strip())
        assert err == {
            "error": "DataError",
            "message": "station 'S09' not present in the fit",
            "command": "predict",
            "exit_code": 3,
        }
        assert not (tmp_path / "predict" / "manifest.json").exists()

    @pytest.mark.parametrize("command", ["predict", "map", "evaluate"])
    def test_unreachable_probability_is_numeric_error(self, study, tmp_path, capsys, monkeypatch, command):
        import shmev.predictive as predictive

        base, out, config = study
        # with no grid extensions allowed, no upper bracket is ever confirmed
        monkeypatch.setattr(predictive, "_MAX_EXTENSIONS", 0)
        code = main([command, "--config", str(config), "--out", str(tmp_path / command)])
        assert code == 4
        err = json.loads(capsys.readouterr().err.strip())
        assert err["error"] == "ConvergenceError"
        assert err["exit_code"] == 4
        assert err["message"].endswith("unreachable after 0 grid extensions")
        assert not (tmp_path / command / "manifest.json").exists()

    def test_chain_error_in_a_worker_is_numeric_error(self, study, tmp_path, capsys, monkeypatch):
        from shmev.model import GevTarget

        base, out, config = study
        # a finite density with an overflowing gradient: every warmup trajectory diverges
        monkeypatch.setattr(GevTarget, "__call__", lambda self, v: (0.0, np.full(v.size, 1e200)))
        code = main(["fit", "--config", str(base / "gev.yaml"), "--out", str(tmp_path / "fit"), "--threads", "2"])
        assert code == 4
        err = json.loads(capsys.readouterr().err.strip())
        assert err["error"] == "NumericError"
        assert err["exit_code"] == 4
        assert err["command"] == "fit"
        assert "warmup iterations diverged" in err["message"]
        assert not (tmp_path / "fit" / "manifest.json").exists()
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("model", ["gev", "hmev", "shmev"])
    def test_equal_magnitudes_are_data_error(self, tmp_path, capsys, model):
        # every wet day of every station at 10 mm: all block maxima are equal
        # too, so no Weibull or GEV prior can be elicited from the data
        out = tmp_path / "runs"
        config = tiny_study_config(tmp_path, out)
        run_command("simulate", config, out / "simulate")
        events = out / "simulate" / "events.csv"
        header, *rows = events.read_text().splitlines()
        first_station = rows[0].split(",")[0]
        rewritten = []
        for row in rows:
            station, date, _, flag = row.split(",")
            rewritten.append(f"{station},{date},10.0,{flag}")
        events.write_text("\n".join([header, *rewritten]) + "\n")
        body = yaml.safe_load(config.read_text())
        body["fit"]["model"] = model
        model_config = write_config(tmp_path / f"{model}.yaml", body)
        code = main(["fit", "--config", str(model_config), "--out", str(out / "fit")])
        assert code == 3
        err = json.loads(capsys.readouterr().err.strip())
        assert err["error"] == "DataError"
        assert err["exit_code"] == 3
        assert err["command"] == "fit"
        assert f"station {first_station}: " in err["message"]
        spread = "zero spread" if model == "gev" else "positive variance"
        assert spread in err["message"]
        assert not (out / "fit" / "manifest.json").exists()

    @pytest.mark.parametrize(
        "command, key",
        [("fit", "events"), ("fit", "covariates"), ("map", "grid"), ("evaluate", "test_maxima")],
    )
    def test_input_that_is_not_utf8_is_data_error(self, study, tmp_path, capsys, command, key):
        base, out, config = study
        body = yaml.safe_load(config.read_text())
        data = Path(body[command][key]).read_bytes()
        offset = data.index(b"\n") + 2  # in the first row after the header
        bad = tmp_path / "input.csv"
        bad.write_bytes(data[:offset] + b"\xff" + data[offset + 1 :])
        body[command][key] = str(bad)
        config = write_config(tmp_path / "config.yaml", body)
        code = main([command, "--config", str(config), "--out", str(tmp_path / "out")])
        assert code == 3
        assert json.loads(capsys.readouterr().err.strip()) == {
            "command": command,
            "error": "DataError",
            "exit_code": 3,
            "message": f"{bad}: invalid UTF-8 at byte {offset}",
        }
        assert not (tmp_path / "out" / "manifest.json").exists()

    def test_repeated_covariate_station_is_data_error(self, study, tmp_path, capsys):
        base, out, config = study
        body = yaml.safe_load(config.read_text())
        header, first, *rest = Path(body["fit"]["covariates"]).read_text().splitlines()
        covariates = tmp_path / "covariates.csv"
        covariates.write_text("\n".join([header, first, *rest, first]) + "\n")
        body["fit"]["covariates"] = str(covariates)
        config = write_config(tmp_path / "config.yaml", body)
        assert main(["fit", "--config", str(config), "--out", str(tmp_path / "fit")]) == 3
        err = json.loads(capsys.readouterr().err.strip())
        station = first.split(",")[0]
        assert err["message"] == f"{covariates}:{len(rest) + 3}: repeated station {station!r}"

    def test_malformed_rows_are_written_to_rejects_csv(self, study, tmp_path, capsys):
        base, out, config = study
        assert not (out / "fit" / "rejects.csv").exists()  # a clean input writes none
        header, first, *rows = (out / "simulate" / "events.csv").read_text().splitlines()
        station, date, _, flag = first.split(",")
        bad = [f"{station},{date},inf,{flag}", "S9,2001-01-01,1.0", "S9,2001-13-01,1.0,"]
        events = tmp_path / "events.csv"
        events.write_text("\n".join([header, bad[0], *rows, *bad[1:]]) + "\n")
        body = yaml.safe_load(config.read_text())
        body["fit"].update(model="gev", events="events.csv")  # relative to the config
        body["fit"].pop("covariates")
        body["fit"].pop("covariate_columns")
        gev_config = write_config(tmp_path / "gev.yaml", body)
        code = main(["fit", "--config", str(gev_config), "--out", str(tmp_path / "fit")])
        assert code == 0
        assert "fit: 3 malformed rows rejected; see rejects.csv" in capsys.readouterr().err
        rejects = tmp_path / "fit" / "rejects.csv"
        with open(rejects, newline="") as fh:
            assert list(csv.reader(fh)) == [
                ["file", "line", "reason", "row"],
                ["events.csv", "2", "non-finite precipitation", bad[0]],
                ["events.csv", str(len(rows) + 3), "wrong field count", bad[1]],
                ["events.csv", str(len(rows) + 4), "unparseable date", bad[2]],
            ]
        manifest = json.loads((tmp_path / "fit" / "manifest.json").read_text())
        hashes = {a["path"]: a["sha256"] for a in manifest["artifacts"]}
        assert hashes["rejects.csv"] == hashlib.sha256(rejects.read_bytes()).hexdigest()

    def test_manifest_failure_removes_partial_outputs(self, tmp_path, monkeypatch):
        from shmev.cli import ArtifactSession

        def fail(self, *args):
            raise OSError("disk full")

        monkeypatch.setattr(ArtifactSession, "write_manifest", fail)
        out = tmp_path / "runs"
        config = tiny_study_config(tmp_path, out)
        with pytest.raises(OSError, match="disk full"):
            run_command("simulate", config, out / "simulate")
        assert [p for p in (out / "simulate").rglob("*") if p.is_file()] == []

    def test_unknown_keys_rejected(self, tmp_path):
        config = write_config(
            tmp_path / "c.yaml",
            {"schema_version": 1, "seed": 1, "simulate": {"sites": 2, "bogus": 3}},
        )
        with pytest.raises(ConfigError, match="bogus"):
            run_command("simulate", config, tmp_path / "out")

    def test_missing_section(self, tmp_path):
        config = write_config(tmp_path / "c.yaml", {"schema_version": 1, "seed": 1})
        with pytest.raises(ConfigError, match="no 'fit' section"):
            run_command("fit", config, tmp_path / "out")

    def test_wrong_schema_version(self, tmp_path):
        config = write_config(tmp_path / "c.yaml", {"schema_version": 99, "seed": 1})
        with pytest.raises(ConfigError, match="schema_version"):
            run_command("simulate", config, tmp_path / "out")

    def test_failure_removes_partial_outputs(self, tmp_path, capsys):
        config = write_config(
            tmp_path / "c.yaml",
            {
                "schema_version": 1,
                "seed": 3,
                "fit": {
                    "model": "gev",
                    "events": "does-not-exist.csv",
                    "train_blocks": 3,
                },
            },
        )
        code = main(["fit", "--config", str(config), "--out", str(tmp_path / "out")])
        assert code == 3
        leftovers = [p for p in (tmp_path / "out").rglob("*") if p.is_file()]
        assert leftovers == []

    def test_cli_exit_zero_on_success(self, tmp_path, capsys):
        out = tmp_path / "runs"
        config = tiny_study_config(tmp_path, out)
        code = main(["simulate", "--config", str(config), "--out", str(out / "simulate")])
        assert code == 0
        assert "artifacts written" in capsys.readouterr().out


def edit_model_json(fit_dir: Path, edit) -> None:
    path = fit_dir / "model.json"
    meta = json.loads(path.read_text())
    edit(meta["diagnostics"])
    path.write_text(json.dumps(meta))


# each damage done to a copy of a shmev fit directory, the files the data
# error must name and the error it reports
FIT_DAMAGES = {
    "missing draws.npy": (lambda fit: (fit / "draws.npy").unlink(), ["draws.npy"], "FileNotFoundError"),
    "non-array draws.npy": (lambda fit: (fit / "draws.npy").write_text("not an array\n"), ["draws.npy"], "ValueError"),
    "model.json not JSON": (lambda fit: (fit / "model.json").write_text("{"), ["model.json"], "JSONDecodeError"),
    "no grad_evals": (lambda fit: edit_model_json(fit, lambda d: d.pop("grad_evals")), ["model.json"], "KeyError"),
    "no chains": (
        lambda fit: edit_model_json(fit, lambda d: d.update(n_chains=0)), ["draws.npy", "model.json"], "ValueError"
    ),
    "a value per chain too many": (
        lambda fit: edit_model_json(fit, lambda d: d["step_sizes"].append(0.5)), ["draws.npy", "model.json"], "ValueError"
    ),
    "draws n_chains does not divide": (
        lambda fit: np.save(fit / "draws.npy", np.load(fit / "draws.npy")[:-1]), ["draws.npy", "model.json"], "ValueError"
    ),
}


class TestFitDirectory:
    @pytest.mark.parametrize("damage", list(FIT_DAMAGES))
    def test_damaged_fit_is_data_error(self, study, tmp_path, capsys, damage):
        base, out, config = study
        spoil, files, error = FIT_DAMAGES[damage]
        fit_dir = tmp_path / "fit"
        shutil.copytree(out / "fit", fit_dir)
        spoil(fit_dir)
        body = yaml.safe_load(config.read_text())
        body["diagnose"]["fit_dir"] = str(fit_dir)
        bad = write_config(tmp_path / "diagnose.yaml", body)
        capsys.readouterr()
        assert main(["diagnose", "--config", str(bad), "--out", str(tmp_path / "diagnose")]) == 3
        err = json.loads(capsys.readouterr().err.strip())
        assert (err["error"], err["command"], err["exit_code"]) == ("DataError", "diagnose", 3)
        named = ", ".join(str(fit_dir / name) for name in files)
        assert err["message"].startswith(f"damaged fit: {named}: {error}: "), err["message"]
        assert not (tmp_path / "diagnose" / "manifest.json").exists()

    @pytest.mark.parametrize(
        "model, chains, iterations",
        [("shmev", 2, 80), ("hmev", 2, 60), ("shmev", 1, 80), ("shmev", 2, 6)],
        ids=["two-chain shmev", "two-chain hmev", "one-chain", "three kept draws"],
    )
    def test_diagnose_agrees_with_fit(self, study, tmp_path, model, chains, iterations):
        base, out, config = study
        body = yaml.safe_load(config.read_text())
        body["fit"]["model"] = model
        body["fit"]["sampler"].update(chains=chains, iterations=iterations)
        body["diagnose"]["fit_dir"] = str(tmp_path / "fit")
        config = write_config(tmp_path / "study.yaml", body)
        run_command("fit", config, tmp_path / "fit")
        run_command("diagnose", config, tmp_path / "diagnose")

        def cells(path):
            with open(path, newline="") as fh:
                return {(r["station"], r["param"]): (r["rhat"], r["ess"]) for r in csv.DictReader(fh)}

        summary, diagnostics = cells(tmp_path / "fit" / "summary.csv"), cells(tmp_path / "diagnose" / "diagnostics.csv")
        assert summary == diagnostics
        stations = {station for station, _ in summary}
        assert stations == ({""} if model == "shmev" else {"S01", "S02", "S03", "S04"})
        empty = chains == 1 or iterations == 6
        assert all((rhat == "" and ess == "") == empty for rhat, ess in summary.values())
        kept = iterations - iterations // 2
        for post in load_fit(tmp_path / "fit").posteriors.values():
            assert (post.n_chains, post.n_kept_per_chain) == (chains, kept)


def training_magnitudes(events_csv: Path, train_blocks: int, threshold: float) -> dict:
    """Each station's magnitudes above ``threshold`` in each of its first
    ``train_blocks`` years, read from an events file with no missing days."""
    by_year: dict = {}
    with open(events_csv, newline="") as fh:
        for row in csv.DictReader(fh):
            by_year.setdefault(row["station"], {}).setdefault(row["date"][:4], []).append(float(row["prcp_mm"]))
    return {
        station: [[x for x in years[y] if x > threshold] for y in sorted(years)[:train_blocks]]
        for station, years in sorted(by_year.items())
    }


class TestWetDayThreshold:
    def test_threshold_drops_the_events_at_or_below_it(self, study, tmp_path, monkeypatch):
        import shmev.cli as cli

        base, out, config = study
        events = training_magnitudes(out / "simulate" / "events.csv", 4, 0.0)
        threshold = float(np.quantile([x for blocks in events.values() for b in blocks for x in b], 0.25))
        before = json.loads((out / "fit" / "model.json").read_text())["magnitude_range"]
        assert all(before[station][0] < threshold for station in events)

        body = yaml.safe_load(config.read_text())
        body["fit"]["wet_day_threshold"] = threshold
        targets = []
        run_hmc_jobs = cli.run_hmc_jobs

        def capture(jobs, **kwargs):
            targets.extend(job.target for job in jobs)
            return run_hmc_jobs(jobs, **kwargs)

        monkeypatch.setattr(cli, "run_hmc_jobs", capture)
        run_command("fit", write_config(tmp_path / "fit.yaml", body), tmp_path / "fit")
        after = json.loads((tmp_path / "fit" / "model.json").read_text())["magnitude_range"]

        kept = training_magnitudes(out / "simulate" / "events.csv", 4, threshold)
        assert targets[0].dataset.counts().tolist() == [[len(b) for b in blocks] for blocks in kept.values()]
        assert targets[0].dataset.counts().sum() < sum(len(b) for blocks in events.values() for b in blocks)
        for station, blocks in kept.items():
            mags = [x for b in blocks for x in b]
            assert after[station] == [min(mags), max(mags)]
            assert after[station][0] > threshold
        pooled = [x for blocks in kept.values() for b in blocks for x in b]
        assert after["__pooled__"] == [min(pooled), max(pooled)]

    def test_zero_threshold_is_the_default(self, study, tmp_path):
        base, out, config = study
        body = yaml.safe_load(config.read_text())
        body["fit"]["wet_day_threshold"] = 0.0
        run_command("fit", write_config(tmp_path / "fit.yaml", body), tmp_path / "fit")
        for name in ("model.json", "draws.npy", "summary.csv"):
            assert (tmp_path / "fit" / name).read_bytes() == (out / "fit" / name).read_bytes(), name

    def test_negative_threshold_is_config_error(self, study, tmp_path, capsys):
        base, out, config = study
        body = yaml.safe_load(config.read_text())
        body["fit"]["wet_day_threshold"] = -0.5
        bad = write_config(tmp_path / "fit.yaml", body)
        assert main(["fit", "--config", str(bad), "--out", str(tmp_path / "fit")]) == 2
        err = json.loads(capsys.readouterr().err.strip())
        assert (err["error"], err["command"], err["exit_code"]) == ("ConfigError", "fit", 2)
        assert "fit.wet_day_threshold" in err["message"]
        assert not (tmp_path / "fit").exists()


class TestManifest:
    def test_outputs_reproducible_from_manifest_alone(self, tmp_path):
        out = tmp_path / "runs"
        config = tiny_study_config(tmp_path, out)
        run_command("simulate", config, out / "simulate")
        manifest = json.loads((out / "simulate" / "manifest.json").read_text())
        # reconstruct a config purely from the manifest and re-run
        rebuilt = {
            "schema_version": manifest["config"]["schema_version"],
            "seed": manifest["seed"],
            "simulate": manifest["config"]["simulate"],
        }
        config2 = write_config(tmp_path / "from_manifest.yaml", rebuilt)
        run_command("simulate", config2, tmp_path / "again")
        for artifact in manifest["artifacts"]:
            a = (out / "simulate" / artifact["path"]).read_bytes()
            b = (tmp_path / "again" / artifact["path"]).read_bytes()
            assert a == b, artifact["path"]


def test_cli_import_leaves_out_scipy_stats_and_optimize():
    src = str(Path(shmev.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = (
        "import sys, shmev.cli; "
        "print(sorted(m for m in sys.modules if m.split('.')[:2] in (['scipy', 'stats'], ['scipy', 'optimize'])))"
    )
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"


_WITHOUT_SCIPY = """
import json, sys

import shmev.cli

loaded = sorted(m for m in sys.modules if m.startswith("scipy"))


class NoScipy:
    def find_spec(self, name, path=None, target=None):
        if name.startswith("scipy"):
            raise ImportError(f"{name} is not importable in this process")
        return None


sys.meta_path.insert(0, NoScipy())
codes = [shmev.cli.main(args) for args in json.loads(sys.argv[1])]
print(json.dumps({"scipy_modules": loaded, "exit_codes": codes}))
"""


def test_every_command_runs_without_scipy(tmp_path):
    out = tmp_path / "runs"
    config = tiny_study_config(tmp_path, out)
    (tmp_path / "grid.csv").write_text("z1,z2\n0.2,0.3\n0.7,0.6\n")
    per_site = {}
    for model in ("hmev", "gev"):
        site_body = yaml.safe_load(config.read_text())
        site_body["fit"]["model"] = model
        per_site[model] = write_config(tmp_path / f"{model}.yaml", site_body)
    runs = [
        ["simulate", "--config", str(config)],
        ["fit", "--config", str(config), "--threads", "2"],
        ["fit", "--config", str(per_site["hmev"]), "--out", str(out / "fit_hmev")],
        ["fit", "--config", str(per_site["gev"]), "--out", str(out / "fit_gev"), "--threads", "2"],
        ["diagnose", "--config", str(config)],
        ["predict", "--config", str(config)],
        ["map", "--config", str(config)],
        ["evaluate", "--config", str(config)],
    ]
    src = str(Path(shmev.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run(
        [sys.executable, "-c", _WITHOUT_SCIPY, json.dumps(runs)],
        env=env, capture_output=True, text=True, timeout=600,
    )
    assert done.returncode == 0, done.stderr
    report = json.loads(done.stdout.strip().splitlines()[-1])
    assert report["scipy_modules"] == []
    assert report["exit_codes"] == [0] * len(runs)
    for command in ("simulate", "fit", "fit_hmev", "fit_gev", "diagnose", "predict", "map", "evaluate"):
        assert (out / command / "manifest.json").exists()


def test_predict_bands_in_one_call_equal_the_per_column_quantiles():
    sim = np.random.default_rng(12)
    for _ in range(500):
        b, k = int(sim.integers(1, 301)), int(sim.integers(1, 8))
        q = sim.gamma(2.0, 30.0, size=(b, k))
        if sim.random() < 0.5:  # ties
            q = np.round(q, int(sim.integers(-1, 2)))
        bands = np.quantile(q, [0.05, 0.95], axis=0)
        for t in range(k):
            assert bands[0, t].tobytes() == np.quantile(q[:, t], 0.05).tobytes()
            assert bands[1, t].tobytes() == np.quantile(q[:, t], 0.95).tobytes()


@pytest.mark.parametrize("degenerate", [[True, False], [True, True]])
def test_min_ess_is_taken_over_the_parameters_with_an_ess(degenerate):
    draws = np.random.default_rng(8).standard_normal((40, 2))
    draws[:, degenerate] = 2.5  # constant in every chain
    post = PosteriorDraws(draws, ["a", "b"], 2, **{
        name: np.zeros(2, dtype=kind) for name, kind in CHAIN_STATS.items()
    })
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        diag = _diag_dict(post)
    assert diag["max_rhat"] == float(np.max(post.rhat))
    if all(degenerate):
        assert diag["min_ess"] is None
    else:
        assert diag["min_ess"] == float(post.ess[1])
    assert "NaN" not in json.dumps(diag)


def strict_json(text: str):
    """``text`` parsed as strict JSON: ``NaN`` and ``Infinity`` are refused."""
    def refuse(token):
        raise ValueError(f"not strict JSON: {token}")

    return json.loads(text, parse_constant=refuse)


def test_json_artifacts_are_strict_with_sorted_keys_and_one_space_indent(study):
    base, out, config = study
    paths = sorted(out.rglob("*.json"))
    assert {p.relative_to(out).as_posix() for p in paths} >= {
        "simulate/snapshot.json", "simulate/manifest.json", "fit/model.json", "fit/manifest.json",
        "fit_gev/model.json", "fit_gev/manifest.json",
    }
    for path in paths:
        text = path.read_text()
        assert text == json.dumps(strict_json(text), sort_keys=True, indent=1) + "\n", path


def test_infinite_rhat_is_written_as_the_string_inf(study, tmp_path, monkeypatch):
    # every chain constant, the two at different values: R-hat is infinite,
    # which model.json holds as "inf", as summary.csv and diagnose write it
    import shmev.cli as cli

    base, out, config = study
    run_hmc_jobs = cli.run_hmc_jobs

    def stuck(jobs, **kwargs):
        return [
            replace(post, draws=np.repeat([[0.0], [5.0]], post.n_kept_per_chain, axis=0) * np.ones(post.dim))
            for post in run_hmc_jobs(jobs, **kwargs)
        ]

    monkeypatch.setattr(cli, "run_hmc_jobs", stuck)
    body = yaml.safe_load(config.read_text())
    body["diagnose"]["fit_dir"] = str(tmp_path / "fit")
    config = write_config(tmp_path / "study.yaml", body)
    run_command("fit", config, tmp_path / "fit")
    run_command("diagnose", config, tmp_path / "diagnose")
    meta = strict_json((tmp_path / "fit" / "model.json").read_text())
    assert meta["diagnostics"]["max_rhat"] == "inf"
    assert isinstance(meta["diagnostics"]["min_ess"], float)
    strict_json((tmp_path / "fit" / "manifest.json").read_text())
    for name in ("fit/summary.csv", "diagnose/diagnostics.csv"):
        with open(tmp_path / name, newline="") as fh:
            assert {row["rhat"] for row in csv.DictReader(fh)} == {"inf"}, name


def test_traced_harness_wrap_points_resolve():
    # the benchmark's tracer looks up each layer function it wraps by name
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(root / "src"), str(root / "perfbench")]))
    code = "import tracer; tracer.install(tracer.Tracer())"
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
