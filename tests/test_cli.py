import csv
import hashlib
import json
import multiprocessing
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import yaml

import shmev
from shmev.cli import load_fit, main, run_command
from shmev.errors import ConfigError


def write_config(path: Path, body: dict) -> Path:
    path.write_text(yaml.safe_dump(body, sort_keys=False))
    return path


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

    def test_fit_artifact_reload(self, study):
        base, out, config = study
        fitted = load_fit(out / "fit")
        assert fitted.kind == "shmev"
        assert fitted.draws.shape[0] == 2 * 40
        assert fitted.snapshot is not None
        assert len(fitted.stations) == 4

    def test_hmev_fit_runs_per_site(self, study):
        base, out, config = study
        body = yaml.safe_load(config.read_text())
        body["fit"]["model"] = "hmev"
        body["fit"]["sampler"]["iterations"] = 60
        hmev_config = write_config(base / "hmev.yaml", body)
        run_command("fit", hmev_config, out / "fit_hmev")
        fitted = load_fit(out / "fit_hmev")
        assert fitted.kind == "hmev"
        assert sorted(fitted.per_site_draws) == fitted.stations
        assert len(fitted.stations) == 4
        for draws in fitted.per_site_draws.values():
            assert draws.shape == (2 * 30, 5 + 2 * 4)


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

    @pytest.mark.parametrize("model", ["shmev", "hmev", "gev"])
    def test_worker_count_does_not_change_fit_artifacts(self, study, tmp_path, model):
        base, out, config = study
        body = yaml.safe_load(config.read_text())
        body["fit"]["model"] = model
        if model == "gev":
            body["fit"].pop("covariates")
            body["fit"].pop("covariate_columns")
        model_config = write_config(tmp_path / f"{model}.yaml", body)
        manifests = []
        for threads in ("1", "2"):
            fit_dir = tmp_path / f"fit_{threads}"
            code = main(["fit", "--config", str(model_config), "--out", str(fit_dir), "--threads", threads])
            assert code == 0
            manifests.append((fit_dir / "manifest.json").read_bytes())
        assert manifests[0] == manifests[1]


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
