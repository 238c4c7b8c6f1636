"""The benchmark's own tests, at the smoke scale (seconds per run).

    python3 -m pytest perfbench
"""
from __future__ import annotations

import csv
import hashlib
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from checks import check_stage
from workloads import SCALES, WORKLOADS, Stage, write_daily_series

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(HERE / "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=170)


def result_line(proc: subprocess.CompletedProcess) -> dict:
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_run_reports_every_metric(workload, trace):
    proc = bench("--workload", workload, "--seed", "5", "--seconds", "1",
                 "--trace", trace, "--scale", "smoke")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = result_line(proc)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    # in the traced run, correct also means byte-identical manifests
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 3
    spec = SPEC["per_layer"] if trace == "1" else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in spec} == {k: v["unit"] for k, v in result["metrics"].items()}
    assert all(isinstance(v["value"], float) for v in result["metrics"].values())
    if trace == "0":
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_refuses_to_run_without_the_source_tree(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "wei-fit", "--seed", "1",
                           "--seconds", "1", "--trace", "0"], cwd=tmp_path, capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_daily_series_keeps_every_event_on_a_full_calendar(tmp_path):
    compact = tmp_path / "events.csv"
    rows = [("S01", f"2001-01-{d + 1:02d}", f"{1.5 + d}") for d in range(30)]
    rows += [("S02", f"2002-01-{d + 1:02d}", f"{0.25 * (d + 1)}") for d in range(5)]
    with open(compact, "w", newline="") as fh:
        csv.writer(fh).writerows([("station", "date", "prcp_mm", "qflag"), *[(*r, "") for r in rows]])
    daily = tmp_path / "daily.csv"
    n = write_daily_series(compact, daily, n_years=2, seed=3)
    with open(daily, newline="") as fh:
        out = list(csv.DictReader(fh))
    assert n == len(out) == 2 * (365 + 365)
    for station in ("S01", "S02"):
        mine = [r for r in out if r["station"] == station]
        wet = [r["prcp_mm"] for r in mine if r["prcp_mm"] not in ("", "0.0")]
        assert wet == [v for s, _, v in rows if s == station]
        assert all(r["qflag"] in ("", "Q") for r in mine)
        assert all(r["prcp_mm"] == "0.0" for r in mine if r["qflag"] == "Q")
        for year in ("2001", "2002"):
            marked = [r for r in mine if r["date"].startswith(year) and (r["qflag"] or not r["prcp_mm"])]
            assert len(marked) <= 12


def _write_predictions(out: Path, rows) -> None:
    out.mkdir()
    path = out / "predictions.csv"
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerows([("station", "T", "rl_mean", "rl_q05", "rl_q95"), *rows])
    digest = hashlib.sha256(path.read_bytes()).hexdigest()
    (out / "manifest.json").write_text(json.dumps({"artifacts": [{"path": "predictions.csv", "sha256": digest}]}))


def test_output_checks_catch_bad_return_levels(tmp_path):
    scale = SCALES["smoke"]
    stage = Stage("predict", "predict", "study.yaml", "predict")
    periods = [2.0, 5.0, 10.0, 20.0, 50.0, 100.0]
    good = [(f"S{s:02d}", t, 10.0 + t, 9.0 + t, 11.0 + t) for s in range(1, scale.sites + 1) for t in periods]
    _write_predictions(tmp_path / "good", good)
    assert check_stage(stage, tmp_path / "good", scale, "wei-predict") == []

    decreasing = [(s, t, 200.0 - m, 199.0 - m, 201.0 - m) for s, t, m, _, _ in good]
    _write_predictions(tmp_path / "decreasing", decreasing)
    assert any("decrease" in p for p in check_stage(stage, tmp_path / "decreasing", scale, "wei-predict"))

    _write_predictions(tmp_path / "tampered", good)
    with open(tmp_path / "tampered" / "predictions.csv", "a") as fh:
        fh.write("S01,200.0,1.0,1.0,1.0\n")
    assert any("hash" in p for p in check_stage(stage, tmp_path / "tampered", scale, "wei-predict"))
