"""shmev pipeline benchmark: seeded WEI-scale workloads through the CLI.

    python3 perfbench/run.py --workload wei-fit --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout (``src/shmev`` must exist; nothing
needs installing).  Workloads:

* ``wei-fit``: set-up ``simulate`` and a daily-series rewrite; timed
  ``fit`` (model shmev, 2 chains) then ``diagnose``.
* ``wei-predict``: set-up ``simulate``, rewrite and a short shmev ``fit``;
  timed ``predict``, ``map`` and ``evaluate``.
* ``per-site``: set-up as ``wei-fit``; timed ``fit`` with model hmev, then
  with model gev, for each selected station.

One harness process runs each stage as a child ``shmev`` process with
``--threads 2``, one after another (a closed loop with one client), and
checks every stage's outputs.  The set-up runs several times and reports
its median.  The timed stages then repeat as whole passes until
``--seconds`` is spent (at least one pass), and each timing is the median
over passes.  ``peak_rss_mb`` is the largest peak RSS of a timed stage
process; ``fail_rate`` counts every stage invocation, set-up included.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` instead runs one
untraced pass, then ``perfbench/tracer.py`` runs the same stages in-process
through ``shmev.cli.run_command``, first plain and then with the layer
functions wrapped, and prints the per-layer metrics.  The traced run's
manifests must equal the untraced ones byte for byte.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Everything the run
writes stays under ``.perfbench/`` in the checkout, including a full
``BENCH_<workload>_seed<seed>[_trace].json`` with run metadata.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import scipy

from checks import check_stage, manifest_hashes
from workloads import (
    SCALES,
    SETUP_REPEATS,
    THREADS,
    WORKLOADS,
    Scale,
    Stage,
    setup_stages,
    write_configs,
    write_daily_series,
    write_grid,
)

# BLAS and OpenMP threads per stage process: the two chain threads
# already occupy both cores of the reference machine
BLAS_THREADS = "1"


@dataclass
class StageRun:
    stage: Stage
    wall_s: float
    rss_mb: float
    ok: bool


def stage_env(src: Path) -> dict[str, str]:
    env = dict(os.environ)
    env.update(OPENBLAS_NUM_THREADS=BLAS_THREADS, OMP_NUM_THREADS=BLAS_THREADS, PYTHONPATH=str(src))
    return env


def run_metadata(root: Path, env: dict[str, str], seed: int) -> dict:
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                             text=True, timeout=10).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        sha = None
    cpu = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), None)
    except OSError:
        pass
    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return {
        "git_sha": sha,
        "seed": seed,
        "nproc": os.cpu_count(),
        "cpu_model": cpu or platform.processor(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "OPENBLAS_NUM_THREADS": env["OPENBLAS_NUM_THREADS"],
        "OMP_NUM_THREADS": env["OMP_NUM_THREADS"],
    }


class Bench:
    """One benchmark run: set-up, timed passes, checks and counts."""

    def __init__(self, root: Path, workload: str, scale: Scale, seed: int):
        self.root, self.workload, self.scale, self.seed = root, workload, scale, seed
        self.work = root / ".perfbench" / workload
        self.env = stage_env(root / "src")
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def fail(self, problems: list[str]) -> None:
        self.failed += 1
        self.problems.extend(problems)

    def run_stage(self, stage: Stage, variant: Path) -> StageRun:
        out = variant / stage.out
        shutil.rmtree(out, ignore_errors=True)
        log = variant / f"{stage.name}.stderr"
        cmd = [sys.executable, "-m", "shmev.cli", stage.command,
               "--config", str(variant / stage.config), "--out", str(out),
               "--seed", str(self.seed), "--threads", str(THREADS)]
        with open(log, "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(cmd, stdout=subprocess.DEVNULL, stderr=err, env=self.env, cwd=self.root)
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        self.attempted += 1
        if proc.returncode != 0:
            lines = log.read_text(errors="replace").strip().splitlines()
            problems = [f"{stage.name}: exit {proc.returncode}: {lines[-1] if lines else 'no error report'}"]
        else:
            problems = self.check(stage, out)
        if problems:
            self.fail(problems)
        return StageRun(stage, wall, usage.ru_maxrss / 1024.0, not problems)

    def check(self, stage: Stage, out: Path) -> list[str]:
        try:
            return check_stage(stage, out, self.scale, self.workload)
        except (OSError, ValueError, KeyError) as exc:
            return [f"{stage.name}: unreadable output ({type(exc).__name__}: {exc})"]

    def setup(self) -> bool:
        """Generate the workload's inputs from the seed; True on success."""
        variant = self.work / "setup"
        write_configs(self.workload, self.scale, self.seed, variant)
        inputs = self.work / "inputs"
        for stage in setup_stages(self.workload):
            if not self.run_stage(stage, variant).ok:
                return False
            if stage.command == "simulate":
                write_daily_series(inputs / "events.csv", inputs / "daily.csv",
                                   self.scale.train_blocks, self.seed)
                write_grid(inputs / "covariates.csv", inputs / "grid.csv", self.scale.map_axis_points)
        return True

    def timed_pass(self, variant: Path, stages: list[Stage]) -> list[StageRun] | None:
        runs = []
        for stage in stages:
            run = self.run_stage(stage, variant)
            runs.append(run)
            if not run.ok:
                return None
        return runs

    def manifests(self, variant: Path, stages: list[Stage]) -> dict[str, bytes]:
        return {s.name: (variant / s.out / "manifest.json").read_bytes() for s in stages}


def _min_ess(fit_dir: Path) -> float | None:
    diag = json.loads((fit_dir / "model.json").read_text())["diagnostics"]
    if "min_ess" in diag:
        return diag["min_ess"]
    values = [d["min_ess"] for d in diag.values() if d["min_ess"] is not None]
    return min(values) if values else None


def measure(bench: Bench, seconds: float) -> dict:
    """Timed passes until ``seconds`` is spent; medians over passes."""
    variant = bench.work / "pass"
    stages = write_configs(bench.workload, bench.scale, bench.seed, variant)
    passes: list[list[StageRun]] = []
    first_manifests = None
    start = time.perf_counter()
    while True:
        runs = bench.timed_pass(variant, stages)
        if runs is None:
            break
        manifests = bench.manifests(variant, stages)
        if first_manifests is None:
            first_manifests = manifests
        elif manifests != first_manifests:
            bench.fail([f"pass {len(passes) + 1}: artifacts differ from the first pass at the same seed"])
            break
        passes.append(runs)
        elapsed = time.perf_counter() - start
        if elapsed + statistics.median(sum(r.wall_s for r in p) for p in passes) > seconds:
            break

    extra: dict[str, float | None] = {}
    metrics: dict[str, float | None] = {"total_s": None, "peak_rss_mb": None}
    if passes:
        metrics["total_s"] = statistics.median(sum(r.wall_s for r in p) for p in passes)
        metrics["peak_rss_mb"] = max(r.rss_mb for p in passes for r in p)
        for k, stage in enumerate(stages):
            extra[f"{stage.name}_s"] = statistics.median(p[k].wall_s for p in passes)
        fit = {"wei-fit": ("fit", "fit_shmev_s", "shmev_min_ess_per_s"),
               "per-site": ("fit_hmev", "fit_hmev_s", "hmev_min_ess_per_s")}.get(bench.workload)
        if fit:
            ess = _min_ess(variant / fit[0])
            extra[fit[2]] = None if ess is None else ess / extra[fit[1]]
    return {"metrics": metrics, "extra": extra, "passes": len(passes),
            "stage_walls": [[r.wall_s for r in p] for p in passes]}


def trace(bench: Bench) -> dict:
    """One untraced pass, then the in-process plain and traced passes."""
    stages = write_configs(bench.workload, bench.scale, bench.seed, bench.work / "pass")
    runs = bench.timed_pass(bench.work / "pass", stages)
    if runs is None:
        return {"metrics": {}}
    plain_dir, traced_dir = bench.work / "inproc", bench.work / "traced"
    write_configs(bench.workload, bench.scale, bench.seed, plain_dir)
    write_configs(bench.workload, bench.scale, bench.seed, traced_dir)
    simulate = Stage("simulate", "simulate", "simulate.yaml", "simulate")

    def plan_stage(stage: Stage, variant: Path) -> dict:
        out = variant / stage.out
        shutil.rmtree(out, ignore_errors=True)
        return {"name": stage.name, "command": stage.command,
                "config": str(variant / stage.config), "out": str(out)}

    plan = {
        "seed": bench.seed,
        "threads": THREADS,
        "plain": [plan_stage(s, plain_dir) for s in stages],
        "traced": [plan_stage(s, traced_dir) for s in [simulate, *stages]],
        "spans": str(bench.work / "spans.jsonl"),
    }
    plan_path, result_path = bench.work / "trace_plan.json", bench.work / "trace_result.json"
    plan_path.write_text(json.dumps(plan, indent=1) + "\n")
    tracer = Path(__file__).with_name("tracer.py")
    proc = subprocess.run([sys.executable, str(tracer), str(plan_path), str(result_path)],
                          env=bench.env, cwd=bench.root, stdout=subprocess.DEVNULL,
                          stderr=subprocess.PIPE, text=True)
    bench.attempted += len(plan["plain"]) + len(plan["traced"])
    if proc.returncode != 0:
        tail = proc.stderr.strip().splitlines()
        bench.fail([f"traced run: exit {proc.returncode}: {tail[-1] if tail else ''}"])
        return {"metrics": {}}
    result = json.loads(result_path.read_text())

    # every in-process stage must reproduce the untraced artifacts exactly
    reference = bench.manifests(bench.work / "pass", stages)
    reference["simulate"] = (bench.work / "inputs" / "manifest.json").read_bytes()
    for variant, stage in [(plain_dir, s) for s in stages] + [(traced_dir, s) for s in [simulate, *stages]]:
        problems = bench.check(stage, variant / stage.out)
        if not problems and bench.manifests(variant, [stage])[stage.name] != reference[stage.name]:
            problems.append(f"{variant.name}/{stage.out}: manifest differs from the untraced run")
        if problems:
            bench.fail(problems)

    layers = dict(result["layers"])
    layers["cli.startup_s"] = sum(r.wall_s - result["plain_s"][r.stage.name] for r in runs)
    layers["cli.artifact_bytes"] = float(sum(
        (traced_dir / s.out / rel).stat().st_size
        for s in stages for rel in manifest_hashes(traced_dir / s.out)))
    layers["trace_overhead"] = (sum(result["traced_s"][s.name] for s in stages)
                                / sum(result["plain_s"][s.name] for s in stages))
    return {"metrics": layers, "stage_walls": [[r.wall_s for r in runs]],
            "plain_s": result["plain_s"], "traced_s": result["traced_s"]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=sorted(SCALES), default="wei")
    args = parser.parse_args(argv)
    # a terminated harness stops its running stage instead of orphaning it
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    root = Path.cwd()
    if not (root / "src" / "shmev" / "cli.py").is_file():
        print(f"error: no shmev source under {root / 'src'}; run from a checkout root", file=sys.stderr)
        return 2
    bench = Bench(root, args.workload, SCALES[args.scale], args.seed)
    shutil.rmtree(bench.work, ignore_errors=True)
    bench.work.mkdir(parents=True)

    setup_s = []
    for _ in range(1 if args.trace else SETUP_REPEATS):
        start = time.perf_counter()
        ok = bench.setup()
        setup_s.append(time.perf_counter() - start)
        if not ok:
            break
    if bench.failed == 0:
        result = trace(bench) if args.trace else measure(bench, args.seconds)
    else:
        result = {"metrics": {}}
    metrics = dict(result["metrics"])
    if not args.trace:
        metrics = {"setup_s": statistics.median(setup_s), **metrics}
    extra = result.get("extra", {})
    extra["fail_rate"] = bench.failed / max(bench.attempted, 1)
    correct = bench.failed == 0 and all(v is not None for v in metrics.values())

    report = {
        "workload": args.workload,
        "scale": args.scale,
        "trace": args.trace,
        "metadata": run_metadata(root, bench.env, args.seed),
        "setup_s": setup_s,
        **{k: v for k, v in result.items() if k not in ("metrics", "extra")},
        "metrics": metrics,
        "extra": extra,
        "problems": bench.problems,
    }
    suffix = "_trace" if args.trace else ""
    (root / ".perfbench" / f"BENCH_{args.workload}_seed{args.seed}{suffix}.json").write_text(
        json.dumps(report, indent=1) + "\n")

    for key, value in report["metadata"].items():
        print(f"# {key}: {value}")
    for problem in bench.problems:
        print(f"! {problem}")
    for name, value in {**metrics, **extra}.items():
        print(f"{name:34s} {'-' if value is None else f'{value:.6g}':>14s} {unit_of(name)}")
    print(json.dumps({
        "correct": correct,
        "attempted": max(bench.attempted, 1),
        "failed": bench.failed,
        "metrics": {k: {"value": v, "unit": unit_of(k)} for k, v in metrics.items()},
    }))
    return 0 if correct else 1


def unit_of(name: str) -> str:
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith("_s") or name.endswith("_s_p50"):
        return "s"
    if name.endswith("_mb"):
        return "MB"
    if name == "predictive.cdf_grid_bytes":
        return "bytes_computed"
    if name.endswith("_bytes"):
        return "bytes"
    if name.endswith("_us_p50") or name.endswith("_us_p99"):
        return "us"
    if name.endswith("ns_per_event"):
        return "ns"
    if name in ("fail_rate", "trace_overhead", "hmc.parallel_speedup", "hmc.accept_prob",
                "hmc.min_ess_per_grad_eval"):
        return "ratio"
    return "count"


if __name__ == "__main__":
    raise SystemExit(main())
