"""In-process traced run: per-layer spans around shmev's public functions.

Run as ``python3 perfbench/tracer.py PLAN.json RESULT.json``.  The plan
lists the stages of two variants.  The ``plain`` stages run first through
``shmev.cli.run_command`` with nothing wrapped, which gives the in-process
wall of each stage.  The layer functions are then wrapped where the CLI
(and the modules it calls) look them up, and the ``traced`` stages run the
same commands into another variant.  Spans are kept in memory and written
out at the end; the wrappers pass arguments and results through untouched,
so the traced artifacts must match the untraced ones byte for byte.

A span is ``(id, parent, name, thread, start, end, attrs)``; a layer's self
time is its duration minus the time its child spans cover.  Target calls
(one log-posterior plus gradient each) are spans too, parented to the
``run_hmc`` call that made them, whichever chain thread ran them.
"""
from __future__ import annotations

import json
import sys
import threading
import time
from pathlib import Path

import numpy as np


class Tracer:
    """Span recorder; one instance per traced process."""

    def __init__(self):
        self.spans: list[dict] = []
        self._local = threading.local()
        self._next = 0
        self._lock = threading.Lock()
        self.cdf_at_calls = 0

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _new_id(self) -> int:
        with self._lock:
            self._next += 1
            return self._next

    def record(self, name, start, end, parent=None, **attrs) -> None:
        self.spans.append({"id": self._new_id(), "parent": parent, "name": name,
                           "thread": threading.get_ident(), "start": start, "end": end, **attrs})

    def wrap(self, name, fn, attrs=None):
        """Span each call of ``fn`` under the calling thread's open span."""
        tracer = self

        def wrapper(*args, **kwargs):
            stack = tracer._stack()
            span_id = tracer._new_id()
            parent = stack[-1] if stack else None
            stack.append(span_id)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
            extra = attrs(args, kwargs, result) if attrs else {}
            tracer.spans.append({"id": span_id, "parent": parent, "name": name,
                                 "thread": threading.get_ident(), "start": start, "end": end, **extra})
            return result

        return wrapper

    def current(self):
        stack = self._stack()
        return stack[-1] if stack else None


class TimedTarget:
    """Pass-through target that records one span per log-density call, with
    the calling thread's CPU clock so chain threads can be accounted apart
    from the time they spend waiting for the interpreter lock."""

    def __init__(self, tracer: Tracer, target, kind: str, parent):
        self._tracer, self._target, self.kind, self._parent = tracer, target, kind, parent

    def __call__(self, v):
        cpu_start, start = time.thread_time(), time.perf_counter()
        result = self._target(v)
        end, cpu_end = time.perf_counter(), time.thread_time()
        self._tracer.record(f"model.{self.kind}", start, end, self._parent,
                            cpu_start=cpu_start, cpu_end=cpu_end)
        return result


_TARGET_KINDS = {"ShmevTarget": "shmev", "HmevTarget": "hmev", "GevTarget": "gev"}


def _kind(target) -> str:
    return _TARGET_KINDS.get(type(target).__name__, type(target).__name__)


def _count_rows(path) -> int:
    with open(path, "rb") as fh:
        return sum(1 for _ in fh) - 1


def install(tracer: Tracer) -> None:
    """Wrap the layer functions where the CLI and its callees look them up."""
    import shmev.cli as cli
    import shmev.hmc as hmc
    import shmev.predictive as predictive

    def wrap(owner, attr, name, attrs=None):
        setattr(owner, attr, tracer.wrap(name, getattr(owner, attr), attrs))

    orig_run_hmc = cli.run_hmc

    def run_hmc(target, config, init, param_names=None, n_workers=1):
        timed = TimedTarget(tracer, target, _kind(target), tracer.current())
        return orig_run_hmc(timed, config, init, param_names, n_workers)

    def run_attrs(args, kwargs, post):
        target, ess = args[0], post.ess
        return {
            "kind": _kind(target),
            "events": int(target.dataset.counts().sum()) if _kind(target) == "shmev" else 0,
            "min_ess": None if ess is None or np.all(np.isnan(ess)) else float(np.nanmin(ess)),
            "divergences": int(np.sum(post.divergences)),
            "accept_prob": float(np.mean(post.accept_prob)),
        }

    def grid_bytes(args, kwargs, est):
        # the (B, M, grid) float64 values the cdf fill computes
        return {"bytes": int(est.blocks.gamma.size * est.y.size * 8)}

    cli.run_hmc = tracer.wrap("hmc.run_hmc", run_hmc, run_attrs)
    wrap(cli, "rhat_ess", "hmc.rhat_ess")
    wrap(hmc, "rhat_ess", "hmc.rhat_ess")  # called inside run_hmc
    wrap(cli, "trace_export", "hmc.trace_export", lambda a, k, r: {"rows": int(a[0].n_draws * a[0].dim)})
    wrap(cli, "load_and_qc", "ingest.load_and_qc", lambda a, k, r: {"rows": _count_rows(a[0])})
    wrap(cli, "elicit_priors", "ingest.elicit")
    wrap(cli, "elicit_hmev_priors", "ingest.elicit")
    wrap(cli, "load_fit", "cli.load_fit")
    wrap(cli.ArtifactSession, "write_manifest", "cli.write_manifest")
    wrap(cli, "simulate_scenario", "simulate.simulate_scenario")
    wrap(cli, "predictive_cdf", "predictive.predictive_cdf", grid_bytes)
    wrap(predictive, "predictive_cdf", "predictive.predictive_cdf", grid_bytes)  # return_level_map
    wrap(predictive, "simulate_future_blocks", "predictive.simulate_future_blocks")
    wrap(predictive.MaximaCdfEstimate, "per_draw_quantiles", "predictive.per_draw_quantiles")
    wrap(cli, "evaluate_site", "metrics.evaluate_site")

    # one exact count per bisection evaluation; a span each would be noise
    orig_cdf_at = predictive.BlockDraws.cdf_at

    def cdf_at(self, y):
        tracer.cdf_at_calls += 1
        return orig_cdf_at(self, y)

    predictive.BlockDraws.cdf_at = cdf_at


# ---------------------------------------------------------------------------
# Per-layer metrics
# ---------------------------------------------------------------------------

def _children(spans):
    kids: dict[int, list[dict]] = {}
    for s in spans:
        if s["parent"] is not None:
            kids.setdefault(s["parent"], []).append(s)
    return kids


def _dur(span) -> float:
    return span["end"] - span["start"]


def _self_time(span, kids, names=None) -> float:
    covered = sum(_dur(c) for c in kids.get(span["id"], []) if names is None or c["name"] in names)
    return _dur(span) - covered


def layer_metrics(spans: list[dict], cdf_at_calls: int) -> dict[str, float]:
    """Per-layer metrics from one traced pass; layers that did no work read 0."""
    by_name: dict[str, list[dict]] = {}
    for s in spans:
        by_name.setdefault(s["name"], []).append(s)
    kids = _children(spans)

    def total(name):
        return float(sum(_dur(s) for s in by_name.get(name, [])))

    out: dict[str, float] = {}
    ingest = by_name.get("ingest.load_and_qc", [])
    out["ingest.rows"] = float(sum(s["rows"] for s in ingest))
    out["ingest.load_and_qc_s"] = total("ingest.load_and_qc")
    out["ingest.rows_per_s"] = out["ingest.rows"] / out["ingest.load_and_qc_s"] if ingest else 0.0
    out["ingest.elicit_s"] = total("ingest.elicit")

    for kind, stats in (("shmev", ("p50", "p99")), ("hmev", ("p50", "p99")), ("gev", ("p50",))):
        calls = np.array([_dur(s) for s in by_name.get(f"model.{kind}", [])])
        out[f"model.{kind}.calls"] = float(calls.size)
        for stat in stats:
            q = float(np.percentile(calls, float(stat[1:]))) * 1e6 if calls.size else 0.0
            out[f"model.{kind}.call_us_{stat}"] = q
        if kind == "shmev":
            events = max((s["events"] for s in by_name.get("hmc.run_hmc", []) if s["kind"] == "shmev"), default=0)
            out["model.shmev.ns_per_event"] = out["model.shmev.call_us_p50"] * 1e3 / events if events else 0.0
        out[f"model.{kind}.busy_s"] = float(calls.sum())

    runs = by_name.get("hmc.run_hmc", [])
    grad_evals, chain_busy, target_cpu, run_wall = 0, 0.0, 0.0, 0.0
    efficiency = []
    for run in runs:
        calls = [c for c in kids.get(run["id"], []) if c["name"].startswith("model.")]
        per_thread: dict[int, list[dict]] = {}
        for c in calls:
            per_thread.setdefault(c["thread"], []).append(c)
        # a chain thread is busy for the CPU time it spent between its
        # first and last target call; lock waits do not count
        chain_busy += sum(max(c["cpu_end"] for c in cs) - min(c["cpu_start"] for c in cs)
                          for cs in per_thread.values())
        target_cpu += sum(c["cpu_end"] - c["cpu_start"] for c in calls)
        run_wall += _dur(run)
        grad_evals += len(calls)
        if run["min_ess"] is not None and calls:
            efficiency.append(run["min_ess"] / len(calls))
    out["hmc.grad_evals"] = float(grad_evals)
    out["hmc.self_s"] = chain_busy - target_cpu
    out["hmc.parallel_speedup"] = chain_busy / run_wall if runs else 0.0
    out["hmc.min_ess_per_grad_eval"] = min(efficiency) if efficiency else 0.0
    out["hmc.divergences"] = float(sum(r["divergences"] for r in runs))
    out["hmc.accept_prob"] = float(np.mean([r["accept_prob"] for r in runs])) if runs else 0.0
    out["hmc.rhat_ess_s"] = total("hmc.rhat_ess")
    out["hmc.trace_export_s"] = total("hmc.trace_export")
    out["hmc.trace_rows"] = float(sum(s["rows"] for s in by_name.get("hmc.trace_export", [])))

    # a site (or grid point) costs its cdf estimate plus the quantile pass
    # that follows it on the same thread
    cdfs = sorted(by_name.get("predictive.predictive_cdf", []), key=lambda s: s["start"])
    quants = sorted(by_name.get("predictive.per_draw_quantiles", []), key=lambda s: s["start"])
    site_s = []
    for i, cdf in enumerate(cdfs):
        nxt = cdfs[i + 1]["start"] if i + 1 < len(cdfs) else float("inf")
        site_s.append(_dur(cdf) + sum(_dur(q) for q in quants if cdf["end"] <= q["start"] < nxt))
    out["predictive.sites"] = float(len(cdfs))
    out["predictive.site_s_p50"] = float(np.median(site_s)) if site_s else 0.0
    out["predictive.simulate_blocks_s"] = total("predictive.simulate_future_blocks")
    out["predictive.cdf_grid_s"] = float(sum(
        _self_time(s, kids, {"predictive.simulate_future_blocks"}) for s in cdfs))
    out["predictive.cdf_grid_bytes"] = float(sum(s["bytes"] for s in cdfs))
    out["predictive.quantiles_s"] = total("predictive.per_draw_quantiles")
    out["predictive.cdf_at_calls"] = float(cdf_at_calls)
    out["metrics.evaluate_site_self_s"] = float(sum(
        _self_time(s, kids) for s in by_name.get("metrics.evaluate_site", [])))

    out["cli.load_fit_s"] = total("cli.load_fit")
    out["cli.manifest_s"] = total("cli.write_manifest")
    out["simulate.scenario_s"] = total("simulate.simulate_scenario")
    return out


def main(plan_path: str, result_path: str) -> int:
    plan = json.loads(Path(plan_path).read_text())
    from shmev.cli import run_command

    def run(stage):
        start = time.perf_counter()
        run_command(stage["command"], stage["config"], stage["out"], plan["seed"], plan["threads"])
        return time.perf_counter() - start

    plain = {s["name"]: run(s) for s in plan["plain"]}

    tracer = Tracer()
    install(tracer)
    traced = {s["name"]: tracer.wrap(f"stage.{s['name']}", run)(s) for s in plan["traced"]}

    result = {
        "plain_s": plain,
        "traced_s": traced,
        "layers": layer_metrics(tracer.spans, tracer.cdf_at_calls),
    }
    with open(plan["spans"], "w", encoding="utf-8") as fh:
        for span in tracer.spans:
            fh.write(json.dumps(span) + "\n")
    Path(result_path).write_text(json.dumps(result, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(*sys.argv[1:3]))
