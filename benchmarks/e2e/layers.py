"""Per-layer metrics of the traced pass.

``collect`` reads three things and nothing else: the spans the recorder
took around the harness's own calls into ``repro`` (set-up, rounds,
oracle), the *public outputs* those calls returned (``PassTrace`` rows,
``ServeReport`` fields, ``ExecStats``, ``FallbackRecord``s), and a few
replays it makes itself — the same public function called again, alone,
with a span around it (``analyze_program``, the emitters, ``plan_loop``,
``payload_digest``, ``capture_run``, ``Simulator.price``, ...).

Every workload reports every name in ``NAMES``; a layer the workload
never enters reads ``None`` here (printed as ``-``, written as 0 in the
one-line JSON result). Times are ms (``_us``: microseconds); a name
without a time suffix is a count or a ratio and its base is in the
README glossary.
"""

from __future__ import annotations

import os
import statistics
import subprocess
import sys
from typing import Any, Dict, List, Optional, Tuple

import workloads as W
from metrics import ROOT
from trace import self_times

from repro.analysis.stencil import analyze_program
from repro.backend import plan_loop, run_program_numpy
from repro.bench import get_bundle
from repro.codegen import generate_cpp, generate_cuda
from repro.core.multiloop import MultiLoop
from repro.obs import (MetricsRegistry, Tracer, chrome_trace_events,
                       decomposition_summary, render_collapsed)
from repro.runtime import (DMLL_CPP, EC2_CLUSTER, GPU_CLUSTER, ExecOptions,
                           Simulator, capture_run)
from repro.serve import ProgramCache, ServeSim, payload_digest, quantile

PASSES = ("aos-to-soa", "cse", "fuse-vertical", "rewrite-lengths", "dce",
          "code-motion", "groupby-reduce", "fuse-horizontal", "partition",
          "partition-report", "gpu-rules")

NAMES: Tuple[str, ...] = (
    # what the system's users read off the simulated clock: reported
    # here, not as bounded end-to-end metrics, because for a fixed seed
    # they are exact (see README: "the two clocks")
    "sim_s_total", "sim_p50_ms", "sim_p99_ms", "sim_max_rate_rps",
    "sim_availability",
    "data.generate_ms", "tools.import_ms", "tools.cli_help_ms",
    "frontend.stage_ms",
    *(f"passes.{p}_ms" for p in PASSES),
    "pipeline.unattributed_ms",
    *(f"pipeline.compile_ms.{a}" for a in W.APPS),
    *(f"pipeline.compile_ms_variant.{v}" for v in W.VARIANTS),
    "pipeline.stmts_out", "pipeline.loops_out", "pipeline.rules_applied",
    "pipeline.decisions",
    "analysis.stencil_ms", "codegen.emit_ms", "codegen.emit_bytes",
    *(f"core.interp.run_ms.{a}" for a in W.APPS),
    *(f"backend.run_ms.{a}" for a in W.APPS),
    *(f"backend.run_ms_gpu.{a}" for a in W.SERVE_APPS),
    *(f"backend.speedup.{a}" for a in W.APPS),
    "backend.plan_ms", "backend.prepare_inputs_ms", "backend.fallback_loops",
    "runtime.capture_overhead_ratio", "runtime.price_us",
    "runtime.total_cycles",
    *(f"runtime.sim_s.{a}" for a in W.APPS),
    "serve.batching.digest_ms", "serve.batching.batch_mean",
    "serve.batching.lane_packed_share",
    "serve.cache.miss_compile_ms", "serve.cache.hit_us", "serve.cache.hits",
    "serve.cache.misses",
    "serve.scheduler.req_per_host_s", "serve.scheduler.batches",
    "serve.scheduler.util_mean",
    "serve.scheduler.replay_ms", "serve.scheduler.self_ms",
    *(f"serve.resilience.{k}" for k in (
        "retries", "hedges", "hedges_wasted", "rejected", "breaker_trips",
        "degraded_apps")),
    "serve.faults.injected",
    "serve.simulator.report_ms",
    "obs.tracer_overhead_ratio", "obs.export_trace_ms", "obs.export_flame_ms",
    "obs.export_prom_ms", "obs.decomposition_ms", "obs.check_ms",
    "obs.trace_events", "obs.trace_violations",
    "harness.trace_overhead_ratio", "harness.round_self_ms",
)

#: name -> (value, samples behind it)
Out = Dict[str, Tuple[float, int]]


def _median(out: Out, name: str, samples: List[float],
            factor: float = 1.0) -> None:
    if samples:
        out[name] = (statistics.median(samples) * factor, len(samples))


def _mean(out: Out, name: str, samples: List[float]) -> None:
    if samples:
        out[name] = (sum(samples) / len(samples), len(samples))


def _call(w: W.Workload, name: str, tags: Dict[str, Any], fn, *args
          ) -> Tuple[float, Any]:
    """One replayed call into a layer, under a span: (ms, result)."""
    with w.rec.span(name, **tags) as span:
        result = fn(*args)
    return (span["end"] - span["start"]) * 1e3, result


def collect(w: W.Workload, traced_s: List[float],
            untraced_s: List[float]) -> Dict[str, Optional[Tuple[float, int]]]:
    """Every per-layer metric for one workload's traced pass."""
    out: Out = {}
    _simulated_clock(w, out)
    _tools(w, out)
    _mean(out, "frontend.stage_ms", w.rec.durations_ms("frontend.stage"))
    gen = w.rec.durations_ms("data.generate")
    out["data.generate_ms"] = (sum(gen), len(gen))
    if isinstance(w, W.Serve):
        _serve(w, out)
    else:
        _programs_run(w, out)
    _median(out, "runtime.price_us", w.rec.durations_ms("runtime.price"),
            1e3)
    _compiles(w, out)
    out["harness.trace_overhead_ratio"] = (
        statistics.median(traced_s) / statistics.median(untraced_s),
        len(traced_s))
    # what a traced round spends outside every layer call: the
    # harness's own loop and accounting
    _median(out, "harness.round_self_ms",
            [t * 1e3 for s, t in zip(w.rec.spans, self_times(w.rec.spans))
             if s["name"] == "harness.round"])
    unknown = set(out) - set(NAMES)
    if unknown:
        raise KeyError(f"undeclared per-layer metrics: {sorted(unknown)}")
    return {name: out.get(name) for name in NAMES}


# ---------------------------------------------------------------------------
# the simulated clock, end to end
# ---------------------------------------------------------------------------

def _simulated_clock(w: W.Workload, out: Out) -> None:
    """Over the workload's simulated durations — one priced
    ``total_seconds`` per program, or one latency per served request of
    the reference run: their sum and nearest-rank p50 / p99."""
    sims = sorted(w.sim_samples)
    n = len(sims)
    out["sim_s_total"] = (sum(sims), n)
    out["sim_p50_ms"] = (quantile(sims, 0.50) * 1e3, n)
    out["sim_p99_ms"] = (quantile(sims, 0.99) * 1e3, n)
    out["sim_availability"] = (w.sim_availability, n)
    if isinstance(w, W.ServeOpenShared):
        out["sim_max_rate_rps"] = (w.max_rate, len(w.reports))


# ---------------------------------------------------------------------------
# tools: what a fresh process pays before any work
# ---------------------------------------------------------------------------

def _tools(w: W.Workload, out: Out) -> None:
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    for name, argv in (
            ("tools.import_ms", ["-c", "import repro.tools"]),
            ("tools.cli_help_ms", ["-m", "repro.tools", "--help"])):
        ms, _ = _call(w, name, {}, lambda: subprocess.run(
            [sys.executable, *argv], check=True, env=env,
            stdout=subprocess.DEVNULL))
        out[name] = (ms, 1)


# ---------------------------------------------------------------------------
# frontend / passes / optim / transforms / analysis / codegen
# ---------------------------------------------------------------------------

def _compiles(w: W.Workload, out: Out) -> None:
    """From the ``PassTrace`` rows of every compile the workload made:
    mean ms per compiled program of each pass, and what no pass owns."""
    log = w.compile_log
    if not log:
        return
    n = len(log)
    per_pass = dict.fromkeys(PASSES, 0.0)
    unattributed = 0.0
    latest: Dict[Tuple[str, str], Any] = {}
    for app, variant, compiled, ms in log:
        for t in compiled.trace:
            per_pass[t.name] += t.wall_ms
        unattributed += ms - sum(t.wall_ms for t in compiled.trace)
        latest[(app, variant)] = compiled
    for p in PASSES:
        out[f"passes.{p}_ms"] = (per_pass[p] / n, n)
    out["pipeline.unattributed_ms"] = (unattributed / n, n)
    for app in W.APPS:
        _median(out, f"pipeline.compile_ms.{app}",
                [ms for a, v, _, ms in log if a == app and v == "opt"])
    for variant in W.VARIANTS:
        _mean(out, f"pipeline.compile_ms_variant.{variant}",
              [ms for _, v, _, ms in log if v == variant])

    # counts over the distinct programs: the size of what the pipeline
    # hands to every later layer
    distinct = list(latest.values())
    k = len(distinct)
    out["pipeline.stmts_out"] = (
        sum(c.trace[-1].stmts_after for c in distinct), k)
    out["pipeline.loops_out"] = (
        sum(c.trace[-1].loops_after for c in distinct), k)
    out["pipeline.rules_applied"] = (
        sum(len(c.report.applied_rules) for c in distinct), k)
    out["pipeline.decisions"] = (sum(len(c.provenance) for c in distinct), k)

    stencil, emit, size = [], [], 0
    for (app, variant), compiled in latest.items():
        tags = {"app": app, "variant": variant}
        ms, _ = _call(w, "analysis.stencil", tags, analyze_program,
                      compiled.program)
        stencil.append(ms)
        emitter = generate_cuda if variant == "gpu" else generate_cpp
        ms, text = _call(w, "codegen.emit", tags, emitter, compiled.program)
        emit.append(ms)
        size += len(text.encode())
    _mean(out, "analysis.stencil_ms", stencil)
    _mean(out, "codegen.emit_ms", emit)
    out["codegen.emit_bytes"] = (size, k)


# ---------------------------------------------------------------------------
# core.interp / backend / runtime on the program workloads
# ---------------------------------------------------------------------------

def _programs_run(w: W.Workload, out: Out) -> None:
    rec = w.rec
    out["backend.fallback_loops"] = (sum(w.fallbacks.values()),
                                     len(w.fallbacks))
    out["runtime.total_cycles"] = (sum(w.cycles.values()), len(w.cycles))
    for app, sim_s in w.sim_by_app.items():
        out[f"runtime.sim_s.{app}"] = (sim_s, 1)
    if not isinstance(w, W.Exec):
        return
    run_ms = {a: statistics.median(rec.durations_ms("backend.run", app=a))
              for a in w.apps}
    prepare = plan = 0.0
    for app in w.apps:
        n = len(rec.durations_ms("backend.run", app=app))
        out[f"backend.run_ms.{app}"] = (run_ms[app], n)
        interp_ms = rec.durations_ms("core.interp.run", app=app)[0]
        out[f"core.interp.run_ms.{app}"] = (interp_ms, 1)
        out[f"backend.speedup.{app}"] = (interp_ms / run_ms[app], 1)
        prepare += statistics.median(
            rec.durations_ms("backend.prepare_inputs", app=app))
        compiled = w.compiled[app]
        ms, _ = _call(w, "backend.plan", {"app": app}, lambda: [
            plan_loop(d.op) for d in compiled.program.body.stmts
            if isinstance(d.op, MultiLoop)])
        plan += ms
        # the oracle pass's capture, priced on the two cluster models it
        # did not use
        cap = w.captures[app]
        opts = ExecOptions(scale=w.served[app].scale,
                           data_scale=w.served[app].data_scale)
        for cluster in (EC2_CLUSTER, GPU_CLUSTER):
            with rec.span("runtime.price", app=app, cluster=cluster.name):
                Simulator(compiled, cluster, DMLL_CPP, opts).price(cap)
    out["backend.prepare_inputs_ms"] = (prepare, len(w.apps))
    out["backend.plan_ms"] = (plan, len(w.apps))
    out["runtime.capture_overhead_ratio"] = (
        sum(rec.durations_ms("runtime.capture")) / sum(run_ms.values()),
        len(w.apps))


# ---------------------------------------------------------------------------
# serve.* and obs on the traffic workloads
# ---------------------------------------------------------------------------

def _serve(w: W.Serve, out: Out) -> None:
    rec = w.rec
    fleet = isinstance(w, W.ServeTenantsFleet)
    cache, report = w.cache, w.report
    reports = list(w.reports.values())
    payloads = w.sizes.fleet_payloads if fleet else 1

    # compiles behind the cache, as its public entries describe them
    for app in W.SERVE_APPS:
        for variant in w.variants:
            entry = cache.get(app, variant)
            w.compile_log.append((app, variant, entry.compiled,
                                  entry.compile_s * 1e3))

    # serve.batching: one digest per distinct payload (a tenant's salt
    # changes the key, not the bytes that get hashed)
    digests = []
    for app in W.SERVE_APPS:
        inputs = get_bundle(app).inputs
        for _ in range(payloads):
            ms, _ = _call(w, "serve.batching.digest", {"app": app},
                          payload_digest, inputs)
            digests.append(ms)
    _median(out, "serve.batching.digest_ms", digests)
    out["serve.batching.batch_mean"] = (report.batch_mean, report.batches)
    out["serve.batching.lane_packed_share"] = (
        report.lane_packed_requests / report.requests, report.requests)

    # serve.cache
    misses = (_cold_misses(w) if fleet
              else rec.durations_ms("serve.cache.miss"))
    _median(out, "serve.cache.miss_compile_ms", misses)
    hits = [_call(w, "serve.cache.hit", {"app": app}, cache.get, app,
                  "opt")[0]
            for _ in range(50) for app in W.SERVE_APPS]
    _median(out, "serve.cache.hit_us", hits, 1e3)
    out["serve.cache.hits"] = (report.cache["hits"], 1)
    out["serve.cache.misses"] = (report.cache["misses"], 1)

    # serve.scheduler: the traffic call as a whole
    run_rounds: Dict[int, float] = {}
    for s in rec.spans:
        if s["name"] == "serve.run" and s["round"] >= 0:
            run_rounds[s["round"]] = (run_rounds.get(s["round"], 0.0)
                                      + s["end"] - s["start"])
    run_s = statistics.median(run_rounds.values())
    submitted = sum(r.requests + r.rejected for r in reports)
    out["serve.scheduler.req_per_host_s"] = (submitted / run_s,
                                             len(run_rounds))
    out["serve.scheduler.batches"] = (report.batches, 1)
    out["serve.scheduler.util_mean"] = (
        statistics.fmean(report.machine_util.values()),
        len(report.machine_util))

    # serve.resilience / serve.faults
    res = report.resilience
    if res is not None:
        for key in ("retries", "hedges", "hedges_wasted", "rejected"):
            out[f"serve.resilience.{key}"] = (res[key], 1)
        out["serve.resilience.breaker_trips"] = (
            sum(b["trips"] for b in res.get("breaker", {}).values()), 1)
        out["serve.resilience.degraded_apps"] = (len(res["degraded"]), 1)
        out["serve.faults.injected"] = (sum(res["fault_counts"].values()), 1)

    # serve.simulator: reducing responses to the report
    if not rec.durations_ms("serve.simulator.report"):
        _call(w, "serve.simulator.report", {}, ServeSim.report, report.mode,
              w.last_server, w.last_server.responses)
    _median(out, "serve.simulator.report_ms",
            rec.durations_ms("serve.simulator.report"))

    if fleet:
        _fleet_replay(w, out, run_s * 1e3, digests, misses)
    elif isinstance(w, W.ServeChaosObserved):
        _obs_chaos(w, out)
    else:
        _obs_open(w, out)


def _cold_misses(w: W.Serve) -> List[float]:
    """What a cold ``ProgramCache`` pays per miss, on a cache of its
    own (the run's cache is warm by now)."""
    cold = ProgramCache({a.name: a.factory for a in w.sim.served})
    return [_call(w, "serve.cache.miss", {"app": app, "variant": variant},
                  cold.get, app, variant)[0]
            for app in W.SERVE_APPS for variant in w.variants]


def _fleet_replay(w: W.ServeTenantsFleet, out: Out, run_ms: float,
                  digests: List[float], misses: List[float]) -> None:
    """Account for the round from outside: replay each distinct key of
    the run through the public function that the server calls for it —
    a digest per payload, a compile per cold cache entry, a capture per
    (app, tenant, variant) and a price per (machine model, app, variant,
    tenant) — and call what is left the scheduler's own time. Placement
    by predicted service time makes the server capture every tenant on
    both machine kinds, so the keys are the full product."""
    captures, prices, fallback_loops = [], [], 0
    for served in w.sim.served:
        app = served.name
        for variant in w.variants:
            compiled = w.cache.get(app, variant).compiled
            tags = {"app": app, "variant": variant}
            for _ in range(w.sizes.fleet_payloads):
                ms, cap = _call(
                    w, "runtime.capture", tags, lambda: capture_run(
                        compiled, served.default_inputs, backend="numpy"))
                captures.append(ms)
                ms, _ = _call(w, "runtime.price", tags, W.price, served,
                              compiled, cap, variant)
                prices.append(ms)
        gpu = w.cache.get(app, "gpu").compiled
        prepared = gpu.prepare_inputs(served.default_inputs)
        ms, (_, _, fallbacks) = _call(
            w, "backend.run", {"app": app, "variant": "gpu"},
            run_program_numpy, gpu.program, prepared)
        out[f"backend.run_ms_gpu.{app}"] = (ms, 1)
        fallback_loops += len(fallbacks)
    out["backend.fallback_loops"] = (fallback_loops, len(W.SERVE_APPS))
    replay = sum(digests) + sum(misses) + sum(captures) + sum(prices)
    out["serve.scheduler.replay_ms"] = (
        replay, len(digests) + len(misses) + len(captures) + len(prices))
    out["serve.scheduler.self_ms"] = (run_ms - replay, 1)


def _tracer_ratio(w: W.Serve, out: Out, on, off) -> None:
    """The program's own ``Tracer()`` on / off: the same seeded run both
    ways, alternating, twice."""
    on_ms, off_ms = [], []
    for _ in range(2):
        on_ms.append(_call(w, "obs.tracer_on", {}, on)[0])
        off_ms.append(_call(w, "obs.tracer_off", {}, off)[0])
    out["obs.tracer_overhead_ratio"] = (
        statistics.median(on_ms) / statistics.median(off_ms), len(on_ms))


def _obs_open(w: W.ServeOpenShared, out: Out) -> None:
    """Plain traffic with the program's tracer on, and one export of
    each kind from that run."""
    rate, n = w.sizes.open_report_rate, w.sizes.open_requests
    tracer = Tracer()
    traced = ServeSim(W.SERVE_APPS, machines="numa", max_batch=8,
                      max_wait_s=0.02, backend="numpy", payloads=1,
                      tracer=tracer)
    for app in W.SERVE_APPS:
        traced.cache.get(app, "opt")

    def on():
        tracer.clear()
        traced.run_open(rate, n, w.seed)

    _tracer_ratio(w, out, on, lambda: w.sim.run_open(rate, n, w.seed))
    ms, events = _call(w, "obs.export_trace", {}, chrome_trace_events, tracer)
    out["obs.export_trace_ms"] = (ms, 1)
    out["obs.trace_events"] = (len(events), 1)
    ms, _ = _call(w, "obs.export_flame", {}, render_collapsed, tracer)
    out["obs.export_flame_ms"] = (ms, 1)
    ms, _ = _call(w, "obs.decomposition", {}, decomposition_summary,
                  traced.last_server)
    out["obs.decomposition_ms"] = (ms, 1)


def _obs_chaos(w: W.ServeChaosObserved, out: Out) -> None:
    for name in ("export_trace", "export_flame", "export_prom", "check"):
        _median(out, f"obs.{name}_ms", w.rec.durations_ms(f"obs.{name}"))
    out["obs.trace_events"] = (len(w.events), 1)
    out["obs.trace_violations"] = (w.trace_violations, 1)
    ms, _ = _call(w, "obs.decomposition", {}, decomposition_summary,
                  w.last_server)
    out["obs.decomposition_ms"] = (ms, 1)
    _tracer_ratio(w, out, lambda: w.serve(Tracer(), MetricsRegistry()),
                  lambda: w.serve(None, MetricsRegistry()))
