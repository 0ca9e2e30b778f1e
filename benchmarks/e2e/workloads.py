"""The six workloads of the end-to-end benchmark.

Each workload is a class with the same three steps, driven by
``run.py`` inside a fresh child process:

``setup``   imports are done, now generate data and compile/warm until
            the workload is ready for round 1 (this is ``setup_s``);
``round``   one pass over the workload's fixed work, returning the wall
            time of each of its *parts* (programs, rate steps, export
            stages) so that ``geomean_ms`` can weight them equally;
``verify``  the oracle and the accounting: every compile, execution,
            request and comparison is an attempted op, every mismatch,
            lost request or nondeterministic report a failed one.

The traced pass adds ``layers.collect``: replays through the public
functions of single layers, timed one by one.

Every call into ``repro`` goes through a public function and is wrapped
in a ``Recorder.span`` named after the layer it enters; with the
recorder off those are no-ops, which is how the untraced pass runs.

Why these six is each class's ``why`` (one sentence, also in
``BENCHMARK.json``); sizes are the constants in ``FULL`` — there is no
CLI knob except ``--smoke``, which the harness tests use.
"""

from __future__ import annotations

import hashlib
import json
import random
import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple

import metrics  # noqa: F401  (puts src/ on sys.path)
from trace import Recorder

from repro.backend import run_program_numpy
from repro.bench import get_bundle
from repro.core.interp import run_program
from repro.core.values import deep_eq
from repro.data.datasets import (binary_labeled, gaussian_clusters,
                                 logistic_data)
from repro.data.factor_graphs import (grid_ising, random_states,
                                      random_uniforms)
from repro.data.genes import generate_reads
from repro.data.graphs import power_law_graph
from repro.data.tpch_gen import generate_lineitems
from repro.obs import (MetricsRegistry, Tracer, chrome_trace_events,
                       prometheus_text, render_collapsed)
from repro.obs.check import validate_events
from repro.pipeline import compile_program
from repro.runtime import (DMLL_CPP, NUMA_BOX, ExecOptions, Simulator,
                           capture_run)
from repro.runtime.machine import MACHINE_MODELS
from repro.serve import (BreakerConfig, ClosedLoop, FaultPlan, FaultSpec,
                         ProgramCache, ProgramServer, ResilienceConfig,
                         RetryPolicy, ServedApp, ServeSim, make_machines)
from repro.serve.cache import VARIANTS

APPS = ("kmeans", "logreg", "gda", "q1", "gene", "pagerank", "triangle",
        "gibbs")
SERVE_APPS = ("kmeans", "logreg", "q1")

#: a served request meets the latency limit when it finishes within
#: this many simulated ms of its scheduled arrival; a refusal misses it
SIM_LIMIT_MS = 100.0


@dataclass(frozen=True)
class Sizes:
    """Every size the workloads use. ``FULL`` is the benchmark;
    ``SMOKE`` only has to touch every code path quickly."""

    #: divides dataset rows; 1 keeps the bundles' shapes, which is what
    #: makes the bundles' scale factors to paper-sized inputs apply
    shrink: int = 1
    #: apps ``compile_suite`` compiles in all three variants
    suite_apps: Tuple[str, ...] = APPS
    open_rates: Tuple[int, ...] = (800, 1200, 1600, 1800)
    #: the rate whose report gives ``sim_p50_ms`` / ``sim_p99_ms``
    open_report_rate: int = 1200
    open_requests: int = 20000
    fleet_rate: int = 600
    fleet_requests: int = 6000
    fleet_payloads: int = 8
    chaos_clients: int = 16
    chaos_requests: int = 2000
    #: (crash window, slow window) on the simulated clock, inside the
    #: run's makespan so that each fires
    chaos_crash_s: Tuple[float, float] = (0.3, 0.5)
    chaos_slow_s: Tuple[float, float] = (0.8, 1.0)
    min_rounds: int = 3
    #: the traced pass alternates untraced and traced rounds: at least
    #: ``trace_rounds`` pairs, and on workloads with short rounds as many
    #: more (up to ``trace_rounds_max``) as fit in ``trace_seconds``, so
    #: that their overhead ratio is not three noisy samples
    trace_rounds: int = 3
    trace_rounds_max: int = 25
    trace_seconds: float = 1.5


FULL = Sizes()
SMOKE = Sizes(shrink=16, suite_apps=("logreg", "q1", "gibbs"),
              open_rates=(800, 1800), open_report_rate=800,
              open_requests=300, fleet_requests=200, fleet_payloads=1,
              chaos_requests=300, chaos_crash_s=(0.04, 0.08),
              chaos_slow_s=(0.1, 0.15), min_rounds=1, trace_rounds=1,
              trace_seconds=0.0)


# ---------------------------------------------------------------------------
# inputs and the calls every workload shares
# ---------------------------------------------------------------------------

def make_inputs(app: str, seed: int, shrink: int = 1) -> Dict[str, Any]:
    """The app's inputs drawn from ``seed``, in the shapes of its
    benchmark bundle (``repro.bench.apps``) divided by ``shrink``."""
    s = 1000 * seed
    if app == "kmeans":
        matrix, _ = gaussian_clusters(800 // shrink, 20, k=8, seed=s + 7)
        return {"matrix": matrix, "clusters": matrix[:8]}
    if app == "logreg":
        x, y = logistic_data(600 // shrink, 20, seed=s + 11)
        return {"x": x, "y": y, "theta": [0.0] * 20, "alpha": 0.1}
    if app == "gda":
        x, y = binary_labeled(300 // shrink, 24, seed=s + 13)
        return {"x": x, "y": y}
    if app == "q1":
        return {"lineitems": generate_lineitems(3000 // shrink, seed=s + 42)}
    if app == "gene":
        return {"reads": generate_reads(3000 // shrink, seed=s + 31)}
    if app in ("pagerank", "triangle"):
        g = power_law_graph(1200 // shrink, 7, seed=s + 3)
        if app == "triangle":
            return {"adj": g.adj}
        return {"adj": g.adj, "ranks": [1.0] * g.n, "degrees": g.degrees()}
    if app == "gibbs":
        fg = grid_ising(20 if shrink == 1 else 8, seed=s + 17)
        return {"nbr_vars": fg.nbr_vars, "nbr_weights": fg.nbr_weights,
                "states": random_states(fg.n_vars, 4, seed=s + 23),
                "rand": random_uniforms(fg.n_vars, 4, seed=s + 29)}
    raise KeyError(app)


def price(served: ServedApp, compiled, cap, variant: str):
    """Price one capture at the bundle's scale: ``NUMA_BOX``/``DMLL_CPP``
    for the CPU variants, a GPU node for ``gpu`` — the pairing the
    serving layer uses (``ProgramServer._price``)."""
    gpu = variant == "gpu"
    opts = ExecOptions(scale=served.scale, data_scale=served.data_scale,
                       use_gpu=gpu, gpu_transposed=gpu)
    cluster = MACHINE_MODELS["gpunode"] if gpu else NUMA_BOX
    return Simulator(compiled, cluster, DMLL_CPP, opts).price(cap)


class Workload:
    """Common state and accounting; subclasses fill in the three steps."""

    name = ""
    why = ""

    def __init__(self, seed: int, sizes: Sizes, rec: Recorder,
                 reference: Callable = run_program):
        self.seed = seed
        self.sizes = sizes
        self.rec = rec
        #: the independent oracle: runs a *staged, un-optimised* program
        #: (a parameter so that a test can substitute a wrong one)
        self.reference = reference
        self.attempted = 0
        self.failures: List[str] = []
        #: simulated durations (s) this workload's outputs predict: one
        #: per program, or one per served request
        self.sim_samples: List[float] = []
        #: units of work that completed on the intended path / units
        self.sim_availability = 1.0
        #: every compile the harness can see: (app, variant, compiled, ms)
        self.compile_log: List[Tuple[str, str, Any, float]] = []

    # -- accounting -------------------------------------------------------

    def check(self, ok: bool, what: str) -> None:
        """One attempted op; ``what`` names it when it failed."""
        self.attempted += 1
        if not ok:
            self.failures.append(what)

    # -- shared calls -----------------------------------------------------

    def generate(self, apps) -> None:
        """Bundles (program factories, scale factors, the served default
        datasets) and this seed's inputs."""
        with self.rec.span("data.generate"):
            self.served = {a: ServedApp.from_bundle(a) for a in apps}
            self.inputs = {a: make_inputs(a, self.seed, self.sizes.shrink)
                           for a in apps}
        if self.sizes.shrink == 1:
            for a in apps:
                for k, v in self.served[a].default_inputs.items():
                    if hasattr(v, "__len__") \
                            and len(v) != len(self.inputs[a][k]):
                        raise ValueError(
                            f"{a}.{k}: seeded input has "
                            f"{len(self.inputs[a][k])} rows but the "
                            f"bundle's scale factor assumes {len(v)}")

    def stage(self, app: str):
        with self.rec.span("frontend.stage", app=app):
            return self.served[app].factory()

    def compile(self, app: str, variant: str):
        target, kwargs = VARIANTS[variant]
        prog = self.stage(app)
        with self.rec.span("pipeline.compile", app=app,
                           variant=variant) as span:
            compiled = compile_program(prog, target, **kwargs)
        self.rec.count("pipeline.compiles")
        if span is not None:
            self.compile_log.append((app, variant, compiled,
                                     (span["end"] - span["start"]) * 1e3))
        return compiled

    def capture_and_price(self, app: str, variant: str, compiled):
        with self.rec.span("runtime.capture", app=app, variant=variant):
            cap = capture_run(compiled, self.inputs[app], backend="numpy")
        with self.rec.span("runtime.price", app=app, variant=variant):
            sim = price(self.served[app], compiled, cap, variant)
        return cap, sim

    # -- the three steps --------------------------------------------------

    def setup(self) -> None:
        raise NotImplementedError

    def round(self) -> Dict[str, float]:
        raise NotImplementedError

    def verify(self) -> None:
        raise NotImplementedError


# ---------------------------------------------------------------------------
# compile_suite
# ---------------------------------------------------------------------------

class CompileSuite(Workload):
    name = "compile_suite"
    why = ("stage + compile 8 apps x {opt, plain, gpu}: compile time alone, "
           "backend idle, so a pass speed-up shows here and nowhere else")

    def setup(self) -> None:
        self.generate(self.sizes.suite_apps)
        self.order = [(a, v) for a in self.sizes.suite_apps
                      for v in VARIANTS]
        # the seed picks the order the 24 programs arrive in
        random.Random(self.seed).shuffle(self.order)
        self.compiled: Dict[Tuple[str, str], Any] = {}

    def round(self) -> Dict[str, float]:
        parts = {}
        for app, variant in self.order:
            t0 = time.perf_counter()
            self.compiled[(app, variant)] = self.compile(app, variant)
            parts[f"{app}/{variant}"] = time.perf_counter() - t0
        self.attempted += len(self.order)
        return parts

    def verify(self) -> None:
        """Each of the 24 programs of the last round, executed on the
        NumPy backend, must equal the reference interpreter on the
        staged program; its capture is priced for the sim metrics."""
        clean = 0
        self.fallbacks: Dict[Tuple[str, str], int] = {}
        self.cycles: Dict[str, float] = {}
        self.sim_by_app: Dict[str, float] = {}
        for app in self.sizes.suite_apps:
            with self.rec.span("core.interp.run_staged", app=app):
                ref, _ = self.reference(self.stage(app), self.inputs[app])
            for variant in VARIANTS:
                compiled = self.compiled[(app, variant)]
                cap, sim = self.capture_and_price(app, variant, compiled)
                self.check(deep_eq(ref, cap.results, tol=1e-9),
                           f"{app}/{variant}: numpy results differ from the "
                           f"reference interpreter on the staged program")
                self.sim_samples.append(sim.total_seconds)
                self.fallbacks[(app, variant)] = len(cap.fallbacks)
                clean += not cap.fallbacks
                if variant == "opt":
                    self.cycles[app] = cap.stats.total_cycles
                    self.sim_by_app[app] = sim.total_seconds
        self.sim_availability = clean / len(self.order)


# ---------------------------------------------------------------------------
# exec_lane_bound / exec_dispatch_bound
# ---------------------------------------------------------------------------

class Exec(Workload):
    apps: Tuple[str, ...] = ()

    def setup(self) -> None:
        self.generate(self.apps)
        self.compiled = {a: self.compile(a, "opt") for a in self.apps}
        self.out: Dict[str, tuple] = {}

    def round(self) -> Dict[str, float]:
        parts = {}
        for app in self.apps:
            compiled = self.compiled[app]
            t0 = time.perf_counter()
            with self.rec.span("backend.prepare_inputs", app=app):
                prepared = compiled.prepare_inputs(self.inputs[app])
            with self.rec.span("backend.run", app=app):
                self.out[app] = run_program_numpy(compiled.program, prepared)
            self.rec.count("backend.runs")
            parts[app] = time.perf_counter() - t0
        self.attempted += len(self.apps)
        return parts

    def verify(self) -> None:
        clean = 0
        self.fallbacks = {}
        self.cycles: Dict[str, float] = {}
        self.sim_by_app: Dict[str, float] = {}
        self.captures: Dict[str, Any] = {}
        for app in self.apps:
            compiled = self.compiled[app]
            results, stats, fallbacks = self.out[app]
            with self.rec.span("core.interp.run_staged", app=app):
                ref, _ = self.reference(self.stage(app), self.inputs[app])
            self.check(deep_eq(ref, results, tol=1e-9),
                       f"{app}: numpy results differ from the reference "
                       f"interpreter on the staged program")
            prepared = compiled.prepare_inputs(self.inputs[app])
            with self.rec.span("core.interp.run", app=app):
                same, same_stats = run_program(compiled.program, prepared)
            # cycles are exact; results are not bit-identical, because
            # NumPy folds float reductions pairwise (the repo's own
            # differential gate accepts 1e-9 for the same reason)
            self.check(deep_eq(same, results, tol=1e-9)
                       and same_stats.total_cycles == stats.total_cycles,
                       f"{app}: numpy backend differs from the interpreter "
                       f"on the compiled program (results or total_cycles)")
            cap, sim = self.capture_and_price(app, "opt", compiled)
            self.captures[app] = cap
            self.sim_samples.append(sim.total_seconds)
            self.sim_by_app[app] = sim.total_seconds
            self.cycles[app] = stats.total_cycles
            self.fallbacks[(app, "opt")] = len(fallbacks)
            clean += not fallbacks
        self.sim_availability = clean / len(self.apps)


class ExecLaneBound(Exec):
    name = "exec_lane_bound"
    why = ("run the compiled kmeans, logreg, q1, gene, pagerank: time is in "
           "NumPy lane kernels, so removing Python dispatch must not move it")
    apps = ("kmeans", "logreg", "q1", "gene", "pagerank")


class ExecDispatchBound(Exec):
    name = "exec_dispatch_bound"
    why = ("run the compiled gda, triangle, gibbs: time is in per-op Python "
           "dispatch, the regime a lowered loop plan is predicted to speed up")
    apps = ("gda", "triangle", "gibbs")


# ---------------------------------------------------------------------------
# serving workloads
# ---------------------------------------------------------------------------

def report_json(report) -> Tuple[dict, str]:
    """The report as a capacity planner reads it: the JSON document and
    its serialisation."""
    doc = report.to_json()
    return doc, json.dumps(doc, sort_keys=True, default=str)


class Serve(Workload):
    """Accounting shared by the three traffic workloads."""

    #: compile variants the fleet's machines run
    variants: Tuple[str, ...] = ("opt",)

    @property
    def cache(self) -> ProgramCache:
        """The compile cache the workload serves from."""
        return self.sim.cache

    @property
    def last_server(self) -> ProgramServer:
        """The server of the latest run (no second reference is kept:
        a finished server holds every response)."""
        return self.sim.last_server

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        #: sha256 of the first report JSON seen per run key: every later
        #: same-seed run must reproduce it byte for byte
        self._seen: Dict[Any, str] = {}
        #: the first round's reports, which the sim metrics are read from
        self.reports: Dict[Any, Any] = {}

    def account(self, key: Any, submitted: int, report, doc: dict) -> None:
        """Requests are ops; a lost one (neither served nor refused) and
        a same-seed report that differs are failures. The report's
        ``cache`` section counts hits on a cache that outlives the run,
        so it is the one part left out of the comparison."""
        self.attempted += submitted
        self.rec.count("serve.requests", submitted)
        self.rec.count("serve.batches", report.batches)
        lost = submitted - report.requests - report.rejected
        if lost:
            self.failures.append(f"{self.name}[{key}]: {lost} of "
                                 f"{submitted} requests lost")
        digest = hashlib.sha256(json.dumps(
            {k: v for k, v in doc.items() if k != "cache"},
            sort_keys=True, default=str).encode()).hexdigest()
        if key in self._seen:
            self.check(digest == self._seen[key],
                       f"{self.name}[{key}]: same-seed report differs")
        else:
            self._seen[key] = digest
            self.reports[key] = report

    def read_latencies(self, report) -> None:
        """``report`` is the run the simulated-clock metrics come from."""
        self.report = report
        self.sim_samples = list(report.latencies_s)
        self.sim_availability = report.availability

    def warm_cache(self) -> None:
        for app in SERVE_APPS:
            with self.rec.span("serve.cache.miss", app=app, variant="opt"):
                self.cache.get(app, "opt")


class ServeOpenShared(Serve):
    name = "serve_open_shared"
    why = ("open-loop traffic, 3 apps, one payload each on one NUMA box at "
           "4 rates: 3 digests and 3 captures, so the event loop is the cost")

    def setup(self) -> None:
        with self.rec.span("data.generate"):
            for app in SERVE_APPS:
                get_bundle(app)
        with self.rec.span("serve.simulator.build"):
            self.sim = ServeSim(SERVE_APPS, machines="numa", max_batch=8,
                                max_wait_s=0.02, backend="numpy", payloads=1)
        self.warm_cache()

    def round(self) -> Dict[str, float]:
        parts = {}
        n = self.sizes.open_requests
        for rate in self.sizes.open_rates:
            t0 = time.perf_counter()
            with self.rec.span("serve.run", rate=rate):
                report = self.sim.run_open(rate, n, self.seed)
            with self.rec.span("serve.simulator.to_json"):
                doc, _ = report_json(report)
            parts[f"rate{rate}"] = time.perf_counter() - t0
            self.account(rate, n, report, doc)
        return parts

    def verify(self) -> None:
        self.read_latencies(self.reports[self.sizes.open_report_rate])
        self.max_rate = max_rate_meeting_limit(self.reports,
                                               self.sizes.open_requests)


def max_rate_meeting_limit(reports: Dict[int, Any], submitted: int) -> float:
    """Highest rate, going up from the lowest, at which at least 99 % of
    the *submitted* requests finish within ``SIM_LIMIT_MS`` (a refusal
    is a miss); 0 when even the lowest rate misses."""
    best = 0.0
    for rate in sorted(reports):
        within = sum(1 for s in reports[rate].latencies_s
                     if s * 1e3 <= SIM_LIMIT_MS)
        if within < 0.99 * submitted:
            break
        best = float(rate)
    return best


class ServeTenantsFleet(Serve):
    name = "serve_tenants_fleet"
    why = ("same apps and traffic shape, 8 tenants per app on numa*2+gpunode "
           "with a cold server per round: 24 digests and 48 captures, so "
           "digest/capture/price is the cost and the event loop is small")
    variants = ("opt", "gpu")

    def setup(self) -> None:
        with self.rec.span("data.generate"):
            for app in SERVE_APPS:
                get_bundle(app)

    def round(self) -> Dict[str, float]:
        n = self.sizes.fleet_requests
        t0 = time.perf_counter()
        with self.rec.span("serve.simulator.build"):
            # a new server, and a new compile cache, every round: this
            # workload is the cold start
            self.sim = ServeSim(SERVE_APPS, machines="numa*2,gpunode",
                                max_batch=8, max_wait_s=0.02,
                                policy="fastest", backend="numpy",
                                payloads=self.sizes.fleet_payloads)
        t1 = time.perf_counter()
        with self.rec.span("serve.run"):
            report = self.sim.run_open(self.sizes.fleet_rate, n, self.seed)
        t2 = time.perf_counter()
        with self.rec.span("serve.simulator.to_json"):
            doc, _ = report_json(report)
        t3 = time.perf_counter()
        self.account("fleet", n, report, doc)
        return {"build": t1 - t0, "run": t2 - t1, "report": t3 - t2}

    def verify(self) -> None:
        self.read_latencies(self.reports["fleet"])


class ServeChaosObserved(Serve):
    name = "serve_chaos_observed"
    why = ("closed loop of 16 clients under a fixed fault plan with the "
           "resilience stack, tracer, metrics and every export on: the "
           "scheduler paths and obs work that plain traffic never enters")
    # plain attributes here: the rounds share one warm cache and build
    # their own server
    cache = None
    last_server = None

    def plan(self) -> FaultPlan:
        crash, slow = self.sizes.chaos_crash_s, self.sizes.chaos_slow_s
        return FaultPlan((
            FaultSpec("kernel", "*", mode="error", rate=0.02),
            FaultSpec("crash", "numa[1]", crash[0], crash[1]),
            FaultSpec("slow", "numa[0]", slow[0], slow[1], factor=3.0),
        ), seed=self.seed)

    #: ``degrade_after`` is raised from its default of 3: at a 2 % fault
    #: rate some seed does draw three kernel faults in a row (seed 62),
    #: and this workload measures the vectorized path under chaos
    RESILIENCE = ResilienceConfig(
        deadline_s=2.0, retry=RetryPolicy(max_attempts=3),
        hedge_delay_s=0.03, shed_depth=64, breaker=BreakerConfig(),
        degrade_after=8)

    def setup(self) -> None:
        with self.rec.span("data.generate"):
            self.served_apps = [ServedApp.from_bundle(a) for a in SERVE_APPS]
        # one warm compile cache for every round: a long-running server
        with self.rec.span("serve.simulator.build"):
            self.cache = ProgramCache(
                {a.name: a.factory for a in self.served_apps})
        self.warm_cache()

    def serve(self, tracer: Optional[Tracer],
              metrics: Optional[MetricsRegistry]):
        """One closed-loop run — what ``ServeSim.run_closed`` does, spelt
        out so that the rounds can share one warm ``ProgramCache`` while
        each gets a fresh tracer and registry."""
        server = ProgramServer(
            self.served_apps, make_machines("numa*2"), max_batch=4,
            max_wait_s=0.02, backend="numpy", metrics=metrics,
            tracer=tracer, cache=self.cache, trace_seed=self.seed,
            faults=self.plan(), resilience=self.RESILIENCE)
        responses = server.run(ClosedLoop(
            SERVE_APPS, self.sizes.chaos_clients, self.sizes.chaos_requests,
            seed=self.seed))
        return server, responses

    def round(self) -> Dict[str, float]:
        self.tracer, self.registry = Tracer(), MetricsRegistry()
        t = [time.perf_counter()]
        with self.rec.span("serve.run"):
            self.last_server, responses = self.serve(self.tracer,
                                                     self.registry)
        t.append(time.perf_counter())
        with self.rec.span("serve.simulator.report"):
            report = ServeSim.report("closed", self.last_server,
                                    responses)
        with self.rec.span("serve.simulator.to_json"):
            doc, _ = report_json(report)
        t.append(time.perf_counter())
        with self.rec.span("obs.export_trace"):
            self.events = chrome_trace_events(self.tracer)
        t.append(time.perf_counter())
        with self.rec.span("obs.export_flame"):
            render_collapsed(self.tracer)
        t.append(time.perf_counter())
        with self.rec.span("obs.export_prom"):
            prometheus_text(self.registry)
        t.append(time.perf_counter())
        self.account("chaos", self.sizes.chaos_requests, report, doc)
        names = ("run", "report", "export_trace", "export_flame",
                 "export_prom")
        return {k: b - a for k, a, b in zip(names, t, t[1:])}

    def verify(self) -> None:
        report = self.reports["chaos"]
        self.read_latencies(report)
        # reported in the traced pass (``obs.trace_violations``), not
        # failed: the validator is work the planner's tooling does, and a
        # 31-bit ``flow_id`` collision between two of 2000 requests makes
        # it object on about one seed in a thousand (seed 106 is one)
        if self.rec.enabled:
            with self.rec.span("obs.check"):
                self.trace_violations = len(validate_events(self.events))
        # the plan is only a chaos workload while every fault kind fires
        # and no app ends up permanently on the reference path
        res = report.resilience
        for kind in ("crash", "kernel-error", "slowed-batches"):
            self.check(res["fault_counts"].get(kind, 0) > 0,
                       f"fault plan: no {kind} fired")
        self.check(not res["degraded"],
                   f"fault plan: apps degraded: {sorted(res['degraded'])}")


WORKLOADS = {w.name: w for w in (CompileSuite, ExecLaneBound,
                                 ExecDispatchBound, ServeOpenShared,
                                 ServeTenantsFleet, ServeChaosObserved)}
