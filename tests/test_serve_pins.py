"""Pinned serving outputs: what a change to ``serve/`` must not move.

The determinism tests elsewhere compare a run only with itself (same
seed twice). These compare it with a recorded past: the sha256 of the
report JSON (minus ``cache``, which counts hits on a cache that may
outlive the run) and, for the chaos scenario, of the full Chrome trace.
The digests were computed on the commit *before* the event loop was
changed to pay per state change (DESIGN.md §9), so they gate that
rewrite and every later one: a scheduler refactor that moves one start
time by one ulp fails here.

When a change is *meant* to move simulated behaviour, recompute with
``PYTHONPATH=src python tests/test_serve_pins.py`` and say why in the PR.
"""

import hashlib
import json

import pytest

from repro.obs import (MetricsRegistry, Tracer, chrome_trace_events,
                       prometheus_text, render_collapsed, render_spans)
from repro.serve import (BreakerConfig, ClosedLoop, FaultPlan, FaultSpec,
                         ProgramServer, ResilienceConfig, RetryPolicy,
                         ServeSim, make_machines)

APPS = ("kmeans", "logreg", "q1")


def sha(doc) -> str:
    return hashlib.sha256(json.dumps(
        doc, sort_keys=True, default=str).encode()).hexdigest()[:16]


def report_sha(report) -> str:
    return sha({k: v for k, v in report.to_json().items() if k != "cache"})


def open_shared(seed, rate=1200, requests=600):
    """Open loop, one payload per app, one NUMA box."""
    sim = ServeSim(APPS, machines="numa", max_batch=8, max_wait_s=0.02,
                   backend="numpy", payloads=1)
    return report_sha(sim.run_open(rate, requests, seed))


def open_fleet(seed, rate=600, requests=400):
    """Open loop, 8 tenants per app, heterogeneous fleet, ``fastest``."""
    sim = ServeSim(APPS, machines="numa*2,gpunode", max_batch=8,
                   max_wait_s=0.02, policy="fastest", backend="numpy",
                   payloads=8)
    return report_sha(sim.run_open(rate, requests, seed))


def open_traced(seed, rate=1200, requests=600):
    """``open_shared`` with a tracer: no faults and no second attempts,
    the branch of the span derivation ``chaos`` never takes."""
    tracer = Tracer()
    sim = ServeSim(APPS, machines="numa", max_batch=8, max_wait_s=0.02,
                   backend="numpy", payloads=1, tracer=tracer)
    sim.run_open(rate, requests, seed)
    return sha(chrome_trace_events(tracer))


def chaos_run(seed, requests, crash, slow, registry=None, cache=None):
    """The closed-loop chaos scenario of ``benchmarks/e2e/workloads.py``:
    kernel errors + crash + slow window against deadline, retry, hedge,
    shed and breaker, tracer on. Returns (server, tracer, report)."""
    plan = FaultPlan((
        FaultSpec("kernel", "*", mode="error", rate=0.02),
        FaultSpec("crash", "numa[1]", crash[0], crash[1]),
        FaultSpec("slow", "numa[0]", slow[0], slow[1], factor=3.0),
    ), seed=seed)
    res = ResilienceConfig(
        deadline_s=2.0, retry=RetryPolicy(max_attempts=3),
        hedge_delay_s=0.03, shed_depth=64, breaker=BreakerConfig(),
        degrade_after=8)
    sim = ServeSim(APPS, backend="numpy")  # bundles + compile cache only
    tracer = Tracer()
    server = ProgramServer(
        sim.served, make_machines("numa*2"), max_batch=4, max_wait_s=0.02,
        backend="numpy", metrics=registry, tracer=tracer,
        cache=cache or sim.cache, trace_seed=seed, faults=plan,
        resilience=res)
    responses = server.run(ClosedLoop(APPS, 16, requests, seed=seed))
    assert len(responses) + len(server.rejected) == requests
    return server, tracer, ServeSim.report("closed", server, responses)


def chaos(seed, requests=300, crash=(0.04, 0.08), slow=(0.1, 0.15)):
    """Returns (report sha, trace sha)."""
    _, tracer, report = chaos_run(seed, requests, crash, slow)
    return report_sha(report), sha(chrome_trace_events(tracer))


def text_sha(text) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def chaos_views(seed, requests=300, crash=(0.04, 0.08), slow=(0.1, 0.15)):
    """The other views of the same scenario, metrics on: (flame graph,
    materialised span tree, Prometheus text) shas. The registry is
    attached to a second run over the first one's cache: a capture's host
    seconds (``serve.capture_host_s``) are observed only by the server
    that executes it, and they are wall-clock."""
    server, _, _ = chaos_run(seed, requests, crash, slow)
    registry = MetricsRegistry()
    _, tracer, _ = chaos_run(seed, requests, crash, slow, registry,
                             server.cache)
    return (text_sha(render_collapsed(tracer)),
            text_sha(render_spans(tracer.last_run)),
            text_sha(prometheus_text(registry)))


SMALL = {
    "open_shared": (open_shared, {0: "22c64cff606337d1",
                                  1: "220b9304fd811376",
                                  2: "2a39e0a2464646d6"}),
    "open_fleet": (open_fleet, {0: "c778aec0f9836f77",
                                1: "2a7eef0acd450385",
                                2: "2d125a969f544f5d"}),
    "chaos": (chaos, {0: ("5435bf1a31851862", "05e138df6b83bbd1"),
                      1: ("9608787aac5bade2", "ca436533545e920d"),
                      2: ("f3c3b80a0d9cd58c", "c7c9dbb3da4ec39f")}),
}


#: the views no report or Chrome-trace pin covers, measured on the commit
#: before serving spans became a derivation (DESIGN.md §10): flame graph,
#: span tree and Prometheus text of the chaos scenario, and the Chrome
#: trace of plain open traffic (the Prometheus shas, here and at benchmark
#: size, re-measured when samples stopped being rounded to 6 digits)
SMALL_VIEWS = {
    "chaos_views": (chaos_views, {
        0: ("eea2fd3511502462", "f7df6c0d836b0277", "1ab8708336836733"),
        1: ("36a041c86beacfbd", "4648f54119b7cfcc", "f07ff2700e39a6f6"),
        2: ("18c07938dfb23c6e", "34cce59e14168959", "de63102f61e6a015")}),
    "open_traced": (open_traced, {0: "8d4e4b9b073fbf56",
                                  1: "897adb96d84084e4",
                                  2: "c62e131243bcbc22"}),
}
SMALL_ALL = {**SMALL, **SMALL_VIEWS}


@pytest.mark.parametrize("scenario", sorted(SMALL_ALL))
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_small_scenarios_are_pinned(scenario, seed):
    run, pins = SMALL_ALL[scenario]
    assert run(seed) == pins[seed]


#: ``BENCHMARK.json`` sizes at seed 0, measured on the parent commit in
#: two processes
OPEN_AT_BENCHMARK_SIZE = {800: "a149058b32634260", 1200: "82dfe6e879b6dacb",
                          1600: "c2f1bb8c5fadfe6c", 1800: "97b6d176bd1d1f66"}
FLEET_AT_BENCHMARK_SIZE = "ccb0a81e2b161348"
CHAOS_AT_BENCHMARK_SIZE = ("9f616cf6541f930c", "ddb05088ebbed2ec")
CHAOS_VIEWS_AT_BENCHMARK_SIZE = ("627e8bf89f08bd3a", "89ad7c24ad4b2de7",
                                 "591a39cf7e90621d")


def test_benchmark_size_runs_are_pinned():
    sim = ServeSim(APPS, machines="numa", max_batch=8, max_wait_s=0.02,
                   backend="numpy", payloads=1)
    got = {rate: report_sha(sim.run_open(rate, 20000, 0))
           for rate in OPEN_AT_BENCHMARK_SIZE}
    assert got == OPEN_AT_BENCHMARK_SIZE
    assert open_fleet(0, 600, 6000) == FLEET_AT_BENCHMARK_SIZE
    assert chaos(0, 2000, (0.3, 0.5), (0.8, 1.0)) == CHAOS_AT_BENCHMARK_SIZE
    assert chaos_views(0, 2000, (0.3, 0.5), (0.8, 1.0)) == \
        CHAOS_VIEWS_AT_BENCHMARK_SIZE


def open_traced_views(seed, rate=1200, requests=20000):
    """A traced open run at the size ROADMAP's export targets are measured
    on: (Chrome trace, flame graph, report ``decomposition``) shas."""
    tracer = Tracer()
    sim = ServeSim(APPS, machines="numa", max_batch=8, max_wait_s=0.02,
                   backend="numpy", payloads=1, tracer=tracer)
    report = sim.run_open(rate, requests, seed)
    return (sha(chrome_trace_events(tracer)),
            text_sha(render_collapsed(tracer)),
            sha(report.to_json()["decomposition"]))


#: the 128,908 events of that run, where timestamps near a rounding tie
#: are likeliest; measured on the commit before the exporters read columns
OPEN_TRACED_VIEWS_AT_BENCHMARK_SIZE = ("2a4813453673104f", "9169a803e9a6d551",
                                       "e85a688a83a72819")


def test_open_traced_views_at_benchmark_size_are_pinned():
    assert open_traced_views(0) == OPEN_TRACED_VIEWS_AT_BENCHMARK_SIZE


if __name__ == "__main__":
    for name, (run, pins) in SMALL_ALL.items():
        print(name, {seed: run(seed) for seed in pins})
    print("chaos_views at benchmark size",
          chaos_views(0, 2000, (0.3, 0.5), (0.8, 1.0)))
    print("open_traced_views at benchmark size", open_traced_views(0))
