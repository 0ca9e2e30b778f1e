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

from repro.obs import Tracer, chrome_trace_events
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


def chaos(seed, requests=300, crash=(0.04, 0.08), slow=(0.1, 0.15)):
    """The closed-loop chaos scenario of ``benchmarks/e2e/workloads.py``:
    kernel errors + crash + slow window against deadline, retry, hedge,
    shed and breaker, tracer on. Returns (report sha, trace sha)."""
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
        backend="numpy", tracer=tracer, cache=sim.cache, trace_seed=seed,
        faults=plan, resilience=res)
    responses = server.run(ClosedLoop(APPS, 16, requests, seed=seed))
    assert len(responses) + len(server.rejected) == requests
    report = ServeSim.report("closed", server, responses)
    return report_sha(report), sha(chrome_trace_events(tracer))


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


@pytest.mark.parametrize("scenario", sorted(SMALL))
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_small_scenarios_are_pinned(scenario, seed):
    run, pins = SMALL[scenario]
    assert run(seed) == pins[seed]


#: ``BENCHMARK.json`` sizes at seed 0, measured on the parent commit in
#: two processes
OPEN_AT_BENCHMARK_SIZE = {800: "a149058b32634260", 1200: "82dfe6e879b6dacb",
                          1600: "c2f1bb8c5fadfe6c", 1800: "97b6d176bd1d1f66"}
FLEET_AT_BENCHMARK_SIZE = "ccb0a81e2b161348"
CHAOS_AT_BENCHMARK_SIZE = ("9f616cf6541f930c", "ddb05088ebbed2ec")


def test_benchmark_size_runs_are_pinned():
    sim = ServeSim(APPS, machines="numa", max_batch=8, max_wait_s=0.02,
                   backend="numpy", payloads=1)
    got = {rate: report_sha(sim.run_open(rate, 20000, 0))
           for rate in OPEN_AT_BENCHMARK_SIZE}
    assert got == OPEN_AT_BENCHMARK_SIZE
    assert open_fleet(0, 600, 6000) == FLEET_AT_BENCHMARK_SIZE
    assert chaos(0, 2000, (0.3, 0.5), (0.8, 1.0)) == CHAOS_AT_BENCHMARK_SIZE


if __name__ == "__main__":
    for name, (run, pins) in SMALL.items():
        print(name, {seed: run(seed) for seed in pins})
