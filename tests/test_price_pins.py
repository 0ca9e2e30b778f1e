"""Pinned pricing outputs: what a change to ``Simulator.price`` must not move.

``tests/test_paper_evaluation.py`` pins the figures' ``total_seconds``;
this pins everything else a price shows. For the 8 bundled apps x
{opt, plain, gpu} x six machine configurations x two system profiles
(288 priced configurations) it hashes, in order: ``total_seconds`` and
every ``LoopSim`` field of a plain price; the metrics registry's
counters, gauges and histograms (insertion order) of a price with
metrics only; and of a price with a tracer and metrics, the ``LoopSim``
fields with the traced ``detail`` dicts (key order kept), the Chrome
trace events and the registry again. One digest per (app, variant).

Loop names carry symbol ids, which depend on what the process compiled
before, so the digests are computed in a fresh process. When a change is
*meant* to move a price, recompute with
``PYTHONPATH=src python tests/test_price_pins.py`` and name every pin
that moves, and why, in the change's description.
"""

import dataclasses
import hashlib
import json
import os
import subprocess
import sys

APPS = ("kmeans", "logreg", "gda", "q1", "gene", "pagerank", "triangle",
        "gibbs")
VARIANTS = ("opt", "plain", "gpu")

#: computed on the commit before the pricer lost its per-call state
PINS = {
    "kmeans": {"opt": "73205febc0c9e36d", "plain": "87f399f4175ea2d0",
               "gpu": "fb342cf99a1794b5"},
    "logreg": {"opt": "cc9697851eea0d87", "plain": "54a80d4923a4f3ed",
               "gpu": "61f629aa7df6c382"},
    "gda": {"opt": "5db53350f3a8c158", "plain": "07f35a53f0bf176d",
            "gpu": "4becb4e0dc2fad97"},
    "q1": {"opt": "e50c9cbcbcb8309e", "plain": "4ff81485d9411db5",
           "gpu": "48b581721ca7546f"},
    "gene": {"opt": "d3038b304e085816", "plain": "e2c60b254eaa4991",
             "gpu": "653f7b08a047300a"},
    "pagerank": {"opt": "1d600dc0c658cbad", "plain": "c9aea4e2e5f71d1b",
                 "gpu": "482bad892e40cf0e"},
    "triangle": {"opt": "d70a075b0cf3c81f", "plain": "69b1a08a51113870",
                 "gpu": "e9c465c52e5cad24"},
    "gibbs": {"opt": "d0720646906e52c9", "plain": "b12783355c718582",
              "gpu": "7e9d11ebf89adad3"},
}


def configurations():
    """(label, cluster, ExecOptions keyword arguments) per machine."""
    from repro.runtime.machine import (EC2_CLUSTER, GPU_CLUSTER, NUMA_BOX,
                                       single_node)
    return (
        ("numa", NUMA_BOX, {}),
        ("numa-12", NUMA_BOX, {"cores": 12}),
        ("sequential", NUMA_BOX, {"sequential": True}),
        ("ec2", EC2_CLUSTER, {}),
        ("gpu-node", single_node(GPU_CLUSTER),
         {"use_gpu": True, "gpu_transposed": True}),
        ("gpu-cluster", GPU_CLUSTER, {"use_gpu": True}),
    )


def _loops(sim):
    return [dataclasses.astuple(ls) for ls in sim.loops]


def price_views(bundle, variant, cluster, profile, opts):
    """Every observable of three prices of one capture, as one JSON text."""
    from repro.obs import MetricsRegistry, Tracer, chrome_trace_events
    cap = bundle.capture(variant, backend="numpy")
    compiled = bundle.compiled(variant)
    plain = bundle.price(compiled, cap, cluster, profile, **opts)
    counted = MetricsRegistry()
    bundle.price(compiled, cap, cluster, profile, metrics=counted, **opts)
    tracer, registry = Tracer(), MetricsRegistry()
    traced = bundle.price(compiled, cap, cluster, profile, tracer=tracer,
                          metrics=registry, **opts)
    views = [plain.total_seconds, _loops(plain),
             counted.counters, counted.gauges, counted.histograms,
             traced.total_seconds, _loops(traced),
             chrome_trace_events(tracer),
             registry.counters, registry.gauges, registry.histograms]
    return json.dumps(views, default=str)


def digests():
    from repro.bench import get_bundle
    from repro.runtime.machine import DMLL_CPP, DMLL_PIN_ONLY
    out = {}
    for app in APPS:
        bundle = get_bundle(app)
        out[app] = {}
        for variant in VARIANTS:
            h = hashlib.sha256()
            for label, cluster, opts in configurations():
                for profile in (DMLL_CPP, DMLL_PIN_ONLY):
                    h.update(f"{label}/{profile.name}\n".encode())
                    h.update(price_views(bundle, variant, cluster, profile,
                                         opts).encode())
            out[app][variant] = h.hexdigest()[:16]
    return out


def test_prices_are_pinned():
    src_dir = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [src_dir] + [p for p in (env.get("PYTHONPATH"),) if p])
    out = subprocess.run([sys.executable, __file__], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert json.loads(out) == PINS


if __name__ == "__main__":
    print(json.dumps(digests(), indent=1))
