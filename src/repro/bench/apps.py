"""Prepared benchmark applications.

Each ``AppBundle`` owns one functional dataset (scaled down so the
reference interpreter runs in seconds), the scale factor back to the
paper's dataset, and lazily-compiled program variants:

- ``opt``   — the full pipeline (fusion + Fig. 3 transforms + SoA);
- ``plain`` — nested pattern transformations disabled (the Fig. 6
  "non-transformed" ablation);
- ``gpu``   — the GPU pipeline (Row-to-Column Reduce applied).

Captures (one instrumented interpreter run per variant) are cached so the
figure sweeps price dozens of machine configurations from a single
functional execution.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Dict, Optional

from ..apps import PROGRAMS
from ..data.datasets import binary_labeled, gaussian_clusters, logistic_data
from ..data.factor_graphs import grid_ising, random_states, random_uniforms
from ..data.genes import generate_reads
from ..data.graphs import power_law_graph
from ..data.tpch_gen import generate_lineitems
from ..pipeline import VARIANTS, CompiledProgram, compile_program
from ..runtime.executor import RunCapture, capture_run

#: the paper's dataset sizes each functional run is scaled to
PAPER_SIZES = {
    "kmeans": "500k x 100 matrix (835MB), k=6",
    "logreg": "500k x 100 matrix (835MB)",
    "gda": "500k x 100 matrix (835MB)",
    "q1": "TPC-H SF5 (30M rows, 5.3GB)",
    "gene": "3.5M reads (689MB)",
    "pagerank": "LiveJournal (4.8M nodes, 69M edges)",
    "triangle": "LiveJournal (4.8M nodes, 69M edges)",
    "gibbs": "DeepDive-scale factor graph (2M variables)",
}


class AppBundle:
    def __init__(self, name: str, inputs: Dict[str, object], scale: float,
                 data_scale: float = None):
        self.name = name
        self._factory = PROGRAMS[name]
        self.inputs = inputs
        self.scale = scale
        #: data volumes may scale differently from compute (see
        #: ExecOptions.data_scale)
        self.data_scale = data_scale if data_scale is not None else scale
        self._compiled: Dict[str, CompiledProgram] = {}
        self._captures: Dict[tuple, RunCapture] = {}

    def compiled(self, variant: str = "opt") -> CompiledProgram:
        if variant not in self._compiled:
            target, kwargs = VARIANTS[variant]
            self._compiled[variant] = compile_program(self._factory(),
                                                      target, **kwargs)
        return self._compiled[variant]

    def capture(self, variant: str = "opt",
                backend: Optional[str] = None) -> RunCapture:
        from ..backend import resolve_backend
        key = (variant, resolve_backend(backend))
        if key not in self._captures:
            self._captures[key] = capture_run(self.compiled(variant),
                                              self.inputs, backend=key[1])
        return self._captures[key]

    def simulate(self, variant: str = "opt", cluster=None, profile=None,
                 backend: Optional[str] = None, **opt_kwargs):
        """Price this bundle's cached capture of ``variant`` (run on the
        functional engine ``backend``; the priced time is the same on
        both) with ``price``."""
        return self.price(self.compiled(variant),
                          self.capture(variant, backend=backend),
                          cluster, profile, **opt_kwargs)

    def price(self, compiled: CompiledProgram, capture: RunCapture,
              cluster=None, profile=None, **opt_kwargs):
        """Price ``capture``, a run of ``compiled`` on this bundle's
        inputs, on a machine/profile combo. Extra keyword arguments land
        on ``ExecOptions`` (``tracer=``, ``metrics=``, ...);
        ``scale``/``data_scale`` default to the bundle's own factors."""
        from ..runtime.executor import ExecOptions, Simulator
        from ..runtime.machine import DMLL_CPP, NUMA_BOX
        opt_kwargs.setdefault("scale", self.scale)
        opt_kwargs.setdefault("data_scale", self.data_scale)
        sim = Simulator(compiled, NUMA_BOX if cluster is None else cluster,
                        DMLL_CPP if profile is None else profile,
                        ExecOptions(**opt_kwargs))
        return sim.price(capture)


def _kmeans_bundle() -> AppBundle:
    matrix, _ = gaussian_clusters(800, 20, k=8)
    clusters = matrix[:8]
    # compute volume is n*d*k (modeled k=6); data volume is n*d
    scale = (500_000 * 100 * 6) / (800 * 20 * 8)
    data_scale = (500_000 * 100) / (800 * 20)
    return AppBundle("kmeans", {"matrix": matrix, "clusters": clusters},
                     scale, data_scale=data_scale)


def _logreg_bundle() -> AppBundle:
    x, y = logistic_data(600, 20)
    scale = (500_000 * 100) / (600 * 20)
    return AppBundle("logreg",
                     {"x": x, "y": y, "theta": [0.0] * 20, "alpha": 0.1},
                     scale)


def _gda_bundle() -> AppBundle:
    x, y = binary_labeled(300, 24)
    # the covariance pass dominates and scales with n * d^2; the data
    # itself scales with n * d
    scale = (500_000 * 100 * 100) / (300 * 24 * 24)
    data_scale = (500_000 * 100) / (300 * 24)
    return AppBundle("gda", {"x": x, "y": y}, scale, data_scale=data_scale)


def _q1_bundle() -> AppBundle:
    rows = generate_lineitems(3000)
    scale = 30_000_000 / 3000
    return AppBundle("q1", {"lineitems": rows}, scale)


def _gene_bundle() -> AppBundle:
    rows = generate_reads(3000)
    scale = 3_500_000 / 3000
    return AppBundle("gene", {"reads": rows}, scale)


def _pagerank_bundle() -> AppBundle:
    g = power_law_graph(1200, 7)
    scale = 69_000_000 / (2 * g.m)     # LiveJournal edge traversals
    b = AppBundle("pagerank", {"adj": g.adj, "ranks": [1.0] * g.n,
                               "degrees": g.degrees()},
                  scale)
    b.graph = g  # type: ignore[attr-defined]
    return b


def _triangle_bundle() -> AppBundle:
    g = power_law_graph(1200, 7)
    # intersection work scales with edges x average merge length
    avg_deg = 2 * g.m / g.n
    scale = (34_500_000 * 2 * 14.4) / (g.m * 2 * avg_deg)
    data_scale = 69_000_000 / (2 * g.m)
    b = AppBundle("triangle", {"adj": g.adj}, scale, data_scale=data_scale)
    b.graph = g  # type: ignore[attr-defined]
    return b


def _gibbs_bundle() -> AppBundle:
    fg = grid_ising(20)
    replicas = 4
    states = random_states(fg.n_vars, replicas, seed=3)
    rand = random_uniforms(fg.n_vars, replicas, seed=4)
    scale = 2_000_000 / fg.n_vars
    b = AppBundle("gibbs", {"nbr_vars": fg.nbr_vars,
                            "nbr_weights": fg.nbr_weights,
                            "states": states, "rand": rand},
                  scale)
    b.factor_graph = fg  # type: ignore[attr-defined]
    return b


#: the apps with a bundled dataset: name -> the bundle's factory
BUNDLES = {
    "kmeans": _kmeans_bundle,
    "logreg": _logreg_bundle,
    "gda": _gda_bundle,
    "q1": _q1_bundle,
    "gene": _gene_bundle,
    "pagerank": _pagerank_bundle,
    "triangle": _triangle_bundle,
    "gibbs": _gibbs_bundle,
}


@lru_cache(maxsize=None)
def get_bundle(name: str) -> AppBundle:
    return BUNDLES[name]()
