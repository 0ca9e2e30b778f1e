"""Comparison systems: mini-Spark, mini-PowerGraph, DimmWitted-style Gibbs
and hand-optimized C++ cost models (Delite mode: ``repro.runtime.DELITE``)."""

from .dimmwitted import DimmWittedEngine, GibbsStats
from .handopt import HandCost
from .powergraph import (GasStats, PageRankProgram, PowerGraphEngine,
                         TriangleCountProgram, powergraph_pagerank,
                         powergraph_triangles, replication_factor)
from .spark import RDD, JobStats, SparkContext

__all__ = [
    "DimmWittedEngine", "GibbsStats", "HandCost",
    "GasStats", "PageRankProgram", "PowerGraphEngine",
    "TriangleCountProgram", "powergraph_pagerank", "powergraph_triangles",
    "replication_factor", "RDD", "JobStats", "SparkContext",
]
