"""Synthetic dataset generators standing in for the paper's datasets
(DESIGN.md §3 documents each substitution)."""

from .datasets import binary_labeled, gaussian_clusters, logistic_data
from .factor_graphs import (FactorGraph, grid_ising, random_states,
                            random_uniforms)
from .graphs import Graph, power_law_graph
from .tpch_gen import ROWS_PER_SF, generate_lineitems

__all__ = [
    "binary_labeled", "gaussian_clusters", "logistic_data",
    "FactorGraph", "grid_ising", "random_states", "random_uniforms",
    "Graph", "power_law_graph",
    "ROWS_PER_SF", "generate_lineitems",
]
