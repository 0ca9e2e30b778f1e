"""Synthetic graph generation — the LiveJournal stand-in.

Preferential-attachment (Barabási–Albert-style) graphs reproduce the
degree skew that drives the paper's graph results (load imbalance, cache
behavior of triangle counting, communication volume of PageRank) at a
configurable scale. Graphs are returned in adjacency-list form with
sorted neighbor lists, ready for the OptiGraph apps.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import List


@dataclass
class Graph:
    """Undirected graph as sorted adjacency lists."""

    n: int
    adj: List[List[int]]

    @property
    def m(self) -> int:
        return sum(len(a) for a in self.adj) // 2

    def degrees(self) -> List[int]:
        return [len(a) for a in self.adj]


def power_law_graph(n: int, m_per_node: int = 4, seed: int = 3) -> Graph:
    """Preferential attachment: each new node links to ``m_per_node``
    existing nodes chosen proportionally to degree."""
    rng = random.Random(seed)
    adj: List[set] = [set() for _ in range(n)]
    targets: List[int] = []   # repeated-node pool for degree-proportional picks
    m0 = max(2, m_per_node)
    # seed clique
    for u in range(m0):
        for v in range(u + 1, m0):
            adj[u].add(v)
            adj[v].add(u)
            targets.extend((u, v))
    for u in range(m0, n):
        chosen = set()
        while len(chosen) < min(m_per_node, u):
            if targets and rng.random() < 0.9:
                v = rng.choice(targets)
            else:
                v = rng.randrange(u)
            if v != u:
                chosen.add(v)
        for v in chosen:
            adj[u].add(v)
            adj[v].add(u)
            targets.extend((u, v))
    return Graph(n, [sorted(s) for s in adj])
