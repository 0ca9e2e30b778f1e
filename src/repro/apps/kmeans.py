"""k-means clustering — the paper's running example (Fig. 1).

Both formulations are provided:

- ``kmeans_shared_program``  — the shared-memory style (top of Fig. 1):
  data implicitly shuffled through the indexing operation ``matrix(as)``.
  The Conditional Reduce rule plus fusion lowers this to the Fig. 5 form.
- ``kmeans_grouped_program`` — the distributed-memory style (bottom of
  Fig. 1): data explicitly shuffled via ``groupRowsBy``. The
  GroupBy-Reduce rule lowers this to the same optimized code.
"""

from __future__ import annotations

from typing import List, Sequence

from .. import frontend as F
from ..core.ir import Program


def _sq_dist(row: F.ArrayRep, centroid: F.ArrayRep) -> F.NumRep:
    """Squared Euclidean distance between two feature vectors."""
    return row.zip_with(centroid, lambda a, b: (a - b) * (a - b)).sum()


def _nearest(row: F.ArrayRep, clusters: F.ArrayRep) -> F.NumRep:
    return clusters.map_rows(lambda c: _sq_dist(row, c)).min_index()


def kmeans_inputs():
    return [F.matrix_input("matrix", partitioned=True),
            F.matrix_input("clusters", partitioned=False)]


def kmeans_shared_program() -> Program:
    """One iteration, shared-memory style (Fig. 1 lines 6-14)."""

    def prog(matrix: F.ArrayRep, clusters: F.ArrayRep):
        assigned = matrix.map_rows(lambda row: _nearest(row, clusters))

        def new_cluster(i):
            as_ = assigned.filter_indices(lambda a: a == i)
            total = as_.map(lambda j: matrix[j]).sum_rows()
            count = as_.count()
            return total.map(lambda s: s / count)

        return clusters.map_indices(new_cluster)

    return F.build(prog, kmeans_inputs())


def kmeans_grouped_program() -> Program:
    """One iteration, distributed-memory style (Fig. 1 lines 16-21)."""

    def prog(matrix: F.ArrayRep, clusters: F.ArrayRep):
        clustered = matrix.group_rows_by(lambda row: _nearest(row, clusters))
        return clustered.map(
            lambda e: e.sum_rows().map(lambda s: s / e.count()))

    return F.build(prog, kmeans_inputs())


def kmeans_oracle(matrix: Sequence[Sequence[float]],
                  clusters: Sequence[Sequence[float]]) -> List[List[float]]:
    """Plain-Python single-iteration oracle (dense cluster order).

    Note: the grouped formulation returns clusters in first-seen key order;
    this oracle returns them indexed by cluster id like the shared version.
    """
    k = len(clusters)
    sums = [[0.0] * len(clusters[0]) for _ in range(k)]
    counts = [0] * k
    for row in matrix:
        best, best_d = 0, float("inf")
        for ci, c in enumerate(clusters):
            dd = sum((a - b) ** 2 for a, b in zip(row, c))
            if dd < best_d:
                best, best_d = ci, dd
        counts[best] += 1
        for j, v in enumerate(row):
            sums[best][j] += v
    out = []
    for ci in range(k):
        if counts[ci] == 0:
            out.append([])
        else:
            out.append([s / counts[ci] for s in sums[ci]])
    return out

