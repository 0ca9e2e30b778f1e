"""Hand-optimized C++ baselines (Table 2) as analytic cost models.

Each model charges exactly the algorithmic minimum a tuned C++
implementation performs — one pass over the data where one suffices,
in-place accumulators, no intermediate allocations — using the *same*
abstract cycle scale as the instrumented interpreter (so DMLL's measured
overheads, e.g. extra functional allocations, surface as the Table 2
deltas).

The one case where hand-C++ is *slower* by construction is Q1: the paper
attributes DMLL's win to "a more efficient HashMap than is in the C++11
standard library"; ``STD_HASHMAP_CYCLES`` vs. the interpreter's
``BUCKET_CYCLES`` (6.0) encodes that difference.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Dict

from ..runtime.machine import GB, HAND_CPP, ClusterSpec, SystemProfile

#: cycles per probe of std::unordered_map (chained, allocation-heavy)
#: vs. the open-addressing map DMLL generates (interp charges 6.0)
STD_HASHMAP_CYCLES = 40.0

#: cycles for libm exp/sigmoid (same as the interpreter's charge)
EXP_CYCLES = 20.0
SIGMOID_CYCLES = 25.0


@dataclass(frozen=True)
class HandCost:
    cycles: float
    bytes_read: float

    def seconds(self, cluster: ClusterSpec, cores: int = 1,
                profile: SystemProfile = HAND_CPP) -> float:
        rate = profile.effective_rate(cluster.node.socket)
        bw = cluster.node.socket.mem_bandwidth_gbs * GB
        sockets_used = max(1, math.ceil(cores / cluster.node.socket.cores))
        compute = self.cycles / (rate * max(1, cores))
        mem = self.bytes_read / (bw * sockets_used)
        return max(compute, mem) + profile.per_loop_overhead_us * 1e-6


def kmeans_iteration(n: int, d: int, k: int) -> HandCost:
    # one fused pass: distance (3 flops + 2 loads)/element/cluster,
    # running min, in-place sum+count accumulation, final divide
    cycles = (n * k * d * 5.0        # distances
              + n * k * 2.0          # min tracking
              + n * d * 3.0          # accumulate into sums
              + k * d * 4.0)         # divide
    return HandCost(cycles, n * d * 8.0)


def logreg_iteration(n: int, d: int) -> HandCost:
    # dot product + sigmoid + scaled accumulate, single pass
    cycles = n * (d * 4.0 + SIGMOID_CYCLES + d * 4.0) + d * 3.0
    return HandCost(cycles, n * d * 8.0 + n * 8.0)


def gda(n: int, d: int) -> HandCost:
    # pass 1: class sums; pass 2: outer-product accumulation, 5 cycles per
    # element (load d[j2], multiply, load/add/store the accumulator)
    cycles = (n * d * 3.0
              + n * (d * 3.0 + d * d * 5.0)
              + 2 * d * 2.0 + d * d * 2.0)
    return HandCost(cycles, 2 * n * d * 8.0)


def tpch_q1(n: int) -> HandCost:
    # single pass, 7 columns read, 8 accumulators, std::unordered_map probe
    cycles = n * (2.0               # predicate
                  + 12.0            # aggregate arithmetic
                  + STD_HASHMAP_CYCLES)
    return HandCost(cycles, n * 44.0)


def gene_barcoding(n: int) -> HandCost:
    # single pass: quality filter (2), one open-addressed hash probe (4),
    # three keyed accumulations (2 each)
    cycles = n * (2.0 + 4.0 + 6.0)
    return HandCost(cycles, n * 16.0)


def pagerank_iteration(n_vertices: int, n_edges: int) -> HandCost:
    # CSR gather: one divide-free mul-add per edge (1/deg precomputed)
    cycles = 2 * n_edges * 3.0 + n_vertices * 4.0
    return HandCost(cycles, 2 * n_edges * 12.0 + n_vertices * 16.0)


def triangle_counting(n_vertices: int, n_edges: int,
                      avg_merge_len: float) -> HandCost:
    # one sorted intersection per undirected edge (merge steps at ~3
    # cycles: compare + advance + load) plus per-edge pointer setup
    cycles = n_edges * (avg_merge_len * 3.0 + 8.0)
    return HandCost(cycles, n_edges * avg_merge_len * 4.0)
