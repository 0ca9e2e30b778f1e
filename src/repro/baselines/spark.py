"""Mini-Spark: an RDD mini-framework over the simulated cluster.

The paper's §6 comparisons hinge on Spark's *structural* overheads, which
this framework reproduces explicitly:

- lazily-planned RDD lineage, executed in stages split at shuffles;
- per-element closure dispatch on boxed records (the JVM ``cycle_factor``
  and ``alloc_cycle_cost`` of the SPARK profile);
- serialized shuffles over the network (measured from the actual data
  moved, priced with ``ser_cycles_per_byte`` + link bandwidth);
- per-task scheduler dispatch costs and stage barriers;
- no NUMA awareness: on the big NUMA box, executors see one socket's
  memory bandwidth.

Results are computed functionally on the real data (and tested against
the same oracles as DMLL); time is simulated like the DMLL executor's.

Per-element *algorithmic* cost of a closure is supplied as a hint
(``cost=``) by the application, typically derived from the dataset shape
(e.g. ``3*k*d`` for the k-means assignment), so both systems are charged
the same algorithmic work and differ only in framework overheads — which
is exactly the paper's comparison.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

from ..runtime.machine import GB, SPARK, ClusterSpec, SystemProfile

DEFAULT_CLOSURE_CYCLES = 12.0


def _value_bytes(v: Any) -> int:
    if isinstance(v, bool):
        return 1
    if isinstance(v, int):
        return 8
    if isinstance(v, float):
        return 8
    if isinstance(v, str):
        return 2 * len(v) + 40
    if isinstance(v, (list, tuple)):
        return 16 + sum(_value_bytes(x) for x in v)
    return 32


@dataclass
class JobStats:
    stages: int = 0
    tasks: int = 0
    elements_processed: int = 0
    closure_cycles: float = 0.0
    shuffle_bytes: int = 0
    bytes_touched: int = 0
    sim_seconds: float = 0.0


class SparkContext:
    """Entry point, bound to a simulated cluster."""

    def __init__(self, cluster: ClusterSpec,
                 profile: SystemProfile = SPARK,
                 default_parallelism: Optional[int] = None,
                 cores: Optional[int] = None, scale: float = 1.0):
        self.cluster = cluster
        self.profile = profile
        self.cores = cores or cluster.total_cores
        self.default_parallelism = default_parallelism or max(2, self.cores * 2)
        #: workload scale: functional runs use subsampled data; volume
        #: terms are multiplied back up to the paper's dataset size
        self.scale = scale
        self.stats = JobStats()

    def parallelize(self, data: Iterable[Any],
                    num_partitions: Optional[int] = None) -> "RDD":
        data = list(data)
        return RDD(self, data, num_partitions or self.default_parallelism)

    # -- timing model ----------------------------------------------------

    def _stage_time(self, elements: int, cycles: float, bytes_touched: int,
                    tasks: int) -> float:
        cycles *= self.scale
        bytes_touched = int(bytes_touched * self.scale)
        node = self.cluster.node
        rate = self.profile.effective_rate(node.socket)
        total_cores = min(self.cores, self.cluster.total_cores)
        waves = math.ceil(tasks / max(1, total_cores))
        per_task_cycles = cycles / max(1, tasks)
        compute = waves * per_task_cycles / rate
        # executors are NUMA-oblivious: one socket's bandwidth per node
        bw = node.socket.mem_bandwidth_gbs * GB * 0.8
        mem = bytes_touched / (bw * self.cluster.nodes)
        sched = tasks * self.profile.task_overhead_us * 1e-6 * 0.1 \
            + self.profile.per_loop_overhead_us * 1e-6
        return max(compute, mem) + sched

    def _shuffle_time(self, nbytes: int) -> float:
        nbytes = int(nbytes * self.scale)
        prof = self.profile
        rate = prof.effective_rate(self.cluster.node.socket)
        ser = 2 * nbytes * prof.ser_cycles_per_byte / rate \
            / max(1, self.cluster.total_cores)
        if self.cluster.nodes > 1:
            net = self.cluster.network_gbs * GB
            frac = (self.cluster.nodes - 1) / self.cluster.nodes
            wire = nbytes * frac / (net * self.cluster.nodes)
            wire += self.cluster.network_latency_us * 1e-6
        else:
            # intra-box shuffle still copies through the heap
            wire = nbytes / (self.cluster.node.socket.mem_bandwidth_gbs * GB)
        return ser + wire


@dataclass(frozen=True)
class _OpDesc:
    kind: str                    # map/filter/flatMap
    fn: Callable
    cost: float                  # algorithmic cycles per element


class RDD:
    """A lazily-evaluated distributed collection (lineage of narrow ops,
    materialized at actions and shuffles)."""

    def __init__(self, sc: SparkContext, data: List[Any],
                 num_partitions: int,
                 lineage: Tuple[_OpDesc, ...] = ()):
        self.sc = sc
        self._data = data
        self.num_partitions = max(1, num_partitions)
        self._lineage = lineage

    # -- transformations (lazy) ------------------------------------------

    def map(self, fn: Callable, cost: float = DEFAULT_CLOSURE_CYCLES) -> "RDD":
        return self._narrow("map", fn, cost)

    def filter(self, fn: Callable, cost: float = DEFAULT_CLOSURE_CYCLES) -> "RDD":
        return self._narrow("filter", fn, cost)

    def flat_map(self, fn: Callable, cost: float = DEFAULT_CLOSURE_CYCLES) -> "RDD":
        return self._narrow("flatMap", fn, cost)

    def _narrow(self, kind: str, fn: Callable, cost: float) -> "RDD":
        return RDD(self.sc, self._data, self.num_partitions,
                   self._lineage + (_OpDesc(kind, fn, cost),))

    # -- stage execution ---------------------------------------------------

    def _compute(self) -> List[Any]:
        """Run the narrow lineage as one stage, charging its costs."""
        data = self._data
        elements = len(data)
        cycles = 0.0
        bytes_touched = sum(_value_bytes(v) for v in data)
        prof = self.sc.profile
        out = data
        for op in self._lineage:
            n = len(out)
            per_elem = (op.cost + DEFAULT_CLOSURE_CYCLES) * prof.cycle_factor \
                + prof.alloc_cycle_cost
            cycles += n * per_elem
            if op.kind == "map":
                out = [op.fn(v) for v in out]
            elif op.kind == "filter":
                out = [v for v in out if op.fn(v)]
            else:
                new = []
                for v in out:
                    new.extend(op.fn(v))
                out = new
        st = self.sc.stats
        st.stages += 1
        st.tasks += self.num_partitions
        st.elements_processed += elements
        st.closure_cycles += cycles
        st.bytes_touched += bytes_touched
        st.sim_seconds += self.sc._stage_time(elements, cycles, bytes_touched,
                                              self.num_partitions)
        return out

    # -- actions & shuffles ------------------------------------------------

    def collect(self) -> List[Any]:
        return self._compute()

    def count(self) -> int:
        return len(self._compute())

    def reduce(self, fn: Callable, cost: float = DEFAULT_CLOSURE_CYCLES) -> Any:
        data = self._compute()
        if not data:
            raise ValueError("reduce of empty RDD")
        acc = data[0]
        for v in data[1:]:
            acc = fn(acc, v)
        prof = self.sc.profile
        self.sc.stats.closure_cycles += len(data) * cost * prof.cycle_factor
        # partial results from every partition return to the driver
        part_bytes = _value_bytes(acc) * self.num_partitions
        self.sc.stats.shuffle_bytes += part_bytes
        self.sc.stats.sim_seconds += self.sc._shuffle_time(part_bytes)
        return acc

    def reduce_by_key(self, fn: Callable,
                      cost: float = DEFAULT_CLOSURE_CYCLES) -> "RDD":
        pairs = self._compute()
        # map-side combine, then shuffle the combined partials
        combined: Dict[Any, Any] = {}
        for k, v in pairs:
            if k in combined:
                combined[k] = fn(combined[k], v)
            else:
                combined[k] = v
        prof = self.sc.profile
        self.sc.stats.closure_cycles += len(pairs) * (cost + 8) * prof.cycle_factor
        moved = self.num_partitions * sum(
            _value_bytes(k) + _value_bytes(v) for k, v in combined.items())
        self.sc.stats.shuffle_bytes += moved
        self.sc.stats.sim_seconds += self.sc._shuffle_time(moved)
        return RDD(self.sc, list(combined.items()), self.num_partitions)

    def cache(self) -> "RDD":
        # materialize the lineage once (iterative jobs re-read the cache)
        if self._lineage:
            data = self._compute()
            return RDD(self.sc, data, self.num_partitions)
        return self
