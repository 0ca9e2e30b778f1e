"""Simulated hardware models.

The paper's three testbeds are described by topology and a small set of
calibration constants. All constants used anywhere in the simulated-time
model live in this module and are documented in EXPERIMENTS.md.

Simulated time follows DESIGN.md §4::

    time(loop, worker) = max(compute, memory) ;  loop time = max over
    workers + dispatch overhead ; plus explicit communication terms.

Compute is the instrumented interpreter's abstract cycles divided by an
effective per-core rate; memory is bytes touched over the bandwidth of
wherever the bytes live (local socket / remote socket / network / device).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

GB = 1e9


@dataclass(frozen=True)
class GPUSpec:
    name: str
    mem_bandwidth_gbs: float     # device memory bandwidth
    pcie_bandwidth_gbs: float    # host <-> device transfer
    compute_rate_gops: float     # abstract cycles retired per second (×1e9)
    #: slowdown when reduction temporaries don't fit in shared memory
    #: (non-scalar accumulators, §6: "reducing non-scalar types on a GPU is
    #: typically very inefficient")
    vector_reduce_penalty: float = 4.5
    #: slowdown for non-coalesced global loads (input not transposed)
    uncoalesced_penalty: float = 2.4
    kernel_launch_us: float = 8.0


#: NVIDIA Tesla C2050 (the GPU-cluster card)
TESLA_C2050 = GPUSpec("Tesla C2050", mem_bandwidth_gbs=120.0,
                      pcie_bandwidth_gbs=5.5, compute_rate_gops=500.0)


@dataclass(frozen=True)
class SocketSpec:
    cores: int
    #: effective abstract-cycle rate per core, in Gcycles/s. Calibrated so
    #: one abstract interpreter cycle ≈ one issue slot of generated C++.
    core_rate_gops: float
    mem_bandwidth_gbs: float     # bandwidth of this socket's local memory
    llc_bytes: int = 30 * 1024 * 1024


@dataclass(frozen=True)
class NodeSpec:
    sockets: int
    socket: SocketSpec
    #: bandwidth multiplier for reads served by a remote socket (QPI)
    numa_remote_factor: float = 0.45
    numa_remote_latency_ns: float = 120.0
    gpu: Optional[GPUSpec] = None

    @property
    def cores(self) -> int:
        return self.sockets * self.socket.cores

    @property
    def total_bandwidth_gbs(self) -> float:
        return self.sockets * self.socket.mem_bandwidth_gbs


@dataclass(frozen=True)
class ClusterSpec:
    name: str
    nodes: int
    node: NodeSpec
    network_gbs: float           # per-link bandwidth
    network_latency_us: float = 80.0

    def __post_init__(self) -> None:
        # written so that NaN fails: a multi-node cluster without a network
        # would price every broadcast, merge and shuffle as free
        if not self.nodes >= 1:
            raise ValueError(f"cluster nodes must be >= 1, got {self.nodes}")
        if self.nodes > 1 and not self.network_gbs > 0:
            raise ValueError(f"a {self.nodes}-node cluster needs "
                             f"network_gbs > 0, got {self.network_gbs}")

    @property
    def total_cores(self) -> int:
        return self.nodes * self.node.cores

    def describe(self) -> dict:
        """Flat attribute dict for span/trace annotation."""
        return {
            "cluster": self.name,
            "nodes": self.nodes,
            "sockets_per_node": self.node.sockets,
            "cores_per_node": self.node.cores,
            "network_gbs": self.network_gbs,
            "gpu": self.node.gpu.name if self.node.gpu else None,
        }


# ---------------------------------------------------------------------------
# The paper's testbeds
# ---------------------------------------------------------------------------

#: §6: 4 sockets × 12 Xeon E5-4657L cores, 256 GB per socket
NUMA_BOX = ClusterSpec(
    name="numa-4x12",
    nodes=1,
    node=NodeSpec(
        sockets=4,
        # 2.4 GHz x ~4 retired ops/cycle (SIMD + superscalar ILP)
        socket=SocketSpec(cores=12, core_rate_gops=9.6,
                          mem_bandwidth_gbs=42.0),
        numa_remote_factor=0.45),
    network_gbs=0.0)

#: §6.2: 20 × EC2 m1.xlarge (4 weak virtual cores, 15 GB, 1 GbE)
EC2_CLUSTER = ClusterSpec(
    name="ec2-20",
    nodes=20,
    node=NodeSpec(
        sockets=1,
        socket=SocketSpec(cores=4, core_rate_gops=2.0,
                          mem_bandwidth_gbs=10.0, llc_bytes=8 * 1024 * 1024)),
    network_gbs=0.125,           # 1 Gb Ethernet
    network_latency_us=200.0)

#: §6.2: 4 nodes × 12 Xeon X5680 cores + Tesla C2050, 1 GbE in-rack
GPU_CLUSTER = ClusterSpec(
    name="gpu-4",
    nodes=4,
    node=NodeSpec(
        sockets=2,
        socket=SocketSpec(cores=6, core_rate_gops=13.2,
                          mem_bandwidth_gbs=32.0, llc_bytes=12 * 1024 * 1024),
        gpu=TESLA_C2050),
    network_gbs=0.125,
    network_latency_us=60.0)


def single_node(cluster: ClusterSpec) -> ClusterSpec:
    """The one-machine view of a cluster (for per-node kernels)."""
    return ClusterSpec(cluster.name + "-node", 1, cluster.node,
                       network_gbs=cluster.network_gbs,
                       network_latency_us=cluster.network_latency_us)


#: named machine models the serving layer (``repro.serve``) and the
#: ``serve-sim`` CLI can place requests on. ``numa`` is the big NUMA box,
#: ``ec2node``/``gpunode`` are single nodes of the two clusters (a serving
#: replica is one machine, not a whole cluster).
MACHINE_MODELS = {
    "numa": NUMA_BOX,
    "ec2node": single_node(EC2_CLUSTER),
    "gpunode": single_node(GPU_CLUSTER),
}


# ---------------------------------------------------------------------------
# System profiles: the per-framework calibration constants (§6 baselines)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SystemProfile:
    """How a framework's generated/library code behaves on the machines.

    ``cycle_factor``      — multiplier on algorithmic compute cycles
                            (1.0 = DMLL's generated C++; JVM library code
                            pays boxing/virtual-dispatch overhead).
    ``alloc_cycle_cost``  — extra cycles per allocated element (GC pressure
                            and allocator work).
    ``numa_aware``        — partitions large arrays across sockets (§5).
    ``pinned``            — pins threads and uses thread-local heaps.
    ``ser_cycles_per_byte`` — serialization cost on network transfers
                            (JVM systems serialize; C++ sends raw buffers).
    ``task_overhead_us``  — per-task dispatch cost (Spark's scheduler ships
                            closures; DMLL's runtime reuses resident
                            executors).
    """

    name: str
    cycle_factor: float = 1.0
    alloc_cycle_cost: float = 2.0
    numa_aware: bool = True
    pinned: bool = True
    ser_cycles_per_byte: float = 0.0
    task_overhead_us: float = 20.0
    per_loop_overhead_us: float = 15.0
    #: the interpreter separates *essential* cycles (loads/stores/flops,
    #: which survive compilation) from *overhead* cycles (branches, struct
    #: shuffling, hash machinery). An optimizing backend eliminates most of
    #: the overhead — register allocation, cross-block CSE, inlining —
    #: keeping 1/overhead_elim of it. Calibrated ONCE globally (never per
    #: app); systems that run their own cost accounting (mini-Spark,
    #: mini-PowerGraph, DimmWitted, hand-C++) charge machine-ops directly
    #: and use 1.0.
    overhead_elim: float = 1.0
    #: kept for the GPU path: device codegen efficiency relative to the
    #: abstract cycle scale
    codegen_efficiency: float = 1.0

    def effective_rate(self, socket: SocketSpec) -> float:
        """Essential cycles per second one core retires."""
        return socket.core_rate_gops * GB / self.cycle_factor

    def effective_cycles(self, essential: float, overhead: float) -> float:
        return essential + overhead / self.overhead_elim

    def describe(self) -> dict:
        """Flat attribute dict for span/trace annotation."""
        return {
            "profile": self.name,
            "numa_aware": self.numa_aware,
            "pinned": self.pinned,
            "cycle_factor": self.cycle_factor,
        }


#: DMLL generating C++ (NUMA experiments): a low-overhead resident runtime
DMLL_CPP = SystemProfile("dmll-cpp", cycle_factor=1.0, numa_aware=True,
                         pinned=True, task_overhead_us=3.0,
                         per_loop_overhead_us=8.0, overhead_elim=5.0)
#: DMLL with thread pinning but no array partitioning (Fig. 7 "Pin Only")
DMLL_PIN_ONLY = SystemProfile("dmll-pin", cycle_factor=1.0, numa_aware=False,
                              pinned=True, task_overhead_us=3.0,
                              per_loop_overhead_us=8.0, overhead_elim=5.0)
#: DMLL generating Scala for the EC2 comparison (§6.2: "ran entirely in the
#: JVM to provide the most fair comparison with Spark")
DMLL_JVM = SystemProfile("dmll-jvm", cycle_factor=3.0, alloc_cycle_cost=5.0,
                         numa_aware=False, pinned=True,
                         ser_cycles_per_byte=3.0, overhead_elim=2.0)
#: Delite: same code generation quality, no NUMA awareness, no pinning
DELITE = SystemProfile("delite", cycle_factor=1.0, numa_aware=False,
                       pinned=False, overhead_elim=5.0)
#: Spark: JVM library, boxed records, serialized shuffles, heavier scheduler
SPARK = SystemProfile("spark", cycle_factor=6.0, alloc_cycle_cost=10.0,
                      numa_aware=False, pinned=False,
                      ser_cycles_per_byte=6.0, task_overhead_us=2000.0,
                      per_loop_overhead_us=4000.0)
#: PowerGraph: efficient C++ library engine, no NUMA partitioning
POWERGRAPH = SystemProfile("powergraph", cycle_factor=1.6,
                           alloc_cycle_cost=3.0, numa_aware=False,
                           pinned=True, ser_cycles_per_byte=0.5,
                           task_overhead_us=100.0, per_loop_overhead_us=150.0)
#: hand-optimized C++ (Table 2 baseline): no abstraction or allocation
#: overhead at all — in-place accumulation, reused buffers
HAND_CPP = SystemProfile("hand-cpp", cycle_factor=1.0, alloc_cycle_cost=0.0,
                         numa_aware=True, pinned=True, task_overhead_us=5.0,
                         per_loop_overhead_us=2.0)
#: DimmWitted: hand-written C++ Gibbs engine with pointer-chasing factor
#: graph structures (§6.3: "more pointer indirections ... for the sake of
#: user-friendly abstractions")
DIMMWITTED = SystemProfile("dimmwitted", cycle_factor=2.3,
                           alloc_cycle_cost=1.0, numa_aware=True, pinned=True)
