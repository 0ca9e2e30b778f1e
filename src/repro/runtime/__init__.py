"""Simulated heterogeneous runtime: machine models, partition
directories, and the hierarchical executor (§5)."""

from .distarray import Directory
from .executor import (ExecOptions, LoopSim, RunCapture, SimResult,
                       Simulator, capture_run, simulate)
from .machine import (DELITE, DIMMWITTED, DMLL_CPP, DMLL_JVM, DMLL_PIN_ONLY,
                      EC2_CLUSTER, GPU_CLUSTER, HAND_CPP, NUMA_BOX,
                      POWERGRAPH, SPARK, TESLA_C2050, ClusterSpec, GPUSpec,
                      NodeSpec, SocketSpec, SystemProfile, single_node)

__all__ = [
    "Directory",
    "ExecOptions", "LoopSim", "RunCapture", "SimResult", "Simulator",
    "capture_run", "simulate",
    "DELITE", "DIMMWITTED", "DMLL_CPP", "DMLL_JVM", "DMLL_PIN_ONLY",
    "EC2_CLUSTER", "GPU_CLUSTER", "HAND_CPP", "NUMA_BOX", "POWERGRAPH",
    "SPARK", "TESLA_C2050", "ClusterSpec", "GPUSpec", "NodeSpec",
    "SocketSpec", "SystemProfile", "single_node",
]
