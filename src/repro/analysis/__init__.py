"""DMLL static analyses: read stencils (§4.2) and partitioning (§4.1)."""

from .partitioning import (DataLayout, LoopDistInfo, PartitionReport,
                           partition_and_transform)
from .stencil import (LoopStencils, Stencil, analyze_loop, analyze_program,
                      join_stencil)

__all__ = [
    "DataLayout", "LoopDistInfo", "PartitionReport", "partition_and_transform",
    "LoopStencils", "Stencil", "analyze_loop", "analyze_program",
    "join_stencil",
]
