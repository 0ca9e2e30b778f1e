"""Partition directories (§5).

The paper's runtime builds "a directory of index ranges to locations when
the array is first instantiated" and traps reads of non-local indices.
Here data movement is priced analytically instead (DESIGN.md §4): the
executor splits a loop's iterations with ``Directory.even`` — across
machines, across sockets, and into the chunks that bound load imbalance —
and combines those chunks with the loop's read stencils.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple


@dataclass(frozen=True)
class Directory:
    """Index ranges of each partition of a logical array."""

    length: int
    starts: Tuple[int, ...]     # start index of each partition

    @staticmethod
    def even(length: int, parts: int) -> "Directory":
        parts = max(1, min(parts, max(length, 1)))
        base, extra = divmod(length, parts)
        starts = []
        pos = 0
        for p in range(parts):
            starts.append(pos)
            pos += base + (1 if p < extra else 0)
        return Directory(length, tuple(starts))

    @property
    def num_partitions(self) -> int:
        return len(self.starts)

    def range_of(self, part: int) -> Tuple[int, int]:
        lo = self.starts[part]
        hi = (self.starts[part + 1] if part + 1 < len(self.starts)
              else self.length)
        return lo, hi

    def size_of(self, part: int) -> int:
        lo, hi = self.range_of(part)
        return hi - lo
