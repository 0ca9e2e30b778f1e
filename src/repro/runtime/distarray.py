"""Distributed array runtime types (§5).

A ``PartitionedArray`` holds the logical array plus a ``Directory`` of
index ranges → locations, mirroring the paper's design: "we build a
directory of index ranges to locations when the array is first
instantiated and broadcast the directory to every physical instance".
Reads at indices that are not local to the ambient reader location are
*trapped* and counted (and, on real hardware, would be fetched remotely).

The executor prices communication analytically from stencils, but these
types make the mechanism concrete and are exercised directly by tests and
by the remote-read accounting of Unknown-stencil loops.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Dict, List, Optional, Sequence, Tuple

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..obs.metrics import MetricsRegistry

#: optional metrics sink for directory lookups and read traps. ``None``
#: (the default) keeps the hot paths guard-only — zero observability cost.
_METRICS: Optional["MetricsRegistry"] = None


def set_metrics(metrics: Optional["MetricsRegistry"]) -> Optional["MetricsRegistry"]:
    """Install (or clear, with ``None``) the registry that directory
    lookups and PartitionedArray read traps report into. Returns the
    previous registry so callers can restore it."""
    global _METRICS
    prev = _METRICS
    _METRICS = metrics
    return prev


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

    def owner(self, index: int) -> int:
        if not 0 <= index < self.length:
            raise IndexError(index)
        if _METRICS is not None:
            _METRICS.inc("distarray.directory_lookups")
        return bisect_right(self.starts, index) - 1

    def ranges(self) -> List[Tuple[int, int]]:
        return [self.range_of(p) for p in range(self.num_partitions)]


class ReaderContext:
    """Ambient 'which partition is executing' state, set by the executor
    around each chunk so PartitionedArray can classify reads."""

    __slots__ = ("location",)

    def __init__(self) -> None:
        self.location: Optional[int] = None


_AMBIENT = ReaderContext()


def set_reader_location(loc: Optional[int]) -> None:
    _AMBIENT.location = loc


class PartitionedArray:
    """A logical array spread across memory regions.

    Supports the full sequence protocol so the reference interpreter can
    consume it unchanged. Local/remote read counters are kept per array.
    """

    __slots__ = ("data", "directory", "local_reads", "remote_reads",
                 "remote_bytes", "elem_bytes")

    def __init__(self, data: Sequence[Any], parts: int, elem_bytes: int = 8):
        self.data = data
        self.directory = Directory.even(len(data), parts)
        self.local_reads = 0
        self.remote_reads = 0
        self.remote_bytes = 0
        self.elem_bytes = elem_bytes

    def __len__(self) -> int:
        return len(self.data)

    def __getitem__(self, idx: int) -> Any:
        loc = _AMBIENT.location
        if loc is not None:
            if self.directory.owner(idx) == loc:
                self.local_reads += 1
                if _METRICS is not None:
                    _METRICS.inc("distarray.local_reads")
            else:
                # trapped: would be transparently fetched from the remote
                # location that the directory names (§5)
                self.remote_reads += 1
                self.remote_bytes += self.elem_bytes
                if _METRICS is not None:
                    _METRICS.inc("distarray.remote_reads")
                    _METRICS.inc("distarray.remote_bytes", self.elem_bytes)
        return self.data[idx]

    def __iter__(self):
        return iter(self.data)

    def __eq__(self, other):
        if isinstance(other, PartitionedArray):
            return list(self.data) == list(other.data)
        if isinstance(other, (list, tuple)):
            return list(self.data) == list(other)
        return NotImplemented

    def local_chunk(self, part: int) -> Sequence[Any]:
        lo, hi = self.directory.range_of(part)
        return self.data[lo:hi]

    def __repr__(self) -> str:
        return (f"PartitionedArray(n={len(self.data)}, "
                f"parts={self.directory.num_partitions})")
