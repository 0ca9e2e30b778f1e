"""Hierarchical spans over *simulated* time.

A span covers a half-open interval ``[start_s, start_s + dur_s)`` of the
simulated clock and carries structured attributes. The executor builds
one tree per priced run: run → statement/loop → machine → socket or GPU
chunk — the §5 execution hierarchy made visible.

Spans are plain data on purpose: the executor computes every duration
analytically, so there is no enter/exit bracketing to get wrong, and the
exporters (``repro.obs.export``) can walk the tree without any runtime
state. Tracing is strictly opt-in — when ``ExecOptions.tracer`` is unset
the executor never allocates a span.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List, Optional, Tuple


@dataclass(frozen=True)
class RequestContext:
    """Trace identity of one serving request.

    Both ids derive from ``(seed, rid)`` alone so two runs with the
    same traffic seed produce byte-identical traces: ``trace_id`` is a
    32-hex (OTel-sized) id for the request's whole lifecycle,
    ``span_id`` the 16-hex id of its request span. The numeric
    ``flow_id`` keys the Chrome-trace flow arrow from this request into
    the lane-packed execution that served it: 53 bits of ``span_id``,
    the most a JSON consumer reads back exactly (31 bits collided for
    two of 2000 requests on seed 106).
    """

    trace_id: str
    span_id: str
    rid: int

    @property
    def flow_id(self) -> int:
        return int(self.span_id, 16) & ((1 << 53) - 1)

    @classmethod
    def derive(cls, seed: int, rid: int) -> "RequestContext":
        h = hashlib.sha256(f"serve:{seed}:{rid}".encode()).hexdigest()
        return cls(h[:32], h[32:48], rid)


#: lifecycle stages every request passes through, in order; the
#: timeline records the simulated second each one happened at
TIMELINE_MARKS = ("arrive", "enqueue", "seal", "dispatch", "exec_start",
                  "complete")


@dataclass
class RequestTimeline:
    """Per-request lifecycle timeline over the simulated serve clock.

    ``arrive`` — the request hits the server; ``enqueue`` — it enters
    its admission-queue group; ``seal`` — the batcher closes the group
    it belongs to; ``dispatch`` — the scheduler places the sealed batch
    on a machine; ``exec_start`` — its (possibly shared) execution
    begins; ``complete`` — its response is final. Marks are monotone
    non-decreasing, which ``repro.obs.check`` relies on.
    """

    ctx: RequestContext
    marks: Dict[str, float] = field(default_factory=dict)

    def mark(self, stage: str, t: float) -> None:
        if stage not in TIMELINE_MARKS:
            raise ValueError(f"unknown lifecycle stage {stage!r}")
        self.marks[stage] = t

    def get(self, stage: str) -> Optional[float]:
        return self.marks.get(stage)

    def ordered(self) -> List[Tuple[str, float]]:
        """(stage, t) pairs in lifecycle order, only recorded stages."""
        return [(s, self.marks[s]) for s in TIMELINE_MARKS
                if s in self.marks]


@dataclass
class Span:
    """One node of the span tree."""

    name: str
    kind: str                    # "run" | "loop" | "machine" | "socket" | "gpu"
    start_s: float
    dur_s: float = 0.0
    attrs: Dict[str, Any] = field(default_factory=dict)
    children: List["Span"] = field(default_factory=list)

    @property
    def end_s(self) -> float:
        return self.start_s + self.dur_s

    def child(self, name: str, kind: str, start_s: float,
              dur_s: float = 0.0, **attrs: Any) -> "Span":
        sp = Span(name, kind, start_s, dur_s, attrs)
        self.children.append(sp)
        return sp

    def set(self, **attrs: Any) -> "Span":
        self.attrs.update(attrs)
        return self

    def walk(self, depth: int = 0) -> Iterator[Tuple["Span", int]]:
        """Depth-first (pre-order) traversal: yields (span, depth)."""
        yield self, depth
        for c in self.children:
            yield from c.walk(depth + 1)

    def contains(self, other: "Span", tol: float = 1e-9) -> bool:
        """Does this span's interval cover ``other``'s (within ``tol``)?"""
        return (other.start_s >= self.start_s - tol
                and other.end_s <= self.end_s + tol)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"Span({self.kind}:{self.name} @{self.start_s:.6f}"
                f"+{self.dur_s:.6f}, {len(self.children)} children)")


class Tracer:
    """Collects span trees, one root per priced run.

    ``enabled`` is the single guard the executor checks before doing any
    observability work; flip it off (or simply pass no tracer) for
    zero-cost runs.
    """

    def __init__(self, enabled: bool = True):
        self.enabled = enabled
        self.runs: List[Span] = []

    def begin_run(self, name: str, **attrs: Any) -> Span:
        root = Span(name, "run", 0.0, 0.0, dict(attrs))
        self.runs.append(root)
        return root

    @property
    def last_run(self) -> Optional[Span]:
        return self.runs[-1] if self.runs else None

    def clear(self) -> None:
        self.runs.clear()
