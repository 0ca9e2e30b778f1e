"""Typed compiler/runtime diagnostics.

The paper mandates one observability hook structurally ("falling back to
runtime data movement **with a warning**", §4.1). The partitioning
analysis used to record that as a bare string; a ``Diagnostic`` keeps the
same human-readable message but adds a stable category, the loop symbol
it concerns, a severity, and free-form structured data — so tooling can
filter events without parsing prose. The old ``warnings`` string list
survives as a derived view (``PartitionReport.warnings``).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Any, Dict, Optional, Union

from .provenance import DecisionKind, emit


class Severity(str, enum.Enum):
    """Diagnostic severity, shared with the partitioning analysis.

    A ``str`` enum so historical comparisons against the literal strings
    keep working — but constructing one from a typo'd string raises, so a
    misspelled severity can no longer silently drop a diagnostic from the
    ``warnings`` view (it used to filter on the literal ``"warning"``).
    """

    WARNING = "warning"
    INFO = "info"

    @classmethod
    def of(cls, value: Union["Severity", str]) -> "Severity":
        if isinstance(value, cls):
            return value
        try:
            return cls(value)
        except ValueError:
            raise ValueError(
                f"unknown diagnostic severity {value!r}; expected one of "
                f"{[s.value for s in cls]}") from None


class DiagCategory(enum.Enum):
    """Stable event taxonomy (DESIGN.md §6d)."""

    #: a partitioned collection is accessed data-dependently and no Fig. 3
    #: rule removed the Unknown stencil — runtime movement/replication
    UNKNOWN_STENCIL_FALLBACK = "unknown-stencil-fallback"
    #: a sequential (non-loop) op consumes partitioned data and must run
    #: at a single location
    SEQUENTIAL_PARTITIONED = "sequential-partitioned"
    #: a GPU kernel reduces a vector-typed accumulator (temporaries exceed
    #: shared memory; Row-to-Column Reduce was not applicable / disabled)
    CUDA_VECTOR_REDUCE = "cuda-vector-reduce"
    #: the §4.2 replicate-vs-move policy chose full replication
    REPLICATION = "replication"
    #: the §4.2 policy chose dynamic remote fetches
    REMOTE_FETCH = "remote-fetch"
    #: a pass's internal fixpoint loop stopped at its iteration cap while
    #: the program was still changing — the result may not be a fixpoint
    ITERATION_CAP = "iteration-cap"


@dataclass(frozen=True)
class Diagnostic:
    """One typed, loop-attributed event."""

    category: DiagCategory
    message: str
    loop: Optional[str] = None       # name of the loop symbol it concerns
    severity: Severity = Severity.WARNING
    data: Dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        # normalize/validate str severities at construction time
        object.__setattr__(self, "severity", Severity.of(self.severity))

    def __str__(self) -> str:
        return self.message

    def render(self) -> str:
        where = f" loop={self.loop}" if self.loop else ""
        return f"[{self.category.value}{where}] {self.message}"


def iteration_cap(pass_name: str, cap: int) -> Diagnostic:
    """The typed outcome of a rewrite loop that ran out of iterations."""
    return Diagnostic(
        DiagCategory.ITERATION_CAP,
        f"{pass_name}: stopped at its cap of {cap} iteration(s) while the "
        f"program was still changing; the result may not be a fixpoint",
        data={"pass": pass_name, "cap": cap})


def emit_diagnostic(diag: Diagnostic) -> Diagnostic:
    """Route ``diag`` through the active decision ledger (a no-op without
    one) and hand it back, so a caller that also keeps a list of its
    diagnostics can ``append(emit_diagnostic(...))``."""
    emit(DecisionKind.DIAGNOSTIC, diag.loop or diag.category.value,
         diag.severity.value, diag.message, category=diag.category.value,
         **diag.data)
    return diag
