"""Critical-path extraction over simulated-time span tables (DESIGN.md §12).

A priced run's span table already encodes everything the critical path
needs: every span covers an analytically computed interval of the
simulated clock, so the chain of spans that bounds end-to-end time can
be recovered with a backward walk — no sampling, no instrumentation.

Two extractors live here:

* :func:`critical_path` — for a single-app run
  (run → loop → machine → socket/GPU): walk backward from each span's
  end, repeatedly picking the child whose interval bounds the cursor;
  gaps between chosen children are the parent's *self time* (work not
  explained by any child — e.g. a loop's serial comm/overhead tail
  above its parallel machine chunks). Self times over the returned
  steps sum to the run's duration.

* :func:`fleet_attribution` — for a serve run (run → batch spans
  on per-machine tracks): the backward greedy chain over batch spans
  yields the sequence of executions that bounds makespan; per machine
  we report busy/idle/utilization and *time on the critical path*,
  which ranks replicas by how much of the end-to-end time they alone
  explain. Chain gaps are arrival-bound waiting (every machine idle).

Both are pure functions over a run's :class:`~repro.obs.spans.SpanTable`
columns — they allocate nothing during execution and therefore keep the
zero-cost-when-disabled contract trivially (no tracer → no table → the
analytics are simply never called).
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import Any, Dict, List, Optional, Sequence

from ..report.tables import render_table
from .spans import SpanTable

#: slack below which two simulated times are considered equal
_TOL = 1e-12


@dataclass
class PathStep:
    """One span on the critical path with its self-time attribution."""

    name: str
    kind: str
    depth: int
    start_s: float
    dur_s: float
    #: simulated seconds on the path not explained by any chosen child
    self_s: float


@dataclass
class CriticalPath:
    """The chain of spans bounding a run's end-to-end simulated time."""

    run: str
    total_s: float
    steps: List[PathStep] = field(default_factory=list)

    @property
    def attributed_s(self) -> float:
        return sum(s.self_s for s in self.steps)

    def dominant(self, kind: Optional[str] = None) -> Optional[PathStep]:
        """The step with the largest self time (optionally of one kind)."""
        cands = [s for s in self.steps if kind is None or s.kind == kind]
        if not cands:
            return None
        return max(cands, key=lambda s: s.self_s)

    def to_json(self) -> Dict[str, Any]:
        return {"root": self.run, "total_s": self.total_s,
                "attributed_s": self.attributed_s,
                "steps": [asdict(s) for s in self.steps]}

    def render(self) -> str:
        total = self.total_s or 1.0
        rows = []
        for s in self.steps:
            rows.append(("  " * s.depth + s.name, s.kind,
                         f"{s.start_s * 1e3:.3f}",
                         f"{s.dur_s * 1e3:.3f}",
                         f"{s.self_s * 1e3:.3f}",
                         f"{100.0 * s.self_s / total:5.1f}%"))
        table = render_table(
            ["span", "kind", "start ms", "dur ms", "self ms", "share"],
            rows, title=f"critical path: {self.run} "
                        f"({self.total_s * 1e3:.3f} ms end-to-end)")
        return table


def critical_path(run: SpanTable,
                  kinds: Optional[Sequence[str]] = None) -> CriticalPath:
    """Extract the chain of spans that bounds the duration of ``run``'s
    row 0.

    The walk is backward-greedy: starting from a span's end, repeatedly
    choose the child whose interval bounds the cursor (latest-ending
    child starting strictly before it), move the cursor to that child's
    start, and descend into every chosen child. Time between chosen
    children — and before the first one — is the parent's self time, so
    ``sum(step.self_s) == total_s`` up to float tolerance.

    ``kinds`` optionally restricts which child kinds may appear on the
    path (e.g. ``("loop", "machine")`` to stop above socket chunks);
    the run itself is always included.
    """
    name, kind, start, dur = run.name, run.kind, run.start_s, run.dur_s
    end = [s + d for s, d in zip(start, dur)]
    children: Dict[int, List[int]] = {}
    for row, up in enumerate(run.parents().tolist()):
        if up >= 0 and (not kinds or kind[row] in kinds) and dur[row] > _TOL:
            children.setdefault(up, []).append(row)
    steps: List[PathStep] = []
    todo = [(0, 0)]
    while todo:
        row, depth = todo.pop()
        cursor = end[row]
        self_s = 0.0
        chosen: List[int] = []
        # Latest-ending child first; ties broken on start then name so the
        # path is deterministic under any sibling order.
        for c in sorted(children.get(row, ()),
                        key=lambda c: (-end[c], start[c], name[c])):
            if start[c] >= cursor - _TOL:
                continue                      # cannot bound the cursor
            bounded_end = min(end[c], cursor)
            if cursor - bounded_end > _TOL:
                self_s += cursor - bounded_end    # parent-only execution gap
            chosen.append(c)
            cursor = start[c]
            if cursor <= start[row] + _TOL:
                break
        self_s += max(0.0, cursor - start[row])
        steps.append(PathStep(name[row], kind[row], depth, start[row],
                              dur[row], self_s))
        todo.extend((c, depth + 1) for c in reversed(chosen))
    steps.sort(key=lambda s: (s.start_s, s.depth))
    return CriticalPath(name[0], dur[0], steps)


# ---------------------------------------------------------------------------
# Fleet bottleneck attribution (serve runs)
# ---------------------------------------------------------------------------

@dataclass
class ChainSeg:
    """One segment of the serve critical chain: a batch execution on a
    machine or an arrival-bound wait (no batch running anywhere on the
    fleet)."""

    kind: str                 # "batch" | "wait"
    start_s: float
    end_s: float
    machine: Optional[int] = None

    @property
    def dur_s(self) -> float:
        return self.end_s - self.start_s


@dataclass
class MachineAttribution:
    """Per-replica share of fleet time and of the critical chain."""

    machine: int
    name: str
    busy_s: float = 0.0
    batches: int = 0
    critical_s: float = 0.0


@dataclass
class FleetReport:
    """Fleet bottleneck attribution for one serve run."""

    run: str
    makespan_s: float
    machines: List[MachineAttribution] = field(default_factory=list)
    chain: List[ChainSeg] = field(default_factory=list)
    wait_s: float = 0.0

    def ranked(self) -> List[MachineAttribution]:
        """Replicas ordered by time-on-critical-path (the bottleneck
        ranking), busiest first; ties broken on busy time then index."""
        return sorted(self.machines,
                      key=lambda m: (-m.critical_s, -m.busy_s, m.machine))

    def to_json(self) -> Dict[str, Any]:
        return {"makespan_s": self.makespan_s, "wait_s": self.wait_s,
                "machines": [asdict(m) for m in self.ranked()]}

    def render(self) -> str:
        mk = self.makespan_s or 1.0
        rows = []
        for m in self.ranked():
            rows.append((f"{m.name}[{m.machine}]", str(m.batches),
                         f"{m.busy_s * 1e3:.3f}",
                         f"{100.0 * m.busy_s / mk:5.1f}%",
                         f"{m.critical_s * 1e3:.3f}",
                         f"{100.0 * m.critical_s / mk:5.1f}%"))
        table = render_table(
            ["replica", "batches", "busy ms", "util", "critical ms",
             "on-path"],
            rows, title=f"fleet attribution: {self.run} "
                        f"(makespan {mk * 1e3:.3f} ms, "
                        f"arrival-bound wait {self.wait_s * 1e3:.3f} ms)")
        return table


def fleet_attribution(run: SpanTable) -> FleetReport:
    """Attribute a serve run's makespan (its row 0) across replicas.

    Batch rows (kind ``"batch"``) carry a ``machine`` attribute (the
    replica index). The critical chain is the backward-greedy sequence
    of batch executions bounding the makespan; segments of the chain
    covered by no batch are arrival-bound waits charged to no machine.
    """
    start, dur = run.start_s, run.dur_s
    rep = FleetReport(run.name[0], dur[0])
    #: (start, end, machine index) of every batch, in row order
    batches = []
    per: Dict[int, MachineAttribution] = {}
    for i in (i for i, kind in enumerate(run.kind) if kind == "batch"):
        a = run.attrs[i]
        idx = int(a.get("machine", -1))
        ma = per.get(idx)
        if ma is None:
            ma = per[idx] = MachineAttribution(
                idx, str(a.get("machine_name", f"m{idx}")))
        ma.busy_s += dur[i]
        ma.batches += 1
        batches.append((start[i], start[i] + dur[i], idx))

    cursor = start[0] + dur[0]
    while cursor > start[0] + _TOL:
        cands = [b for b in batches if b[0] < cursor - _TOL]
        if not cands:
            break
        b0, b1, idx = max(cands, key=lambda b: (min(b[1], cursor), b[0],
                                                -b[2]))
        end = min(b1, cursor)
        if cursor - end > _TOL:
            rep.chain.append(ChainSeg("wait", end, cursor))
        rep.chain.append(ChainSeg("batch", b0, end, idx))
        cursor = b0
    if cursor > start[0] + _TOL:
        rep.chain.append(ChainSeg("wait", start[0], cursor))
    rep.chain.reverse()

    for seg in rep.chain:
        if seg.kind == "wait":
            rep.wait_s += seg.dur_s
        else:
            per[seg.machine].critical_s += seg.dur_s
    rep.machines = [per[k] for k in sorted(per)]
    return rep
