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

Every consumer reads a tree as columns in pre-order, one
:class:`SpanTable` (:func:`span_table`; :func:`span_rows` is its row
view). A run may leave the spans under its root as a *derivation*
instead of objects (:meth:`Tracer.defer`; a serving run records flat and
fills a table with :meth:`ServeRecord.table`): the derivation runs once,
when the first exporter reads it, and ``Span`` objects are built from
the table only when somebody asks for the tree (``Tracer.runs`` /
``last_run``).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import (Any, Callable, Dict, Iterator, List, Optional, Sequence,
                    Tuple, Union)

#: one span, flat: (depth, name, kind, start_s, dur_s, attrs)
Row = Tuple[int, str, str, float, float, Dict[str, Any]]

#: Chrome-trace processes of request lifecycles (with their queue/exec
#: children) and of execution attempts: a track per rid, so overlapping
#: lifecycles never fight over slice nesting on the machine tracks
REQUEST_PID, ATTEMPT_PID = 2, 3


def _track(kind: str, attrs: Dict[str, Any]) -> Tuple[int, int]:
    """A span's Chrome track (pid, tid): its rid's, or in process 1 the
    run/loop timeline (tid 0) or its simulated machine's (index + 1)."""
    if kind in ("request", "queue", "exec"):
        return REQUEST_PID, int(attrs.get("rid", 0))
    if kind == "attempt":
        return ATTEMPT_PID, int(attrs.get("rid", 0))
    m = attrs.get("machine")
    return 1, 0 if m is None else int(m) + 1


class SpanTable:
    """Spans as columns, in pre-order: ``depth``, ``name``, ``kind``,
    ``start_s``, ``dur_s``, ``attrs`` and the Chrome track (``pid``,
    ``tid``). Every exporter computes from these columns (the numeric
    ones as NumPy arrays); a row is one index across them."""

    COLUMNS = ("depth", "name", "kind", "start_s", "dur_s", "pid", "tid",
               "attrs")

    def __init__(self) -> None:
        for col in self.COLUMNS:
            setattr(self, col, [])

    def add(self, depth: int, name: str, kind: str, start_s: float,
            dur_s: float, attrs: Dict[str, Any], pid: int, tid: int) -> None:
        self.depth.append(depth)
        self.name.append(name)
        self.kind.append(kind)
        self.start_s.append(start_s)
        self.dur_s.append(dur_s)
        self.attrs.append(attrs)
        self.pid.append(pid)
        self.tid.append(tid)

    def extend(self, other: "SpanTable", copy_attrs: bool = False) -> None:
        for col in self.COLUMNS[:-1]:
            getattr(self, col).extend(getattr(other, col))
        self.attrs.extend(map(dict, other.attrs) if copy_attrs
                          else other.attrs)

    def rows(self) -> Iterator[Row]:
        return zip(self.depth, self.name, self.kind, self.start_s,
                   self.dur_s, self.attrs)


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
#: (stage, the attr a request span records it under)
_MARK_KEYS = tuple((stage, stage + "_s") for stage in TIMELINE_MARKS)


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
        todo = [(self, depth)]
        while todo:
            sp, d = todo.pop()
            yield sp, d
            if sp.children:
                todo.extend([(c, d + 1) for c in reversed(sp.children)])

    def contains(self, other: "Span", tol: float = 1e-9) -> bool:
        """Does this span's interval cover ``other``'s (within ``tol``)?"""
        return (other.start_s >= self.start_s - tol
                and other.end_s <= self.end_s + tol)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"Span({self.kind}:{self.name} @{self.start_s:.6f}"
                f"+{self.dur_s:.6f}, {len(self.children)} children)")


@dataclass
class BatchRecord:
    """One dispatch of a serving run — a batch on a machine, or the
    instant a kernel fault killed one: a span's fields, which the
    scheduler may still amend (a crash cuts a running batch short), and
    the priced loops (``runtime.executor.LoopStats``) that tile it."""

    name: str
    kind: str                    # "batch" | "fault"
    start_s: float
    dur_s: float
    attrs: Dict[str, Any]
    loops: Sequence[Any] = ()


@dataclass
class ServeRecord:
    """What a traced serving run recorded, flat: everything the spans
    under its run span are derived from, and nothing of the server that
    recorded it (machines, queue and compile cache die with the server,
    whoever still holds the tracer).

    The scheduler appends to ``batches`` and fills the three dicts while
    it runs — they *are* its tracing state — and closes the record with
    the crash windows and the horizon when the loop is dry. Responses are
    duck-typed (``serve.batching.Response``), as in ``obs.analyze``.
    """

    #: what was dispatched, in dispatch order
    batches: List[BatchRecord] = field(default_factory=list)
    #: rid → the request's timeline (its winning attempt's, once served)
    timelines: Dict[int, RequestTimeline] = field(default_factory=dict)
    #: rid → (timeline, attempt, status) of every attempt other than a
    #: first attempt that was served: retries, hedges, re-enqueues, refusals
    attempts: Dict[int, List[Tuple[RequestTimeline, int, str]]] = \
        field(default_factory=dict)
    #: rid → the response that served it
    served: Dict[int, Any] = field(default_factory=dict)
    #: scripted crash windows that began inside the run, clipped to it:
    #: (machine label, machine index, machine name, t0, t1)
    crashes: List[Tuple[str, int, str, float, float]] = \
        field(default_factory=list)
    #: end of all machine activity and refusals: the run span's duration
    horizon: float = 0.0

    def attempts_of(self, rid: int) -> List[Tuple[int, str, RequestTimeline]]:
        """Every attempt of ``rid`` as (attempt, status, timeline), by
        attempt index."""
        out = [(a, status, tl) for tl, a, status in self.attempts.get(rid, ())]
        resp = self.served.get(rid)
        if resp is not None and resp.request.attempt == 0:
            out.append((0, "served", resp.request.tl))
        return sorted(out, key=lambda e: e[0])

    def table(self) -> SpanTable:
        """The run span's children, in the one order every view keeps:
        the dispatches as they happened, each batch tiled by its priced
        loops; per-request lifecycles (arrive → complete) by rid, each
        followed by its ``queued`` and ``exec`` children and linked to
        the batch execution that served it via ``batch_id`` (the exporter
        turns that into flow arrows); one span per execution attempt, in
        their own trace process, for every request that needed more than
        one; the crash windows on the machine tracks. This is the only
        place that knows what a serving span looks like. Every ``attrs``
        is a dict of scalars."""
        table = SpanTable()
        add = table.add
        for b in self.batches:
            # the memoized pricing carries its own machine indices, which
            # would land the loops on the wrong row: pin them to the batch's
            machine = b.attrs["machine"]
            add(1, b.name, b.kind, b.start_s, b.dur_s, b.attrs, 1, machine + 1)
            cursor = b.start_s
            for loop in b.loops:
                add(2, loop.name, "loop", cursor, loop.time_s,
                    {"machine": machine, "op": loop.op_name,
                     "iters": loop.iters, "workers": loop.workers,
                     "compute_s": loop.compute_s, "memory_s": loop.memory_s,
                     "comm_s": loop.comm_s, "overhead_s": loop.overhead_s},
                    1, machine + 1)
                cursor += loop.time_s
        timelines = self.timelines
        for rid in sorted(self.served):
            resp = self.served[rid]
            req = resp.request
            ctx = req.ctx
            marks = timelines[rid].marks
            t0 = marks.get("arrive")
            t_end = marks.get("complete")
            if t0 is None or t_end is None:
                continue
            attrs = {"rid": rid, "app": req.app, "trace_id": ctx.trace_id,
                     "span_id": ctx.span_id, "flow_id": ctx.flow_id,
                     "batch_id": resp.batch_id,
                     "batch_size": resp.batch_size,
                     "lane_packed": resp.lane_packed,
                     "machine": resp.machine, "backend": resp.backend,
                     "fallback": resp.fallback_reason,
                     "latency_s": resp.latency_s}
            for stage, key in _MARK_KEYS:
                if stage in marks:
                    attrs[key] = marks[stage]
            if req.attempt > 0:
                attrs["attempts"] = req.attempt + 1
            add(1, f"r{rid}:{req.app}", "request", t0, t_end - t0, attrs,
                REQUEST_PID, rid)
            t_q0 = marks.get("enqueue")
            t_disp = marks.get("dispatch")
            if t_q0 is not None and t_disp is not None:
                add(2, "queued", "queue", t_q0, t_disp - t_q0, {"rid": rid},
                    REQUEST_PID, rid)
            t_x0 = marks.get("exec_start")
            if t_x0 is not None:
                add(2, "exec", "exec", t_x0, t_end - t_x0,
                    {"rid": rid, "batch_id": resp.batch_id}, REQUEST_PID, rid)
        for rid in sorted(self.attempts):
            resp = self.served.get(rid)
            win_end = None if resp is None else resp.finish_s
            for attempt, status, tl in self.attempts_of(rid):
                stages = tl.ordered()
                if not stages:
                    continue
                times = [t for _, t in stages]
                t1 = max(times)
                if win_end is not None:
                    t1 = min(t1, win_end)
                t1 = min(t1, self.horizon)
                t0 = min(min(times), t1)
                attrs = {"rid": rid, "attempt": attempt, "status": status}
                for stage, t in stages:
                    attrs[stage + "_s"] = t
                add(1, f"r{rid}:a{attempt}", "attempt", t0, t1 - t0, attrs,
                    ATTEMPT_PID, rid)
        for label, index, name, t0, t1 in self.crashes:
            add(1, f"crash:{label}", "fault", t0, t1 - t0,
                {"machine": index, "machine_name": name, "fault": "crash"},
                1, index + 1)
        return table


class Tracer:
    """Collects span trees, one root per priced run.

    ``enabled`` is the single guard the executor checks before doing any
    observability work; flip it off (or simply pass no tracer) for
    zero-cost runs.
    """

    def __init__(self, enabled: bool = True):
        self.enabled = enabled
        self._runs: List[Span] = []
        #: id(run root) → the children it does not hold as objects (yet):
        #: their derivation, or once somebody read them, its table
        self._deferred: Dict[int, Union[Callable[[], SpanTable],
                                        SpanTable]] = {}

    def begin_run(self, name: str, **attrs: Any) -> Span:
        root = Span(name, "run", 0.0, 0.0, dict(attrs))
        self._runs.append(root)
        return root

    def defer(self, root: Span, derive: Callable[[], SpanTable]) -> None:
        """``root``'s remaining children, after the ones it holds, are
        the rows of ``derive()`` (depths counted from ``root`` at 0; every
        ``attrs`` a dict of scalars). The derivation runs once, when a
        consumer of :func:`span_table` or of the tree first needs it;
        asking for the tree turns its rows into ``Span``s."""
        self._deferred[id(root)] = derive

    def _derived(self, root: Span) -> SpanTable:
        table = self._deferred.get(id(root)) or SpanTable()
        if callable(table):
            table = self._deferred[id(root)] = table()
        return table

    def _tree(self, root: Span) -> Span:
        path = [root]
        for depth, name, kind, start_s, dur_s, attrs in \
                self._derived(root).rows():
            sp = Span(name, kind, start_s, dur_s, attrs)
            del path[depth:]
            path[-1].children.append(sp)
            path.append(sp)
        self._deferred.pop(id(root), None)
        return root

    @property
    def runs(self) -> List[Span]:
        for root in self._runs:
            self._tree(root)
        return self._runs

    @property
    def last_run(self) -> Optional[Span]:
        return self._tree(self._runs[-1]) if self._runs else None

    def clear(self) -> None:
        self._runs.clear()
        self._deferred.clear()


def span_table(source: Union[Tracer, Span],
               own: Optional[Callable[[Dict[str, Any]], Dict[str, Any]]] = None
               ) -> SpanTable:
    """Every span of a tracer's runs (or of one tree) in one table, the
    same before and after ``Tracer.runs`` built the deferred ones. Its
    ``attrs`` are the spans' own; a consumer that keeps them passes
    ``own``, which copies (and may clean) a ``Span``'s — derived attrs
    are scalars by contract and are copied as they are."""
    table = SpanTable()
    tracer = source if isinstance(source, Tracer) else None
    for root in [source] if tracer is None else tracer._runs:
        for sp, depth in root.walk():
            attrs = sp.attrs if own is None else own(sp.attrs)
            table.add(depth, sp.name, sp.kind, sp.start_s, sp.dur_s, attrs,
                      *_track(sp.kind, attrs))
        if tracer is not None:
            table.extend(tracer._derived(root), copy_attrs=own is not None)
    return table


def span_rows(source: Union[Tracer, Span],
              own: Optional[Callable[[Dict[str, Any]], Dict[str, Any]]] = None
              ) -> Iterator[Row]:
    """:func:`span_table` as ``(depth, name, kind, start_s, dur_s, attrs)``
    rows."""
    return span_table(source, own).rows()
