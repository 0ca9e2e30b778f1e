"""Hierarchical spans over *simulated* time.

A span covers a half-open interval ``[start_s, start_s + dur_s)`` of the
simulated clock and carries structured attributes. Every priced run is
one :class:`SpanTable`, a tree in pre-order: run → statement/loop →
machine → socket or GPU chunk — the §5 execution hierarchy made visible.

Spans are plain rows on purpose: the executor computes every duration
analytically, so there is no enter/exit bracketing to get wrong, and the
exporters (``repro.obs.export``) read the columns without any runtime
state. Tracing is strictly opt-in — when ``ExecOptions.tracer`` is unset
the executor never writes a row.

A run may leave the rows under its run row as a *derivation*
(:meth:`Tracer.defer`; a serving run records flat and fills a table with
:meth:`ServeRecord.table`): the derivation runs once, when somebody
first reads the run (``Tracer.runs`` / ``last_run`` / an exporter).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from operator import attrgetter, itemgetter
from typing import (Any, Callable, Dict, Iterator, List, Optional, Sequence,
                    Tuple, Union)

#: Chrome-trace processes of request lifecycles (with their queue/exec
#: children) and of execution attempts: a track per rid, so overlapping
#: lifecycles never fight over slice nesting on the machine tracks
REQUEST_PID, ATTEMPT_PID = 2, 3


class SpanTable:
    """Spans as columns, in pre-order: ``depth``, ``name``, ``kind``,
    ``start_s``, ``dur_s``, ``attrs`` and the Chrome track (``pid``,
    ``tid``: its rid's, or in process 1 the run/loop timeline, tid 0, or
    its simulated machine's, index + 1). Every ``attrs`` is JSON-ready: a
    scalar, a list of ``str`` or a ``str → str`` dict per key. Every
    exporter computes from these columns (the numeric ones as NumPy
    arrays); a row is one index across them."""

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

    def extend(self, other: "SpanTable") -> None:
        for col in self.COLUMNS:
            getattr(self, col).extend(getattr(other, col))

    def rows(self) -> Iterator[tuple]:
        """(depth, name, kind, start_s, dur_s, attrs) per row."""
        return zip(self.depth, self.name, self.kind, self.start_s,
                   self.dur_s, self.attrs)

    def parents(self) -> Any:
        """Each row's parent row (``-1`` for a run row) as a NumPy array:
        the latest row one level up."""
        import numpy as np
        depth = np.fromiter(self.depth, np.int64, len(self.depth))
        rows = np.arange(len(depth))
        parent = np.full(len(depth), -1)
        for level in range(1, int(depth.max(initial=0)) + 1):
            last = np.maximum.accumulate(np.where(depth == level - 1, rows, -1))
            parent[depth == level] = last[depth == level]
        return parent


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
#: a served request's ``TIMELINE_MARKS``, read off its response
#: (``serve.batching.Response``): seal and dispatch are the batch start
response_marks = attrgetter("request.arrival_s", "request.enqueue_s",
                            "start_s", "start_s", "exec_start_s", "finish_s")


def attempt_marks(req: Any, status: str, t: float,
                  resp: Any) -> Dict[str, float]:
    """stage → t, in lifecycle order, of the marks an attempt (a
    ``serve.batching.Request``) that ended as ``status`` at ``t`` reached,
    answered by ``resp`` if it executed (DESIGN.md §10 tabulates them)."""
    arrive = req.arrival_s if req.spawn_s is None else req.spawn_s
    if resp is not None:  # served, superseded, or requeued by a crash at t
        marks = (arrive,) + response_marks(resp)[1:]
        if status == "requeued":
            marks = tuple(m if m <= t else None for m in marks[:-1]) + (t,)
    elif status == "failed":  # dispatched, and completed by the fault
        marks = (arrive, req.enqueue_s, t, t, None, t)
    else:  # refused in the queue, or before it when shed
        marks = (arrive, None if status == "shed" else req.enqueue_s)
    return {s: m for s, m in zip(TIMELINE_MARKS, marks) if m is not None}


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

    A served request is its response, which carries every mark of the
    attempt that served it; every other attempt is a row of ``attempts``.
    Timelines and trace ids are derived when somebody reads them. The
    scheduler appends as it runs and closes the record with the crash
    windows and the horizon when the loop is dry. Requests and responses
    are duck-typed (``serve.batching``), as in ``obs.analyze``.
    """

    #: the server's responses, in completion order (the list it appends to)
    responses: List[Any]
    #: the traffic seed the trace ids derive from
    seed: int = 0
    #: rid → a row (request, status, t, response or ``None``) for every
    #: attempt that ended at ``t`` without serving the rid: superseded,
    #: requeued, failed, refused
    attempts: Dict[int, List[Tuple[Any, str, float, Any]]] = \
        field(default_factory=dict)
    #: what was dispatched, in dispatch order
    batches: List[BatchRecord] = field(default_factory=list)
    #: scripted crash windows that began inside the run, clipped to it:
    #: (machine label, machine index, machine name, t0, t1)
    crashes: List[Tuple[str, int, str, float, float]] = \
        field(default_factory=list)
    #: end of all machine activity and refusals: the run span's duration
    horizon: float = 0.0
    _by_rid: Dict[int, Any] = field(default_factory=dict, init=False,
                                    repr=False)

    def by_rid(self) -> Dict[int, Any]:
        """rid → the response that served it."""
        if len(self._by_rid) != len(self.responses):  # responses grew
            self._by_rid = {r.request.rid: r for r in self.responses}
        return self._by_rid

    def marks_of(self, rid: int) -> List[Tuple[int, str, Dict[str, float]]]:
        """(attempt, status, marks) of every attempt of ``rid``, the one
        that served it too, by attempt index."""
        rows = self.attempts.get(rid, [])
        resp = self.by_rid().get(rid)
        if resp is not None:
            rows = rows + [(resp.request, "served", resp.finish_s, resp)]
        return sorted(((row[0].attempt, row[1], attempt_marks(*row))
                       for row in rows), key=itemgetter(0))

    def table(self, run: SpanTable) -> None:
        """Append the run span's children to ``run``, in the one order
        every view keeps:
        the dispatches as they happened, each batch tiled by its priced
        loops; per-request lifecycles (arrive → complete) by rid, each
        followed by its ``queued`` and ``exec`` children and linked to
        the batch execution that served it via ``batch_id`` (the exporter
        turns that into flow arrows); one span per execution attempt, in
        their own trace process, for every request that needed more than
        one; the crash windows on the machine tracks. This is the only
        place that knows what a serving span looks like. Every ``attrs``
        is a dict of scalars."""
        add = run.add
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
        served = self.by_rid()
        for rid in sorted(served):
            resp = served[rid]
            req = resp.request
            ctx = RequestContext.derive(self.seed, rid)
            t0, t_q0, _, t_disp, t_x0, t_end = marks = response_marks(resp)
            attrs = {"rid": rid, "app": req.app, "trace_id": ctx.trace_id,
                     "span_id": ctx.span_id, "flow_id": ctx.flow_id,
                     "batch_id": resp.batch_id,
                     "batch_size": resp.batch_size,
                     "lane_packed": resp.lane_packed,
                     "machine": resp.machine, "backend": resp.backend,
                     "fallback": resp.fallback_reason,
                     "latency_s": resp.latency_s,
                     **{s + "_s": t for s, t in zip(TIMELINE_MARKS, marks)}}
            if req.attempt > 0:
                attrs["attempts"] = req.attempt + 1
            add(1, f"r{rid}:{req.app}", "request", t0, t_end - t0, attrs,
                REQUEST_PID, rid)
            add(2, "queued", "queue", t_q0, t_disp - t_q0, {"rid": rid},
                REQUEST_PID, rid)
            add(2, "exec", "exec", t_x0, t_end - t_x0,
                {"rid": rid, "batch_id": resp.batch_id}, REQUEST_PID, rid)
        for rid in sorted(self.attempts):
            # no attempt outlives the rid's winner, or the run
            end = (min(served[rid].finish_s, self.horizon) if rid in served
                   else self.horizon)
            for attempt, status, marks in self.marks_of(rid):
                t1 = min(max(marks.values()), end)
                t0 = min(min(marks.values()), t1)
                add(1, f"r{rid}:a{attempt}", "attempt", t0, t1 - t0,
                    {"rid": rid, "attempt": attempt, "status": status,
                     **{s + "_s": t for s, t in marks.items()}},
                    ATTEMPT_PID, rid)
        for label, index, name, t0, t1 in self.crashes:
            add(1, f"crash:{label}", "fault", t0, t1 - t0,
                {"machine": index, "machine_name": name, "fault": "crash"},
                1, index + 1)


class Tracer:
    """Collects one :class:`SpanTable` per priced run.

    A run is traced exactly when a tracer is passed: pass none for a
    zero-cost run.
    """

    def __init__(self) -> None:
        self._runs: List[SpanTable] = []
        #: id(run table) → the derivation of the rows it does not hold yet
        self._deferred: Dict[int, Callable[[SpanTable], None]] = {}

    def begin_run(self, name: str, **attrs: Any) -> SpanTable:
        """A new run's table. Its row 0 is the run (depth 0, from 0.0 on
        track (1, 0)), whose duration and attrs the caller completes in
        place; the caller appends the rows under it."""
        run = SpanTable()
        run.add(0, name, "run", 0.0, 0.0, attrs, 1, 0)
        self._runs.append(run)
        return run

    def defer(self, run: SpanTable,
              derive: Callable[[SpanTable], None]) -> None:
        """``run``'s remaining rows, after the ones it holds, are the ones
        ``derive(run)`` appends (depths counted from the run row at 0).
        The derivation runs once, when somebody first reads the run."""
        self._deferred[id(run)] = derive

    def _read(self, run: SpanTable) -> SpanTable:
        derive = self._deferred.pop(id(run), None)
        if derive is not None:
            derive(run)
        return run

    @property
    def runs(self) -> List[SpanTable]:
        return [self._read(run) for run in self._runs]

    @property
    def last_run(self) -> Optional[SpanTable]:
        return self._read(self._runs[-1]) if self._runs else None

    def clear(self) -> None:
        self._runs.clear()
        self._deferred.clear()


def span_table(source: Union[Tracer, SpanTable]) -> SpanTable:
    """A run's table itself, or every run of a tracer in one table."""
    if isinstance(source, SpanTable):
        return source
    table = SpanTable()
    for run in source.runs:
        table.extend(run)
    return table
