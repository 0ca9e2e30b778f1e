"""Exporters: text profile report and Chrome-trace JSON.

The profile report is the data behind Figs. 6/7/8 for any single run: a
per-loop table sorted by simulated time with the compute/memory/comm/
overhead split and each loop's share of the total.

The Chrome-trace exporter emits the `Trace Event Format`_ consumed by
``chrome://tracing`` and Perfetto (https://ui.perfetto.dev): complete
("X") events with microsecond timestamps, one track (pid/tid) per
simulated machine, plus metadata events naming the tracks.

.. _Trace Event Format:
   https://docs.google.com/document/d/1CvAClvFfyA5R-PhYUmn5OOQtYMH4h6I0nSsKchNAySU
"""

from __future__ import annotations

import json
from typing import TYPE_CHECKING, Any, List, Tuple, Union

from ..report.tables import render_table
from .spans import ATTEMPT_PID, REQUEST_PID, SpanTable, Tracer, span_table

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids import cycle
    from ..runtime.executor import SimResult

_US = 1e6  # simulated seconds -> trace microseconds


# ---------------------------------------------------------------------------
# text profile report
# ---------------------------------------------------------------------------

def profile_report(sim: "SimResult", title: str = "") -> str:
    """Per-loop breakdown table, sorted by time, with % of total."""
    total = sim.total_seconds or 1e-30
    rows = []
    for l in sorted(sim.loops, key=lambda l: l.time_s, reverse=True):
        rows.append([
            l.name, l.op_name, l.iters, l.workers,
            f"{l.time_s * 1e3:10.3f}", f"{100.0 * l.time_s / total:5.1f}%",
            f"{l.compute_s * 1e3:.3f}", f"{l.memory_s * 1e3:.3f}",
            f"{l.comm_s * 1e3:.3f}", f"{l.overhead_s * 1e3:.3f}",
        ])
    rows.append(["TOTAL", "", "", "",
                 f"{sim.total_seconds * 1e3:10.3f}", "100.0%", "", "", "", ""])
    return render_table(
        ["loop", "op", "iters", "W", "time ms", "%",
         "compute", "memory", "comm", "overhead"],
        rows, title=title or "profile (simulated time, sorted by cost)")


def render_spans(source: Union[Tracer, SpanTable]) -> str:
    """Indented one-line-per-span view of a run (debug aid)."""
    return "\n".join(
        f"{'  ' * depth}{kind}:{name} "
        f"@{start_s * 1e3:.3f}ms +{dur_s * 1e3:.3f}ms"
        for depth, name, kind, start_s, dur_s, _ in span_table(source).rows())


# ---------------------------------------------------------------------------
# Chrome trace
# ---------------------------------------------------------------------------

def exact_round(x: Any, ndigits: int) -> Any:
    """``round(v, ndigits)`` of every element of the float64 array ``x``,
    bit for bit: ``rint(y)/10ⁿ`` wherever ``y = x·10ⁿ`` lies more than 2
    ulp from a .5 boundary (DESIGN.md §10 has the argument), ``round``
    itself near a tie, at ``|y| ≥ 2⁵²`` and for inf or nan."""
    import numpy as np
    scale = 10.0 ** ndigits
    with np.errstate(all="ignore"):  # inf and nan take the slow path
        y = x * scale
        out = np.rint(y) / scale
        near = (np.abs(y - np.floor(y) - 0.5)
                <= 2 * np.spacing(np.maximum(np.abs(y), 1.0)))
        fast = (np.abs(y) < 2.0 ** 52) & ~near
    for i in np.flatnonzero(~fast).tolist():
        out[i] = round(float(x[i]), ndigits)
    return out


def _event_order(pid: Any, tid: Any, ts: Any, dur: Any, kinds: List[str],
                 names: List[str]) -> List[int]:
    """Row positions in the events' total order — track, time, longest
    first (parents before children), kind, name, position — whatever
    order spans were completed in: a stable ``lexsort`` over the numbers,
    then a stable sort by (kind, name) of each run tied on all four."""
    import numpy as np
    order = np.lexsort((-dur, ts, tid, pid))
    tied = np.ones(max(len(order) - 1, 0), dtype=bool)
    for key in (pid, tid, ts, dur):
        ordered = key[order]
        tied &= ordered[1:] == ordered[:-1]
    order = order.tolist()
    edges = np.flatnonzero(np.diff(np.concatenate(([0], tied, [0]))))
    for a, b in zip(edges[::2].tolist(), edges[1::2].tolist()):
        order[a:b + 1] = sorted(order[a:b + 1],
                                key=lambda i: (kinds[i], names[i]))
    return order


def _flatten(t: SpanTable) -> Tuple[List[dict], List[dict], List[dict]]:
    """(metadata, complete, flow) events out of a span table, whose
    tracks become the events' and whose ``attrs`` their ``args``.

    Flow arrows: every ``request`` row carrying a ``batch_id``
    contributes one flow, a start ("s") on the request's own track at
    its dispatch time and a finish ("f", binding to the enclosing slice)
    on the matching ``batch`` row's machine track at the batch's start —
    N requests served by one execution render as N arrows converging on
    one slice. The flow id is the request's deterministic
    ``RequestContext.flow_id``, so traces diff byte-for-byte across
    same-seed runs."""
    import numpy as np
    names, kinds, pids, tids, args = t.name, t.kind, t.pid, t.tid, t.attrs
    n = len(names)
    ts = exact_round(np.fromiter(t.start_s, float, n) * _US, 3)
    dur = exact_round(np.fromiter(t.dur_s, float, n) * _US, 3)
    order = _event_order(np.fromiter(pids, np.int64, n),
                         np.fromiter(tids, np.int64, n), ts, dur, kinds, names)
    ts, dur = ts.tolist(), dur.tolist()
    events = [{"name": n, "cat": k, "ph": "X", "pid": p, "tid": i, "ts": s,
               "dur": d, "args": a}
              for n, k, p, i, s, d, a in zip(names, kinds, pids, tids, ts,
                                              dur, args)]
    events = [events[i] for i in order]

    def track_names(pid: int, process: str,
                    names: List[Tuple[int, str]]) -> List[dict]:
        return [{"name": "process_name", "ph": "M", "pid": pid, "tid": 0,
                 "args": {"name": process}}] + [
                {"name": "thread_name", "ph": "M", "pid": pid, "tid": tid,
                 "args": {"name": name}} for tid, name in names]

    machine_tids = {0, *(i for p, i in zip(pids, tids) if p == 1)}
    meta = track_names(1, "dmll simulated run", [
        (tid, "timeline" if tid == 0 else f"machine {tid - 1}")
        for tid in sorted(machine_tids)])
    requests = [i for i, k in enumerate(kinds) if k == "request"]
    if requests:
        meta += track_names(REQUEST_PID, "requests",
                            sorted({tids[i]: names[i] for i in requests}
                                   .items()))
    attempt_tids = {i for k, i in zip(kinds, tids) if k == "attempt"}
    if attempt_tids:
        meta += track_names(ATTEMPT_PID, "attempts", [
            (tid, f"r{tid} attempts") for tid in sorted(attempt_tids)])

    batches = {args[i]["batch_id"]: (tids[i], ts[i])
               for i, k in enumerate(kinds)
               if k == "batch" and "batch_id" in args[i]}
    #: (rid, flow id, dispatch µs, batch_id) per request, by rid
    arrows = [(tids[i], int(args[i].get("flow_id", tids[i])),
               float(args[i].get("dispatch_s", t.start_s[i])),
               args[i]["batch_id"])
              for i in requests if "batch_id" in args[i]]
    arrows.sort(key=lambda a: a[0])
    at = exact_round(np.array([a[2] for a in arrows], dtype=float) * _US, 3)
    flows: List[dict] = []
    for (rid, fid, _, batch_id), dispatch in zip(arrows, at.tolist()):
        batch = batches.get(batch_id)
        if batch is None:
            continue
        flows.append({"name": "req", "cat": "flow", "ph": "s", "id": fid,
                      "pid": REQUEST_PID, "tid": rid, "ts": dispatch})
        flows.append({"name": "req", "cat": "flow", "ph": "f", "bp": "e",
                      "id": fid, "pid": 1, "tid": batch[0], "ts": batch[1]})
    return meta, events, flows


def chrome_trace_events(source: Union[Tracer, SpanTable]) -> List[dict]:
    """Flatten run(s) into Chrome trace events (``ph: "X"``), plus
    request↔batch flow arrows when request spans are present — events,
    track names and arrows out of one span table. Metadata (sorted
    tracks) first, complete events in ``_event_order``, flow arrows by
    rid: same-seed runs serialize byte-identically."""
    meta, events, flows = _flatten(span_table(source))
    return meta + events + flows


def write_chrome_trace(path: str, source: Union[Tracer, SpanTable]) -> None:
    """Write a ``{"traceEvents": [...]}`` JSON file loadable in Perfetto."""
    doc = {"traceEvents": chrome_trace_events(source),
           "displayTimeUnit": "ms"}
    with open(path, "w") as f:
        json.dump(doc, f, indent=1)
        f.write("\n")
