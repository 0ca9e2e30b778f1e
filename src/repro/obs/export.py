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
from typing import (TYPE_CHECKING, Any, Dict, Iterable, List, Set, Tuple,
                    Union)

from ..report.tables import render_table
from .spans import Row, Span, Tracer, span_rows

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


def render_spans(root: Span) -> str:
    """Indented one-line-per-span view of a span tree (debug aid)."""
    return "\n".join(
        f"{'  ' * depth}{kind}:{name} "
        f"@{start_s * 1e3:.3f}ms +{dur_s * 1e3:.3f}ms"
        for depth, name, kind, start_s, dur_s, _ in span_rows(root))


# ---------------------------------------------------------------------------
# Chrome trace
# ---------------------------------------------------------------------------

def _clean_args(attrs: Dict[str, Any]) -> Dict[str, Any]:
    """JSON-safe copy of span attributes."""
    out: Dict[str, Any] = {}
    for k, v in attrs.items():
        if isinstance(v, (str, int, float, bool)) or v is None:
            out[k] = v
        elif isinstance(v, dict):
            out[k] = {str(kk): str(vv) for kk, vv in v.items()}
        elif isinstance(v, (list, tuple)):
            out[k] = [str(x) for x in v]
        else:
            out[k] = str(v)
    return out


#: request-lifecycle spans live in their own trace process so each
#: request gets a private track and overlapping lifecycles never fight
#: over slice nesting on the machine tracks
_REQUEST_PID = 2
_REQUEST_KINDS = ("request", "queue", "exec")

#: per-attempt spans (retries, hedges, crash re-enqueues) live in a
#: third process: attempts of one request share a track, so a hedge
#: racing its primary nests instead of fighting the winning request
#: span's queue/exec children for slice nesting
_ATTEMPT_PID = 3


def _flatten(rows: Iterable[Row]) -> Tuple[List[dict], List[dict], List[dict]]:
    """(metadata, complete, flow) events out of one pass over span rows,
    which hands each row's ``attrs`` over as the event's ``args``.

    Track assignment: requests and attempts get one track per rid in
    their own process; everything else is process 1, where the run/loop
    timeline is tid 0 and each simulated machine gets its own tid so its
    chunks nest under its loop row in the viewer.

    Flow arrows: every ``request`` row carrying a ``batch_id``
    contributes one flow, a start ("s") on the request's own track at
    its dispatch time and a finish ("f", binding to the enclosing slice)
    on the matching ``batch`` row's machine track at the batch's start —
    N requests served by one execution render as N arrows converging on
    one slice. The flow id is the request's deterministic
    ``RequestContext.flow_id``, so traces diff byte-for-byte across
    same-seed runs."""
    events: List[dict] = []
    #: the total order over complete events — track, then time, then
    #: longest slice first (so parents precede children at equal ts),
    #: then kind and name — with each event's position behind it: sorting
    #: these is a stable sort of the events, byte-identical no matter
    #: what order spans were completed in, and all but free where the
    #: rows already come in track order
    keys: List[tuple] = []
    tids = {0}
    req_tids: Dict[int, str] = {}
    attempt_tids: Set[int] = set()
    batches: Dict[Any, Tuple[int, float]] = {}  # batch_id → (tid, ts)
    #: (rid, flow id, dispatch second, batch_id) per request
    arrows: List[Tuple[int, int, float, Any]] = []
    for _depth, name, kind, start_s, dur_s, args in rows:
        ts = round(start_s * _US, 3)
        dur = round(dur_s * _US, 3)
        if kind in _REQUEST_KINDS:
            pid, tid = _REQUEST_PID, int(args.get("rid", 0))
            if kind == "request":
                req_tids[tid] = name
                if "batch_id" in args:
                    arrows.append((tid, int(args.get("flow_id", tid)),
                                   float(args.get("dispatch_s", start_s)),
                                   args["batch_id"]))
        elif kind == "attempt":
            pid, tid = _ATTEMPT_PID, int(args.get("rid", 0))
            attempt_tids.add(tid)
        else:
            m = args.get("machine")
            pid, tid = 1, 0 if m is None else int(m) + 1
            tids.add(tid)
            if kind == "batch" and "batch_id" in args:
                batches[args["batch_id"]] = (tid, ts)
        keys.append((pid, tid, ts, -dur, kind, name, len(events)))
        events.append({"name": name, "cat": kind, "ph": "X", "pid": pid,
                       "tid": tid, "ts": ts, "dur": dur, "args": args})
    keys.sort()
    events = [events[k[-1]] for k in keys]

    def track_names(pid: int, process: str,
                    names: List[Tuple[int, str]]) -> List[dict]:
        return [{"name": "process_name", "ph": "M", "pid": pid, "tid": 0,
                 "args": {"name": process}}] + [
                {"name": "thread_name", "ph": "M", "pid": pid, "tid": tid,
                 "args": {"name": name}} for tid, name in names]

    meta = track_names(1, "dmll simulated run", [
        (tid, "timeline" if tid == 0 else f"machine {tid - 1}")
        for tid in sorted(tids)])
    if req_tids:
        meta += track_names(_REQUEST_PID, "requests",
                            sorted(req_tids.items()))
    if attempt_tids:
        meta += track_names(_ATTEMPT_PID, "attempts", [
            (tid, f"r{tid} attempts") for tid in sorted(attempt_tids)])

    flows: List[dict] = []
    arrows.sort(key=lambda a: a[0])
    for rid, fid, dispatch_s, batch_id in arrows:
        batch = batches.get(batch_id)
        if batch is None:
            continue
        flows.append({"name": "req", "cat": "flow", "ph": "s", "id": fid,
                      "pid": _REQUEST_PID, "tid": rid,
                      "ts": round(dispatch_s * _US, 3)})
        flows.append({"name": "req", "cat": "flow", "ph": "f", "bp": "e",
                      "id": fid, "pid": 1, "tid": batch[0], "ts": batch[1]})
    return meta, events, flows


def chrome_trace_events(source: Union[Tracer, Span]) -> List[dict]:
    """Flatten span tree(s) into Chrome trace events (``ph: "X"``),
    plus request↔batch flow arrows when request spans are present —
    events, track names and arrows out of one pass over the rows.

    Output order is deterministic: metadata events first (sorted
    tracks), complete events by (track, time, longest first, kind,
    name), then flow arrows sorted by rid — two traces of the same run
    serialize byte-identically regardless of completion or insertion
    order."""
    meta, events, flows = _flatten(span_rows(source, _clean_args))
    return meta + events + flows


def write_chrome_trace(path: str, source: Union[Tracer, Span]) -> None:
    """Write a ``{"traceEvents": [...]}`` JSON file loadable in Perfetto."""
    doc = {"traceEvents": chrome_trace_events(source),
           "displayTimeUnit": "ms"}
    with open(path, "w") as f:
        json.dump(doc, f, indent=1)
        f.write("\n")
