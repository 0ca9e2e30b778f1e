"""The per-row post-processing of a traced run, as it was before the
exporters read columns: the oracle the columnar code must match byte for
byte.

Each function is the earlier implementation, unchanged but for being
lifted out of its class: the serving-span derivation (``rows``, formerly
``ServeRecord.rows``), the Chrome-trace flattening (``flatten``), the
flame-graph fold (``collapse_stacks``), the latency decomposition
(``request_decomposition``, ``decomposition_summary``), the report's
latency histogram (``latency_histogram``) and the Prometheus text
(``prometheus_text``, quantiles by a full sort). Only the tests read it.

Its input is a tracer or a run's ``SpanTable``, read as rows; ``track``
and ``clean_args`` are the per-span Chrome track and attrs cleaning the
table columns replaced, and ``table`` writes a tree of nested tuples as
the table a run would hold.
"""

import math
from types import SimpleNamespace
from typing import Any, Dict, Iterable, Iterator, List, Set, Tuple

from repro.obs.analyze import COMPONENTS, decompose_timeline
from repro.obs.profile import _escape, _split_series
from repro.obs.spans import (TIMELINE_MARKS, RequestContext, SpanTable,
                             Tracer)

_US = 1e6
_REQUEST_PID = 2
_REQUEST_KINDS = ("request", "queue", "exec")
_ATTEMPT_PID = 3


def track(kind: str, attrs: Dict[str, Any]) -> Tuple[int, int]:
    """A span's Chrome track (pid, tid): its rid's, or in process 1 the
    run/loop timeline (tid 0) or its simulated machine's (index + 1)."""
    if kind in _REQUEST_KINDS:
        return _REQUEST_PID, int(attrs.get("rid", 0))
    if kind == "attempt":
        return _ATTEMPT_PID, int(attrs.get("rid", 0))
    m = attrs.get("machine")
    return 1, 0 if m is None else int(m) + 1


def clean_args(attrs: Dict[str, Any]) -> Dict[str, Any]:
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


def table(*trees) -> SpanTable:
    """The pre-order table of trees written as nested tuples
    ``(name, kind, start_s, dur_s[, attrs][, [child, ...]])``, each tree
    a run."""
    out = SpanTable()

    def add(node, depth):
        name, kind, start_s, dur_s, *rest = node
        attrs = next((r for r in rest if isinstance(r, dict)), {})
        out.add(depth, name, kind, start_s, dur_s, attrs,
                *track(kind, attrs))
        for child in next((r for r in rest if isinstance(r, list)), []):
            add(child, depth + 1)
    for tree in trees:
        add(tree, 0)
    return out


def rows(server) -> Iterator[tuple]:
    """A traced server's spans under its run span, one row each."""
    # input adapter: the record and the server's public views, in the
    # shapes this code read when the record held timelines, winners and
    # request contexts
    rec = server.record
    served = rec.by_rid()
    contexts = {rid: RequestContext.derive(rec.seed, rid) for rid in served}
    record = SimpleNamespace(
        batches=rec.batches, crashes=rec.crashes, horizon=rec.horizon,
        served=served,
        timelines={rid: server.timeline_of(rid) for rid in served},
        attempts=rec.attempts,
        attempts_of=server.attempt_timelines_of)
    for b in record.batches:
        yield (1, b.name, b.kind, b.start_s, b.dur_s, b.attrs)
        machine = b.attrs["machine"]
        cursor = b.start_s
        for loop in b.loops:
            yield (2, loop.name, "loop", cursor, loop.time_s,
                   {"machine": machine, "op": loop.op_name,
                    "iters": loop.iters, "workers": loop.workers,
                    "compute_s": loop.compute_s,
                    "memory_s": loop.memory_s, "comm_s": loop.comm_s,
                    "overhead_s": loop.overhead_s})
            cursor += loop.time_s
    timelines = record.timelines
    for rid in sorted(record.served):
        resp = record.served[rid]
        req = resp.request
        ctx = contexts[rid]
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
        for stage in TIMELINE_MARKS:
            if stage in marks:
                attrs[stage + "_s"] = marks[stage]
        if req.attempt > 0:
            attrs["attempts"] = req.attempt + 1
        yield (1, f"r{rid}:{req.app}", "request", t0, t_end - t0, attrs)
        t_q0 = marks.get("enqueue")
        t_disp = marks.get("dispatch")
        if t_q0 is not None and t_disp is not None:
            yield (2, "queued", "queue", t_q0, t_disp - t_q0,
                   {"rid": rid})
        t_x0 = marks.get("exec_start")
        if t_x0 is not None:
            yield (2, "exec", "exec", t_x0, t_end - t_x0,
                   {"rid": rid, "batch_id": resp.batch_id})
    for rid in sorted(record.attempts):
        resp = record.served.get(rid)
        win_end = None if resp is None else resp.finish_s
        for attempt, status, tl in record.attempts_of(rid):
            stages = [(s, tl.marks[s]) for s in TIMELINE_MARKS
                      if s in tl.marks]
            if not stages:
                continue
            times = [t for _, t in stages]
            t1 = max(times)
            if win_end is not None:
                t1 = min(t1, win_end)
            t1 = min(t1, record.horizon)
            t0 = min(min(times), t1)
            attrs = {"rid": rid, "attempt": attempt, "status": status}
            for stage, t in stages:
                attrs[stage + "_s"] = t
            yield (1, f"r{rid}:a{attempt}", "attempt", t0, t1 - t0, attrs)
    for label, index, name, t0, t1 in record.crashes:
        yield (1, f"crash:{label}", "fault", t0, t1 - t0,
               {"machine": index, "machine_name": name, "fault": "crash"})


def span_rows(source, own=None, servers=()) -> Iterator[tuple]:
    """Pre-order rows of a tracer's runs or of one run's table. With
    ``servers`` (the traced server behind each run, in run order) a run
    is its run row and then :func:`rows` of its server."""
    runs = source._runs if isinstance(source, Tracer) else [source]
    servers = list(servers)
    for run in runs:
        run_rows = list(run.rows())
        if servers:
            run_rows[1:] = rows(servers.pop(0))
        for *row, attrs in run_rows:
            yield (*row, attrs if own is None else own(attrs))


def flatten(rows: Iterable[tuple]) -> Tuple[List[dict], List[dict],
                                            List[dict]]:
    events: List[dict] = []
    keys: List[tuple] = []
    tids = {0}
    req_tids: Dict[int, str] = {}
    attempt_tids: Set[int] = set()
    batches: Dict[Any, Tuple[int, float]] = {}
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

    def track_names(pid, process, names):
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


def chrome_trace_events(source, servers=()) -> List[dict]:
    meta, events, flows = flatten(span_rows(source, clean_args, servers))
    return meta + events + flows


def collapse_stacks(rows: Iterable[tuple]) -> Dict[str, int]:
    frames: List[list] = []
    path: List[list] = []
    for depth, name, _kind, _start, dur_s, _attrs in rows:
        del path[depth:]
        stack = name.replace(";", ",")
        if path:
            parent = path[-1]
            parent[2] += dur_s
            if parent[0]:
                stack = f"{parent[0]};{stack}"
        frame = [stack, dur_s, 0]
        frames.append(frame)
        path.append(frame)
    out: Dict[str, int] = {}
    for stack, dur_s, child_s in frames:
        self_us = int(round(max(0.0, dur_s - child_s) * _US))
        if self_us > 0:
            out[stack] = out.get(stack, 0) + self_us
    return out


def render_collapsed(rows: Iterable[tuple]) -> str:
    folded = collapse_stacks(rows)
    return "\n".join(f"{stack} {us}" for stack, us in sorted(folded.items()))


def _aggregate(rows):
    n = len(rows)
    out: Dict[str, Any] = {"count": n}
    for comp in COMPONENTS + ("latency_s",):
        vals = [r[comp] for r in rows]
        out[comp] = {"total_s": sum(vals),
                     "mean_s": sum(vals) / n if n else 0.0,
                     "max_s": max(vals) if vals else 0.0}
    return out


def request_decomposition(server):
    rows = []
    for resp in sorted(server.responses, key=lambda r: r.request.rid):
        tl = server.timeline_of(resp.request.rid)
        if tl is None:
            continue
        comps = decompose_timeline(tl)
        if comps is None:
            continue
        rows.append({"rid": resp.request.rid, "app": resp.request.app,
                     "machine": resp.machine, **comps})
    return rows


def decomposition_summary(server):
    rows = request_decomposition(server)
    if not rows:
        return None
    by_app: Dict[str, list] = {}
    by_machine: Dict[str, list] = {}
    for r in rows:
        by_app.setdefault(r["app"], []).append(r)
        by_machine.setdefault(r["machine"], []).append(r)
    return {"requests": len(rows),
            "components": _aggregate(rows),
            "per_app": {k: _aggregate(by_app[k]) for k in sorted(by_app)},
            "per_machine": {k: _aggregate(by_machine[k])
                            for k in sorted(by_machine)}}


def latency_histogram(latencies_s, buckets: int = 20) -> Dict[str, Any]:
    if not latencies_s:
        return {"buckets": [], "counts": []}
    lo, hi = min(latencies_s), max(latencies_s)
    width = (hi - lo) / buckets or 1e-12
    counts = [0] * buckets
    for v in latencies_s:
        counts[min(buckets - 1, int((v - lo) / width))] += 1
    edges = [lo + i * width for i in range(buckets + 1)]
    return {"buckets": edges, "counts": counts}


def _sanitize(name: str) -> str:
    out = []
    for i, ch in enumerate(name):
        if ch.isalnum() and (i > 0 or not ch.isdigit()) or ch in "_:":
            out.append(ch)
        else:
            out.append("_")
    return "".join(out)


def _label_str(labels):
    if not labels:
        return ""
    quoted = ",".join(f'{_sanitize(k)}="{_escape(v)}"' for k, v in labels)
    return "{" + quoted + "}"


def quantiles(vals) -> Dict[str, float]:
    """The four summary quantiles, by a full sort (nearest rank; p50 the
    upper median)."""
    s = sorted(vals)

    def rank(q):
        return s[min(len(s) - 1, max(0, math.ceil(q * len(s)) - 1))]
    return {"p50": s[len(s) // 2], "p90": rank(0.90), "p95": rank(0.95),
            "p99": rank(0.99)}


def prometheus_text(metrics, sample=lambda v: f"{v:g}") -> str:
    """``sample`` formats one value (``"{:g}"`` before integral values were
    printed whole and the rest by ``repr``)."""
    lines: List[str] = []
    typed: set = set()

    def emit(table, mtype):
        for series in sorted(table):
            name, labels = _split_series(series)
            pname = _sanitize(name)
            if pname not in typed:
                typed.add(pname)
                lines.append(f"# TYPE {pname} {mtype}")
            lines.append(f"{pname}{_label_str(labels)} "
                         f"{sample(table[series])}")

    emit(metrics.counters, "counter")
    emit(metrics.gauges, "gauge")
    for series in sorted(metrics.histograms):
        name, labels = _split_series(series)
        pname = _sanitize(name)
        if pname not in typed:
            typed.add(pname)
            lines.append(f"# TYPE {pname} summary")
        vals = metrics.histograms[series]
        st = quantiles(vals) if vals else dict.fromkeys(
            ("p50", "p90", "p95", "p99"), 0.0)
        for q in ("p50", "p90", "p95", "p99"):
            qlabels = list(labels) + [("quantile", f"0.{q[1:]}")]
            lines.append(f"{pname}{_label_str(qlabels)} {sample(st[q])}")
        lines.append(f"{pname}_sum{_label_str(labels)} {sample(sum(vals))}")
        lines.append(f"{pname}_count{_label_str(labels)} {len(vals)}")
    lines.append("# EOF")
    return "\n".join(lines) + "\n"
