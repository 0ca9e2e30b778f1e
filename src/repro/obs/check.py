"""Chrome-trace validator: ``python -m repro.obs.check t.json [...]``.

Checks the structural invariants a trace viewer relies on — the file is
valid JSON, events carry the required keys, complete ("X") events have
non-negative numeric ``ts``/``dur``, timestamps are monotonically
non-decreasing per track, child intervals do not escape the root run
span, and per-track slice nesting is well-formed: an event that starts
inside an open slice on its track must end inside it too
(:func:`validate_containment` reports the offending span *path*, e.g.
``run/loop cs42/machine cs42-m1`` — a child escaping its parent renders
as overlapping garbage in the viewer). Flow events (the request→batch arrows the serving tracer emits)
are checked pairwise: every flow id must have exactly one start ("s")
and one finish ("f") with matching name/category, the finish must not
precede the start, and both endpoints must land inside a complete event
on their own track — otherwise the viewer silently drops the arrow.
Exit status 0 when every file passes, 1 otherwise. Used by CI on the
traces emitted for every bundled app and on the serving traces.
"""

from __future__ import annotations

import json
import sys
from bisect import bisect_right
from itertools import accumulate
from typing import Dict, List, Tuple


def validate_events(events: List[dict]) -> List[str]:
    """Return a list of violations (empty = valid)."""
    errors = [f"event {i}: not an object"
              for i, e in enumerate(events) if not isinstance(e, dict)]
    if errors:
        return errors
    xs = [e for e in events if e.get("ph") == "X"]
    if not xs:
        errors.append("no complete ('X') events")
        return errors
    last_ts: dict = {}
    run_end = None
    for i, e in enumerate(xs):
        name = e.get("name")
        if not name or not isinstance(name, str):
            errors.append(f"event {i}: missing/invalid name")
        ts, dur = e.get("ts"), e.get("dur")
        if not isinstance(ts, (int, float)) or ts < 0:
            errors.append(f"event {i} ({name}): bad ts {ts!r}")
            continue
        if not isinstance(dur, (int, float)) or dur < 0:
            errors.append(f"event {i} ({name}): bad dur {dur!r}")
            continue
        key = (e.get("pid"), e.get("tid"))
        if ts < last_ts.get(key, 0.0):
            errors.append(f"event {i} ({name}): ts {ts} goes backwards "
                          f"on track {key}")
        last_ts[key] = ts
        if e.get("cat") == "run":
            run_end = ts + dur
    if run_end is not None:
        for i, e in enumerate(xs):
            if (isinstance(e.get("ts"), (int, float))
                    and isinstance(e.get("dur"), (int, float))
                    and e["ts"] + e["dur"] > run_end + 1.0):  # 1us tolerance
                errors.append(f"event {i} ({e.get('name')}): interval ends "
                              f"after the run span")
    errors.extend(validate_containment(xs))
    errors.extend(validate_flows(events, xs))
    return errors


#: slack for interval checks on exported traces: ts/dur are rounded to
#: 3 decimals (µs) independently, so parent/child edges can disagree by
#: a few nanoseconds after rounding
_TOL_US = 0.01


def validate_containment(xs: List[dict]) -> List[str]:
    """Per-track slice-nesting check: every event overlapping an open
    slice must be fully enclosed by it (child ts/dur inside parent).

    Walks each (pid, tid) track in time order with a stack of open
    slices; on violation reports the offending event and the full path
    of open ancestors so the broken span is identifiable in the tree.
    """
    errors: List[str] = []
    tracks: dict = {}
    for e in xs:
        if (isinstance(e.get("ts"), (int, float))
                and isinstance(e.get("dur"), (int, float))):
            tracks.setdefault((e.get("pid"), e.get("tid")), []).append(e)
    for track in sorted(tracks, key=str):
        evs = sorted(tracks[track], key=lambda e: (e["ts"], -e["dur"]))
        stack: List[tuple] = []      # (name, end_ts) of open slices
        for e in evs:
            ts, end = e["ts"], e["ts"] + e["dur"]
            while stack and stack[-1][1] <= ts + _TOL_US:
                stack.pop()
            if stack and end > stack[-1][1] + _TOL_US:
                path = "/".join(n for n, _ in stack)
                errors.append(
                    f"containment: event '{e.get('name')}' on track "
                    f"{track} ends at {end} after its enclosing span "
                    f"path '{path}' ends at {stack[-1][1]}")
                continue             # don't push the escapee as a parent
            stack.append((str(e.get("name")), end))
    return errors


def _slice_index(xs: List[dict]) -> Dict[tuple, Tuple[List[float], List[float]]]:
    """Per (pid, tid) track: the slices' start edges in ascending order
    and, beside each, the latest end edge of any slice starting no later
    (edges widened by the 1e-6 us the endpoint check allows)."""
    spans: Dict[tuple, List[Tuple[float, float]]] = {}
    for e in xs:
        if (isinstance(e.get("ts"), (int, float))
                and isinstance(e.get("dur"), (int, float))):
            spans.setdefault((e.get("pid"), e.get("tid")), []).append(
                (e["ts"] - 1e-6, e["ts"] + e["dur"] + 1e-6))
    index = {}
    for track, edges in spans.items():
        edges.sort()
        index[track] = ([lo for lo, _ in edges],
                        list(accumulate((hi for _, hi in edges), max)))
    return index


def _enclosed(index, track, ts: float) -> bool:
    """Is ``ts`` inside (or on the edge of) some complete event on
    ``track``? Flow endpoints bind to enclosing slices; a bare endpoint
    is an arrow the viewer drops."""
    starts, latest_end = index.get(track, ((), ()))
    k = bisect_right(starts, ts)      # slices that start at or before ts
    return k > 0 and ts <= latest_end[k - 1]


def validate_flows(events: List[dict], xs: List[dict]) -> List[str]:
    """Pairwise flow-event checks (empty list when no flows present)."""
    errors: List[str] = []
    index = _slice_index(xs)
    flows: dict = {}
    for e in events:
        if e.get("ph") in ("s", "t", "f"):
            flows.setdefault(e.get("id"), []).append(e)
    for fid, evs in sorted(flows.items(), key=lambda kv: str(kv[0])):
        starts = [e for e in evs if e["ph"] == "s"]
        ends = [e for e in evs if e["ph"] == "f"]
        if len(starts) != 1 or len(ends) != 1:
            errors.append(f"flow {fid}: expected one start and one finish, "
                          f"got {len(starts)} start(s) / {len(ends)} "
                          f"finish(es)")
            continue
        s, f = starts[0], ends[0]
        if s.get("name") != f.get("name") or s.get("cat") != f.get("cat"):
            errors.append(f"flow {fid}: start/finish name or category "
                          f"mismatch")
        ts_s, ts_f = s.get("ts"), f.get("ts")
        if not isinstance(ts_s, (int, float)) \
                or not isinstance(ts_f, (int, float)):
            errors.append(f"flow {fid}: non-numeric ts")
            continue
        if ts_f < ts_s - 1e-6:
            errors.append(f"flow {fid}: finish ts {ts_f} precedes start "
                          f"ts {ts_s}")
        for e, which in ((s, "start"), (f, "finish")):
            track = (e.get("pid"), e.get("tid"))
            if not _enclosed(index, track, e["ts"]):
                errors.append(f"flow {fid}: {which} endpoint at ts "
                              f"{e['ts']} has no enclosing slice on "
                              f"track {track}")
    return errors


def validate_file(path: str) -> List[str]:
    try:
        with open(path) as f:
            doc = json.load(f)
    except (OSError, ValueError) as exc:
        return [f"cannot load: {exc}"]
    events = doc.get("traceEvents") if isinstance(doc, dict) else doc
    if not isinstance(events, list):
        return ["neither a JSON array nor an object with 'traceEvents'"]
    return validate_events(events)


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if not argv:
        print("usage: python -m repro.obs.check TRACE.json [...]",
              file=sys.stderr)
        return 2
    failed = False
    for path in argv:
        errors = validate_file(path)
        if errors:
            failed = True
            print(f"{path}: INVALID")
            for e in errors:
                print(f"  - {e}")
        else:
            with open(path) as f:
                doc = json.load(f)
            events = doc.get("traceEvents") if isinstance(doc, dict) else doc
            n = sum(1 for e in events if e.get("ph") == "X")
            print(f"{path}: ok ({n} events)")
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
