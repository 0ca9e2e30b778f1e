"""Outside-in span recorder for the end-to-end benchmark.

The benchmark times the calls it makes *into* each layer's public
functions; nothing inside ``src/repro`` is wrapped or patched. A span is
``{name, start, end, parent, workload, round}``; spans nest by the
``with`` structure of the harness code, so a layer's *self time* is its
duration minus the part of that interval its child spans cover. Counts
are recorded at the same boundaries. Everything stays in memory until
the run ends; ``chrome_events`` turns one or more recorders into a
Chrome-trace event list that ``repro.obs.check.validate_events``
accepts.

End-to-end numbers never come from a recording run: ``Recorder(False)``
hands out one shared no-op context manager, which is what the untraced
pass uses.
"""

from __future__ import annotations

import time
from contextlib import contextmanager, nullcontext
from typing import Any, Dict, Iterator, List, Sequence

#: round index of spans recorded outside any measured round (set-up,
#: replays, the oracle)
NO_ROUND = -1

_NULL = nullcontext()


class Recorder:
    """In-memory span and count store for one workload's traced pass."""

    def __init__(self, enabled: bool = True, workload: str = ""):
        self.enabled = enabled
        self.workload = workload
        self.round = NO_ROUND
        self.spans: List[Dict[str, Any]] = []
        self.counts: Dict[str, float] = {}
        self._open: List[int] = []
        self._t0 = time.perf_counter()

    def span(self, name: str, **tags: Any):
        """Context manager timing one call into a layer; ``tags`` (app,
        variant, rate) tell apart the calls that share a name."""
        return self._span(name, tags) if self.enabled else _NULL

    @contextmanager
    def _span(self, name: str, tags: Dict[str, Any]
              ) -> Iterator[Dict[str, Any]]:
        sp = {"name": name, "start": 0.0, "end": 0.0,
              "parent": self._open[-1] if self._open else None,
              "workload": self.workload, "round": self.round, "tags": tags}
        idx = len(self.spans)
        self.spans.append(sp)
        self._open.append(idx)
        sp["start"] = time.perf_counter() - self._t0
        try:
            yield sp
        finally:
            sp["end"] = time.perf_counter() - self._t0
            self._open.pop()

    def count(self, name: str, n: float = 1.0) -> None:
        if self.enabled:
            self.counts[name] = self.counts.get(name, 0.0) + n

    def durations_ms(self, name: str, **tags: Any) -> List[float]:
        """Durations (ms) of every span called ``name`` whose tags
        include ``tags``."""
        return [(s["end"] - s["start"]) * 1e3 for s in self.spans
                if s["name"] == name
                and all(s["tags"].get(k) == v for k, v in tags.items())]


def self_times(spans: Sequence[Dict[str, Any]]) -> List[float]:
    """Self time (same unit as start/end) of each span: its duration
    minus the length of the union of its children's intervals, clipped
    to the span (overlapping children are not subtracted twice)."""
    kids: Dict[int, List[tuple]] = {}
    for s in spans:
        if s["parent"] is not None:
            kids.setdefault(s["parent"], []).append((s["start"], s["end"]))
    out: List[float] = []
    for i, s in enumerate(spans):
        covered, edge = 0.0, s["start"]
        for a, b in sorted(kids.get(i, ())):
            a, b = max(a, edge), min(b, s["end"])
            if b > a:
                covered += b - a
                edge = b
        out.append((s["end"] - s["start"]) - covered)
    return out


def chrome_events(span_sets: Sequence[Sequence[Dict[str, Any]]]
                  ) -> List[dict]:
    """Chrome-trace ``X`` events for several recordings laid end to end
    on one timeline (one ``pid`` per recording) under a single ``run``
    event, in the order ``repro.obs.check.validate_events`` wants:
    non-decreasing ``ts`` per track, parents before children."""
    events: List[dict] = []
    offset = 0.0
    for pid, spans in enumerate(span_sets, start=1):
        if not spans:
            continue
        length = max(s["end"] for s in spans)
        events.append({"name": spans[0]["workload"] or f"recording {pid}",
                       "cat": "workload", "ph": "X", "pid": pid, "tid": 0,
                       "ts": offset * 1e6, "dur": length * 1e6, "args": {}})
        for s in spans:
            events.append({
                "name": s["name"], "cat": "span", "ph": "X", "pid": pid,
                "tid": 0, "ts": (offset + s["start"]) * 1e6,
                "dur": (s["end"] - s["start"]) * 1e6,
                "args": {"round": s["round"], "workload": s["workload"],
                         **s["tags"]}})
        offset += length
    events.sort(key=lambda e: (e["pid"], e["ts"], -e["dur"]))
    run = {"name": "benchmarks/e2e", "cat": "run", "ph": "X", "pid": 0,
           "tid": 0, "ts": 0.0, "dur": offset * 1e6, "args": {}}
    return [run] + events
