"""Trace analytics: latency decomposition, trace diff, root-cause reports.

This module turns the observatory's raw telemetry — span tables
(``repro.obs.spans``), request timelines, per-loop pricing breakdowns
and the decision-provenance ledger — into *answers*:

* :func:`decompose_timeline` — an **exact** latency decomposition of one
  served request from its :class:`~repro.obs.spans.RequestTimeline`
  marks. The components (admission, batching window, dispatch, stagger,
  execution) are consecutive intervals of the simulated clock and the
  last one is computed as the remainder, so they sum to the request's
  end-to-end latency with tolerance 0.0 — not "approximately".

* :func:`decomposition_summary` — per-app / per-machine aggregation of
  those components over a whole serve run (the ``decomposition``
  section of ``serve-sim``'s latency JSON).

* :func:`diff_loop_rows` — differential trace
  diff: align two runs' per-loop breakdowns by *id-stripped* loop names
  (:func:`~repro.obs.provenance.strip_ids`, so alignment survives
  process-dependent symbol counters) and attribute the simulated-time
  delta to specific loops and their cost components.

* :func:`root_cause_from_records` — the report ``repro.obs.regress``
  emits on any gate failure: latest history record vs the
  rolling-median baseline record, ranked per-loop deltas, the dominant
  contributor named with its machine, and a cross-reference into the
  decision-ledger key diff when the provenance digest drifted.
  :func:`root_cause` builds the same report for any two records
  (``repro.tools analyze --diff A B``).

Everything here is pure post-processing of recorded data: nothing is
imported or executed on the hot pricing/serving paths, so the
zero-cost-when-disabled contract is untouched.
"""

from __future__ import annotations

import json
import math
from collections import Counter
from dataclasses import dataclass, field
from operator import attrgetter
from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..report.tables import render_table
from .history import RunRecord
from .provenance import strip_ids
from .spans import TIMELINE_MARKS, RequestTimeline, response_marks

# ---------------------------------------------------------------------------
# Exact per-request latency decomposition
# ---------------------------------------------------------------------------

#: decomposition components in order; each is the interval between two
#: consecutive lifecycle marks, except the last which is the remainder
COMPONENTS = ("admission_s", "batch_window_s", "dispatch_s", "stagger_s",
              "execution_s")

#: (component, end-mark) for every component except the remainder
_STAGE_ENDS = (("admission_s", "enqueue"), ("batch_window_s", "seal"),
               ("dispatch_s", "dispatch"), ("stagger_s", "exec_start"))


def decompose_timeline(tl: RequestTimeline) -> Optional[Dict[str, float]]:
    """Split one request's latency into its lifecycle components.

    ``admission_s``  — arrive → enqueue (admission-queue handoff);
    ``batch_window_s`` — enqueue → seal (waiting for the batch to fill
    or the max-wait timer);
    ``dispatch_s``   — seal → dispatch (waiting for a free replica);
    ``stagger_s``    — dispatch → exec_start (serial offset inside a
    fallback batch; 0 for lane-packed requests);
    ``execution_s``  — the remainder up to ``complete``.

    The remainder construction makes the identity exact: summing the
    components *in ``COMPONENTS`` order* reproduces
    ``complete - arrive`` bit-for-bit (float addition is deterministic),
    which the acceptance tests assert with tolerance 0.0.

    Returns ``None`` when the timeline lacks the bounding marks.
    """
    marks = tl.marks
    if "arrive" not in marks or "complete" not in marks:
        return None
    latency = marks["complete"] - marks["arrive"]
    stages: List[float] = []
    prev = marks["arrive"]
    for _, mark in _STAGE_ENDS:
        t = marks.get(mark, prev)
        stages.append(t - prev)
        prev = t
    # make the identity bit-exact, not just correctly rounded: when
    # acc >= latency/2 Sterbenz's lemma already makes `latency - acc`
    # exact; otherwise the remainder dominates and a few one-ulp nudges
    # land `acc + execution` exactly on `latency`. They all miss on a
    # tie: when acc's part below latency's ulp is exactly half of it,
    # round-half-even lets `acc + execution` reach only every other
    # float. Moving one ulp of acc into the last non-zero stage breaks
    # the tie, and the nudges run again.
    for _ in range(4):
        acc = 0.0
        for c in stages:
            acc += c
        execution = latency - acc
        for _ in range(8):
            s = acc + execution
            if s == latency:
                break
            execution = math.nextafter(
                execution, math.inf if s < latency else -math.inf)
        nonzero = [j for j, c in enumerate(stages) if c]
        if acc + execution == latency or not nonzero:
            break
        stages[nonzero[-1]] += math.ulp(acc)
    comps: Dict[str, float] = {comp: c for (comp, _), c in
                               zip(_STAGE_ENDS, stages)}
    comps["execution_s"] = execution
    comps["latency_s"] = latency
    return comps


def _decomposed(server: Any) -> Tuple[List[Any], List[Any]]:
    """A traced run's responses by rid, and their ``COMPONENTS`` +
    ``latency_s`` as columns: :func:`decompose_timeline` of each served
    rid's timeline (``ProgramServer.timeline_of``) all at once, its float
    operations in its order, bit for bit."""
    import numpy as np
    served = ([] if server.record is None else
              sorted(server.responses, key=attrgetter("request.rid")))
    cols = np.array(list(map(response_marks, served)), float).reshape(
        len(served), len(TIMELINE_MARKS)).T
    comps = [cols[i + 1] - cols[i] for i in range(len(_STAGE_ENDS))]
    latency = cols[-1] - cols[0]
    for _ in range(4):
        acc = sum(comps, np.zeros(len(served)))  # 0.0 + each, in order
        execution = latency - acc
        for _ in range(8):
            s = acc + execution
            off = s != latency
            if not off.any():
                break
            execution = np.where(off, np.nextafter(
                execution, np.where(s < latency, np.inf, -np.inf)),
                execution)
        # a tie: one ulp of acc into the last non-zero stage, and again
        nonzero = np.array(comps) != 0
        tie = (acc + execution != latency) & nonzero.any(axis=0)
        if not tie.any():
            break
        last = len(comps) - 1 - np.argmax(nonzero[::-1], axis=0)
        for j in range(len(comps)):
            comps[j] = np.where(tie & (last == j),
                                comps[j] + np.spacing(np.abs(acc)), comps[j])
    return served, comps + [execution, latency]


def request_decomposition(server: Any) -> List[Dict[str, Any]]:
    """Per-request decomposition rows for a completed serve run.

    ``server`` is duck-typed (``ProgramServer``): it must expose
    ``responses`` and ``record``. Returns one row per served request when
    the run was traced (it has a record), ordered by rid so output is
    deterministic.
    """
    served, columns = _decomposed(server)
    names = COMPONENTS + ("latency_s",)
    return [{"rid": r.request.rid, "app": r.request.app,
             "machine": r.machine, **dict(zip(names, comps))}
            for r, *comps in zip(served, *(c.tolist() for c in columns))]


def decomposition_summary(server: Any) -> Optional[Dict[str, Any]]:
    """Aggregate decomposition for the ``decomposition`` JSON section.

    Shape::

        {"requests": N,
         "components": {<component>: {total_s, mean_s, max_s}, ...},
         "per_app": {app: {...same...}},
         "per_machine": {machine: {...same...}}}

    Returns ``None`` when the run kept no record (tracing off) or served
    nothing, so untraced reports carry no section at all. Totals are
    sequential sums in rid order.
    """
    import numpy as np
    served, columns = _decomposed(server)
    if not served:
        return None

    def aggregate(rows: Any) -> Dict[str, Any]:
        out: Dict[str, Any] = {"count": len(rows)}
        for comp, col in zip(COMPONENTS + ("latency_s",), columns):
            vals = col[rows].tolist()
            total = sum(vals)
            out[comp] = {"total_s": total, "mean_s": total / len(vals),
                         "max_s": max(vals)}
        return out

    def groups(keys: List[str]) -> Dict[str, Any]:
        of = np.array(keys)
        return {k: aggregate(np.flatnonzero(of == k))
                for k in sorted(set(keys))}

    return {"requests": len(served),
            "components": aggregate(np.arange(len(served))),
            "per_app": groups([r.request.app for r in served]),
            "per_machine": groups([r.machine for r in served])}


# ---------------------------------------------------------------------------
# Differential trace diff (per-loop)
# ---------------------------------------------------------------------------

#: per-loop cost components carried by breakdown rows
_LOOP_COMPONENTS = ("compute_s", "memory_s", "comm_s", "overhead_s")


@dataclass
class LoopDelta:
    """Simulated-time delta of one loop between two runs."""

    key: str                  # id-stripped loop name (alignment key)
    op: str
    time_a: float
    time_b: float
    components: Dict[str, float] = field(default_factory=dict)
    workers: int = 0
    #: loop present on one side only (compile structure changed)
    status: str = "both"      # "both" | "only_a" | "only_b"

    @property
    def delta_s(self) -> float:
        return self.time_b - self.time_a

    @property
    def pct(self) -> float:
        return 100.0 * self.delta_s / self.time_a if self.time_a else 0.0

    def driver(self) -> Tuple[str, float]:
        """The cost component explaining most of the delta."""
        if not self.components:
            return ("total", self.delta_s)
        comp = max(self.components, key=lambda k: abs(self.components[k]))
        return (comp, self.components[comp])

    def to_dict(self) -> Dict[str, Any]:
        return {"loop": self.key, "op": self.op, "status": self.status,
                "time_a_s": self.time_a, "time_b_s": self.time_b,
                "delta_s": self.delta_s, "pct": self.pct,
                "workers": self.workers, "components": self.components}


def diff_loop_rows(rows_a: Sequence[Dict[str, Any]],
                   rows_b: Sequence[Dict[str, Any]]) -> List[LoopDelta]:
    """Align two runs' per-loop breakdowns and rank their deltas.

    Rows align on ``(id-stripped loop name, op)`` with a per-key ordinal
    so two same-shaped loops (e.g. two fused map bodies with identical
    stripped names) pair up positionally. Loops present on one side
    only are reported with status ``only_a``/``only_b`` — a compile
    whose loop structure changed shows up explicitly instead of
    corrupting the alignment. Result is sorted by \\|delta\\| descending.
    """

    def index(rows: Sequence[Dict[str, Any]]) -> Dict[Tuple, Dict]:
        seen: Counter = Counter()
        out: Dict[Tuple, Dict] = {}
        for r in rows:
            base = (r.get("key") or strip_ids(str(r["loop"])),
                    str(r.get("op", "?")))
            out[base + (seen[base],)] = r
            seen[base] += 1
        return out

    ia, ib = index(rows_a), index(rows_b)
    deltas: List[LoopDelta] = []
    for k in ia:
        ra = ia[k]
        rb = ib.get(k)
        if rb is None:
            deltas.append(LoopDelta(k[0], k[1], float(ra["time_s"]), 0.0,
                                    workers=int(ra.get("workers", 0)),
                                    status="only_a"))
            continue
        comps = {c: float(rb.get(c, 0.0)) - float(ra.get(c, 0.0))
                 for c in _LOOP_COMPONENTS}
        deltas.append(LoopDelta(k[0], k[1], float(ra["time_s"]),
                                float(rb["time_s"]), comps,
                                int(rb.get("workers", 0))))
    for k in ib:
        if k not in ia:
            rb = ib[k]
            deltas.append(LoopDelta(k[0], k[1], 0.0, float(rb["time_s"]),
                                    workers=int(rb.get("workers", 0)),
                                    status="only_b"))
    deltas.sort(key=lambda d: (-abs(d.delta_s), d.key, d.op))
    return deltas


def render_loop_deltas(deltas: Sequence[LoopDelta],
                       label_a: str = "A", label_b: str = "B",
                       limit: int = 0) -> str:
    rows = []
    shown = deltas[:limit] if limit else deltas
    for d in shown:
        comp, cdelta = d.driver()
        rows.append((d.key, d.op, d.status,
                     f"{d.time_a * 1e3:.3f}", f"{d.time_b * 1e3:.3f}",
                     f"{d.delta_s * 1e3:+.3f}", f"{d.pct:+.1f}%",
                     f"{comp} {cdelta * 1e3:+.3f}"))
    return render_table(
        ["loop", "op", "status", f"{label_a} ms", f"{label_b} ms",
         "delta ms", "pct", "driver"],
        rows, title=f"per-loop sim delta: {label_a} vs {label_b}")


# ---------------------------------------------------------------------------
# Regression root-cause report
# ---------------------------------------------------------------------------

DEFAULT_WINDOW = 8


def _median(vals: Sequence[float]) -> float:
    s = sorted(vals)
    n = len(s)
    return s[n // 2] if n % 2 else 0.5 * (s[n // 2 - 1] + s[n // 2])


def _pct(a: float, b: float) -> float:
    return 100.0 * (b - a) / a if a else 0.0


@dataclass
class RootCause:
    """Why did this app's latest benchmark record regress?"""

    app: str
    baseline: RunRecord
    latest: RunRecord
    window: int
    problems: List[str] = field(default_factory=list)
    loop_deltas: List[LoopDelta] = field(default_factory=list)
    ledger_only_baseline: List[str] = field(default_factory=list)
    ledger_only_latest: List[str] = field(default_factory=list)
    notes: List[str] = field(default_factory=list)
    #: how the baseline record was chosen (defaults to the rolling-median
    #: wording; explicit ``analyze --diff A B`` sets its own)
    baseline_desc: str = ""

    @property
    def digest_drifted(self) -> bool:
        return self.baseline.digest != self.latest.digest

    @property
    def cluster(self) -> str:
        return str(self.latest.extra.get("cluster")
                   or self.baseline.extra.get("cluster") or "?")

    def dominant(self) -> Optional[LoopDelta]:
        """The loop contributing the largest absolute sim delta."""
        return self.loop_deltas[0] if self.loop_deltas else None

    def to_json(self) -> Dict[str, Any]:
        return {
            "app": self.app, "window": self.window,
            "problems": list(self.problems),
            "baseline": {"git_sha": self.baseline.git_sha,
                         "wall_s": self.baseline.wall_s,
                         "sim_s": self.baseline.sim_s,
                         "cycles": self.baseline.cycles,
                         "fallbacks": self.baseline.fallbacks,
                         "digest": self.baseline.digest},
            "latest": {"git_sha": self.latest.git_sha,
                       "wall_s": self.latest.wall_s,
                       "sim_s": self.latest.sim_s,
                       "cycles": self.latest.cycles,
                       "fallbacks": self.latest.fallbacks,
                       "digest": self.latest.digest},
            "cluster": self.cluster,
            "digest_drifted": self.digest_drifted,
            "dominant": (self.dominant().to_dict()
                         if self.dominant() else None),
            "loop_deltas": [d.to_dict() for d in self.loop_deltas],
            "ledger_only_baseline": list(self.ledger_only_baseline),
            "ledger_only_latest": list(self.ledger_only_latest),
            "notes": list(self.notes),
        }

    def render(self) -> str:
        b, l = self.baseline, self.latest
        lines = [f"root-cause report: {self.app}",
                 f"  latest   {l.git_sha:<10} wall {l.wall_s * 1e3:9.3f} ms"
                 f"  sim {l.sim_s * 1e3:9.3f} ms  cycles {l.cycles}"
                 f"  fallbacks {l.fallbacks}  digest {l.digest}",
                 f"  baseline {b.git_sha:<10} wall {b.wall_s * 1e3:9.3f} ms"
                 f"  sim {b.sim_s * 1e3:9.3f} ms  cycles {b.cycles}"
                 f"  fallbacks {b.fallbacks}  digest {b.digest}"
                 f"  ({self.baseline_desc or f'rolling-median of {self.window} priors'})",
                 f"  delta: wall {_pct(b.wall_s, l.wall_s):+.1f}%"
                 f"  sim {_pct(b.sim_s, l.sim_s):+.1f}%"
                 f"  cycles {_pct(b.cycles, l.cycles):+.2f}%"]
        if self.problems:
            lines.append("  gate problems:")
            lines.extend(f"    - {p}" for p in self.problems)
        dom = self.dominant()
        if dom is not None:
            comp, cdelta = dom.driver()
            total = sum(abs(d.delta_s) for d in self.loop_deltas) or 1.0
            lines.append(
                f"  dominant contributor: loop {dom.key} ({dom.op}, "
                f"W={dom.workers}) on {self.cluster} — sim "
                f"{dom.delta_s * 1e3:+.3f} ms ({dom.pct:+.1f}%, "
                f"{100.0 * abs(dom.delta_s) / total:.0f}% of run delta), "
                f"driven by {comp} ({cdelta * 1e3:+.3f} ms)")
            lines.append(render_loop_deltas(self.loop_deltas,
                                            "baseline", "latest"))
        if self.digest_drifted:
            lines.append(f"  decision provenance: digest drifted "
                         f"{b.digest} -> {l.digest}")
            if self.ledger_only_latest:
                lines.append(f"    ledger keys only in latest "
                             f"({len(self.ledger_only_latest)}):")
                lines.extend(f"      + {k}"
                             for k in self.ledger_only_latest)
            if self.ledger_only_baseline:
                lines.append(f"    ledger keys only in baseline "
                             f"({len(self.ledger_only_baseline)}):")
                lines.extend(f"      - {k}"
                             for k in self.ledger_only_baseline)
            lines.append(f"    hint: python -m repro.tools explain "
                         f"{self.app} --explain-diff <presetA> <presetB> "
                         f"reproduces a pipeline-level ledger diff")
        else:
            lines.append(f"  decision provenance: digest stable "
                         f"({l.digest}) — delta is cost-model or "
                         f"environment change, not a compiler decision "
                         f"flip")
        lines.extend(f"  note: {n}" for n in self.notes)
        return "\n".join(lines)


def root_cause(app: str, baseline: RunRecord, latest: RunRecord,
               window: int, problems: Sequence[str] = (),
               baseline_desc: str = "") -> RootCause:
    """Diff two history records of ``app``: the per-loop deltas, and the
    ledger keys on one side only when the decision digest drifted."""
    rc = RootCause(app, baseline, latest, window, problems=list(problems),
                   baseline_desc=baseline_desc)
    rows_a = baseline.extra.get("per_loop")
    rows_b = latest.extra.get("per_loop")
    if rows_a and rows_b:
        rc.loop_deltas = diff_loop_rows(rows_a, rows_b)
    else:
        rc.notes.append("per-loop breakdown missing on "
                        + ("both records" if not (rows_a or rows_b)
                           else ("baseline" if not rows_a else "latest"))
                        + "; loop attribution unavailable "
                          "(records predate per-loop telemetry)")

    if rc.digest_drifted:
        keys_a = Counter(baseline.extra.get("decisions") or [])
        keys_b = Counter(latest.extra.get("decisions") or [])
        if keys_a or keys_b:
            rc.ledger_only_baseline = sorted((keys_a - keys_b).elements())
            rc.ledger_only_latest = sorted((keys_b - keys_a).elements())
        else:
            rc.notes.append("digest drifted but neither record carries "
                            "normalized ledger keys; re-run benchmarks "
                            "to capture them")
    return rc


def root_cause_from_records(app: str, records: Sequence[RunRecord],
                            window: int = DEFAULT_WINDOW,
                            problems: Optional[Sequence[str]] = None,
                            ) -> Optional[RootCause]:
    """Build a root-cause report for ``app``'s latest history record.

    The baseline is the *record* whose wall-clock sits at the rolling
    median of the prior ``window`` runs (closest-to-median, most recent
    on ties) — the same baseline semantics as the regress gate, but
    resolved to a concrete record so its per-loop breakdown and ledger
    keys can be diffed. Needs at least two records; returns ``None``
    otherwise.
    """
    if len(records) < 2:
        return None
    base = list(records[:-1])[-window:]
    med = _median([r.wall_s for r in base])
    baseline = min(reversed(base), key=lambda r: abs(r.wall_s - med))
    return root_cause(app, baseline, records[-1], len(base), problems or ())


def root_cause_json(rc: RootCause) -> str:
    """Deterministic JSON encoding (sorted keys, fixed separators)."""
    return json.dumps(rc.to_json(), sort_keys=True, indent=2)
