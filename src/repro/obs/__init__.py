"""Runtime observability (DESIGN.md §6d).

Three cooperating pieces make the simulated runtime inspectable:

- **spans** — every priced execution can produce one span table, a
  hierarchy in pre-order (run → loop → machine → socket/GPU chunk) whose
  attributes expose the mapping decisions (§4-§5) behind each number;
- **metrics** — counters/gauges/histograms fed by the executor and the
  distributed-array runtime;
- **diagnostics** — typed, loop-attributed events that replace the bare
  warning strings the partitioning analysis used to emit;
- **export** — a text profile report and Chrome-trace JSON
  (``chrome://tracing`` / Perfetto), validated by ``repro.obs.check``;
- **analytics** — critical-path extraction, exact per-request latency
  decomposition, differential trace diff and regression root-cause
  reports (``repro.obs.critical`` / ``repro.obs.analyze``), surfaced
  through ``repro.tools analyze`` and the regress gate.

Everything is opt-in: with no tracer/registry configured the executor
writes no span row and emits nothing.
"""

from .analyze import (LoopDelta, RootCause, decompose_timeline,
                      decomposition_summary, diff_loop_rows,
                      request_decomposition, root_cause_from_records)
from .critical import (CriticalPath, FleetReport, PathStep, critical_path,
                       fleet_attribution)
from .diagnostics import DiagCategory, Diagnostic, Severity
from .metrics import MetricsRegistry
from .provenance import (Decision, DecisionKind, DecisionLedger,
                         diff_ledgers, emit, ledger_scope)
from .spans import RequestContext, RequestTimeline, SpanTable, Tracer
from .export import (chrome_trace_events, profile_report, render_spans,
                     write_chrome_trace)
from .profile import (collapse_stacks, prometheus_text, render_collapsed,
                      write_collapsed, write_prometheus)
from .slo import (BurnWindow, ObjectiveResult, SLOObjective, SLOReport,
                  SLOSpec, evaluate_slo)

__all__ = [
    "LoopDelta", "RootCause", "decompose_timeline",
    "decomposition_summary", "diff_loop_rows",
    "request_decomposition", "root_cause_from_records",
    "CriticalPath", "FleetReport", "PathStep", "critical_path",
    "fleet_attribution",
    "DiagCategory", "Diagnostic", "Severity",
    "MetricsRegistry",
    "Decision", "DecisionKind", "DecisionLedger",
    "diff_ledgers", "emit", "ledger_scope",
    "RequestContext", "RequestTimeline", "SpanTable", "Tracer",
    "chrome_trace_events", "profile_report", "render_spans",
    "write_chrome_trace",
    "collapse_stacks", "prometheus_text", "render_collapsed",
    "write_collapsed", "write_prometheus",
    "BurnWindow", "ObjectiveResult", "SLOObjective", "SLOReport",
    "SLOSpec", "evaluate_slo",
]
