"""Profiling exports: collapsed-stack flamegraphs and OpenMetrics text.

Two converters off the existing observability data, both pure:

- :func:`collapse_stacks` folds span trees into the collapsed-stack
  format (``root;child;leaf <weight>``) consumed by speedscope,
  ``flamegraph.pl`` and ``inferno``. Each frame's weight is its
  **self time** — its duration minus its children's — in integer
  microseconds of simulated time, so a loop whose machine/socket chunks
  account for the whole parallel region contributes only its serial
  remainder (dispatch overhead + communication) at the loop frame, and
  the chunks carry the parallel time. Frames that collapse to zero
  microseconds are dropped.

- :func:`prometheus_text` renders a :class:`~repro.obs.metrics.
  MetricsRegistry` snapshot in the Prometheus/OpenMetrics text
  exposition format: counters and gauges one sample per series,
  histograms as summaries (``quantile`` labels plus ``_sum``/
  ``_count``). Metric names are sanitized to the Prometheus charset
  (dots become underscores); series labels survive as proper quoted
  label sets.
"""

from __future__ import annotations

from typing import Dict, List, Tuple, Union

from .metrics import MetricsRegistry
from .spans import Span, Tracer, span_rows

_US = 1e6


# ---------------------------------------------------------------------------
# collapsed-stack flamegraphs
# ---------------------------------------------------------------------------

def collapse_stacks(source: Union[Tracer, Span]) -> Dict[str, int]:
    """Span tree(s) → {collapsed stack: self-time in whole µs}."""
    #: [stack, dur_s, children's dur_s] per span, in pre-order
    frames: List[list] = []
    path: List[list] = []
    for depth, name, _kind, _start, dur_s, _attrs in span_rows(source):
        del path[depth:]
        # ";" separates stack frames in the collapsed format; a name that
        # contains one would silently split into two frames
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


def render_collapsed(source: Union[Tracer, Span]) -> str:
    """One ``stack weight`` line per frame path, sorted for stability."""
    folded = collapse_stacks(source)
    return "\n".join(f"{stack} {us}" for stack, us in sorted(folded.items()))


def write_collapsed(path: str, source: Union[Tracer, Span]) -> None:
    """Write a flamegraph.pl/speedscope-loadable collapsed-stack file."""
    with open(path, "w") as f:
        text = render_collapsed(source)
        if text:
            f.write(text + "\n")


# ---------------------------------------------------------------------------
# Prometheus / OpenMetrics text exposition
# ---------------------------------------------------------------------------

def _sanitize(name: str) -> str:
    out = []
    for i, ch in enumerate(name):
        if ch.isalnum() and (i > 0 or not ch.isdigit()) or ch in "_:":
            out.append(ch)
        else:
            out.append("_")
    return "".join(out)


def _split_series(series: str) -> Tuple[str, List[Tuple[str, str]]]:
    """Undo metrics.py's label folding: ``name{k=v,...}`` → (name, kv)."""
    if "{" not in series:
        return series, []
    name, _, rest = series.partition("{")
    labels = []
    for part in rest.rstrip("}").split(","):
        k, _, v = part.partition("=")
        labels.append((k, v))
    return name, labels


def _escape(v: str) -> str:
    """Label-value escaping per the Prometheus/OpenMetrics text
    exposition format: backslash first (so it doesn't re-escape the
    others), then double-quote and newline. A raw newline inside a
    label value would otherwise split the sample line and corrupt the
    whole scrape."""
    return (v.replace("\\", "\\\\").replace('"', '\\"')
             .replace("\n", "\\n"))


def _label_str(labels: List[Tuple[str, str]]) -> str:
    if not labels:
        return ""
    quoted = ",".join(f'{_sanitize(k)}="{_escape(v)}"' for k, v in labels)
    return "{" + quoted + "}"


def prometheus_text(metrics: MetricsRegistry) -> str:
    """Registry snapshot in the Prometheus text exposition format."""
    lines: List[str] = []
    typed: set = set()

    def emit(table: Dict[str, float], mtype: str) -> None:
        for series in sorted(table):
            name, labels = _split_series(series)
            pname = _sanitize(name)
            if pname not in typed:
                typed.add(pname)
                lines.append(f"# TYPE {pname} {mtype}")
            lines.append(f"{pname}{_label_str(labels)} {table[series]:g}")

    emit(metrics.counters, "counter")
    emit(metrics.gauges, "gauge")

    for series in sorted(metrics.histograms):
        name, labels = _split_series(series)
        pname = _sanitize(name)
        if pname not in typed:
            typed.add(pname)
            lines.append(f"# TYPE {pname} summary")
        vals = metrics.histograms[series]
        st = MetricsRegistry.histogram_stats_of(vals)
        for q in ("p50", "p90", "p95", "p99"):
            qlabels = labels + [("quantile", f"0.{q[1:]}")]
            lines.append(f"{pname}{_label_str(qlabels)} {st[q]:g}")
        lines.append(f"{pname}_sum{_label_str(labels)} {sum(vals):g}")
        lines.append(f"{pname}_count{_label_str(labels)} {len(vals)}")
    lines.append("# EOF")
    return "\n".join(lines) + "\n"


def write_prometheus(path: str, metrics: MetricsRegistry) -> None:
    with open(path, "w") as f:
        f.write(prometheus_text(metrics))
