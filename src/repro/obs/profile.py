"""Profiling exports: collapsed-stack flamegraphs and OpenMetrics text.

Two converters off the existing observability data, both pure:

- :func:`collapse_stacks` folds span tables into the collapsed-stack
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

import functools
import math
from typing import Dict, List, Tuple, Union

from .metrics import MetricsRegistry, quantile_ranks
from .spans import SpanTable, Tracer, span_table

_US = 1e6


# ---------------------------------------------------------------------------
# collapsed-stack flamegraphs
# ---------------------------------------------------------------------------

def collapse_stacks(source: Union[Tracer, SpanTable]) -> Dict[str, int]:
    """Run(s) → {collapsed stack: self-time in whole µs}. ``bincount``
    adds children's durations in row order, so self times are a
    sequential fold's."""
    import numpy as np
    t = span_table(source)
    dur = np.fromiter(t.dur_s, float, len(t.dur_s))
    parent = t.parents()
    child_s = np.bincount(parent + 1, weights=dur,
                          minlength=len(dur) + 1)[1:]
    self_us = np.rint(np.maximum(0.0, dur - child_s) * _US)
    # ";" separates stack frames in the collapsed format; a name that
    # contains one would silently split into two frames
    stacks = [""]  # row i's stack is stacks[i + 1], a root's parent's ""
    for p, name in zip((parent + 1).tolist(), t.name):
        name = name.replace(";", ",")
        up = stacks[p]
        stacks.append(f"{up};{name}" if up else name)
    out: Dict[str, int] = {}
    kept = np.flatnonzero(self_us > 0)
    for i, us in zip((kept + 1).tolist(), self_us[kept].tolist()):
        out[stacks[i]] = out.get(stacks[i], 0) + int(us)
    return out


def render_collapsed(source: Union[Tracer, SpanTable]) -> str:
    """One ``stack weight`` line per frame path, sorted for stability."""
    folded = collapse_stacks(source)
    return "\n".join(f"{stack} {folded[stack]}" for stack in sorted(folded))


def write_collapsed(path: str, source: Union[Tracer, SpanTable]) -> None:
    """Write a flamegraph.pl/speedscope-loadable collapsed-stack file."""
    with open(path, "w") as f:
        text = render_collapsed(source)
        if text:
            f.write(text + "\n")


# ---------------------------------------------------------------------------
# Prometheus / OpenMetrics text exposition
# ---------------------------------------------------------------------------

@functools.lru_cache(maxsize=4096)
def _sanitize(name: str) -> str:
    out = []
    for i, ch in enumerate(name):
        if ch.isalnum() and (i > 0 or not ch.isdigit()) or ch in "_:":
            out.append(ch)
        else:
            out.append("_")
    return "".join(out)


@functools.lru_cache(maxsize=4096)
def _split_series(series: str) -> Tuple[str, Tuple[Tuple[str, str], ...]]:
    """Undo metrics.py's label folding: ``name{k=v,...}`` → (name, kv)."""
    if "{" not in series:
        return series, ()
    name, _, rest = series.partition("{")
    return name, tuple(part.partition("=")[::2]
                       for part in rest.rstrip("}").split(","))


def _escape(v: str) -> str:
    """Label-value escaping per the Prometheus/OpenMetrics text
    exposition format: backslash first (so it doesn't re-escape the
    others), then double-quote and newline. A raw newline inside a
    label value would otherwise split the sample line and corrupt the
    whole scrape."""
    return (v.replace("\\", "\\\\").replace('"', '\\"')
             .replace("\n", "\\n"))


@functools.lru_cache(maxsize=4096)
def _label_str(labels: Tuple[Tuple[str, str], ...]) -> str:
    if not labels:
        return ""
    quoted = ",".join(f'{_sanitize(k)}="{_escape(v)}"' for k, v in labels)
    return "{" + quoted + "}"


def _sample(v: float) -> str:
    """A sample value as the exposition format spells it: integral values
    whole, other finite ones by ``repr`` (the shortest string that reads
    back as the same double), and ``+Inf``, ``-Inf``, ``NaN``."""
    v = float(v)
    if math.isfinite(v):
        return f"{v:.0f}" if v.is_integer() and abs(v) < 2 ** 53 else repr(v)
    return "NaN" if math.isnan(v) else "+Inf" if v > 0 else "-Inf"


def _quantiles(vals: List[float]) -> List[float]:
    """p50, p90, p95 and p99 of ``vals`` (no nan), as
    ``MetricsRegistry.histogram_stats_of`` has them, from one partial
    sort at those four ranks."""
    if not vals:
        return [0.0] * 4
    import numpy as np
    ranks = quantile_ranks(len(vals))
    at = np.fromiter(vals, float, len(vals))
    at.partition(ranks)
    picked = at[ranks].tolist()
    if 0.0 in picked and np.signbit(at[at == 0.0]).any():
        # -0.0 ties 0.0, and only a stable sort picks the one sorted() does
        ordered = sorted(vals)
        return [ordered[r] for r in ranks]
    return picked


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
            lines.append(f"{pname}{_label_str(labels)} "
                         f"{_sample(table[series])}")

    emit(metrics.counters, "counter")
    emit(metrics.gauges, "gauge")

    for series in sorted(metrics.histograms):
        name, labels = _split_series(series)
        pname = _sanitize(name)
        if pname not in typed:
            typed.add(pname)
            lines.append(f"# TYPE {pname} summary")
        vals = metrics.histograms[series]
        for q, v in zip(("50", "90", "95", "99"), _quantiles(vals)):
            qlabels = labels + (("quantile", f"0.{q}"),)
            lines.append(f"{pname}{_label_str(qlabels)} {_sample(v)}")
        lines.append(f"{pname}_sum{_label_str(labels)} {_sample(sum(vals))}")
        lines.append(f"{pname}_count{_label_str(labels)} {len(vals)}")
    lines.append("# EOF")
    return "\n".join(lines) + "\n"


def write_prometheus(path: str, metrics: MetricsRegistry) -> None:
    with open(path, "w") as f:
        f.write(prometheus_text(metrics))
