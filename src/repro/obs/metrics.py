"""Metrics registry: counters, gauges, and histograms.

Fed by the executor (pricing decisions: replication vs dynamic fetches,
broadcast/shuffle volumes, per-loop seconds) and by the serving layer.

Labels follow the Prometheus convention of being folded into the series
key: ``inc("executor.remote_fetch_bytes", n, loop="x12")`` records under
``executor.remote_fetch_bytes{loop=x12}``. Everything is in-process and
deterministic — the registry is a dict, not a server.
"""

from __future__ import annotations

import math
from typing import Any, Dict, List


def _series(name: str, labels: Dict[str, Any]) -> str:
    if not labels:
        return name
    if len(labels) == 1:  # what a hot path passes: nothing to sort or join
        (k, v), = labels.items()
        return f"{name}{{{k}={v}}}"
    inner = ",".join(f"{k}={labels[k]}" for k in sorted(labels))
    return f"{name}{{{inner}}}"


def quantile_ranks(n: int) -> List[int]:
    """Where p50, p90, p95 and p99 sit among ``n`` sorted samples: the
    nearest rank (an exact sample, no interpolation, so latency reports
    are deterministic), p50 the historical upper median."""
    return [n // 2] + [min(n - 1, max(0, math.ceil(q * n) - 1))
                       for q in (0.90, 0.95, 0.99)]


class MetricsRegistry:
    """Counters (monotonic), gauges (last value), histograms (all values)."""

    def __init__(self) -> None:
        self.counters: Dict[str, float] = {}
        self.gauges: Dict[str, float] = {}
        self.histograms: Dict[str, List[float]] = {}

    # -- write side -----------------------------------------------------

    def inc(self, name: str, value: float = 1.0, **labels: Any) -> None:
        key = _series(name, labels)
        self.counters[key] = self.counters.get(key, 0.0) + value

    def gauge(self, name: str, value: float, **labels: Any) -> None:
        self.gauges[_series(name, labels)] = value

    def observe(self, name: str, value: float, **labels: Any) -> None:
        self.histograms.setdefault(_series(name, labels), []).append(value)

    # -- read side ------------------------------------------------------

    def counter(self, name: str, **labels: Any) -> float:
        return self.counters.get(_series(name, labels), 0.0)

    @staticmethod
    def histogram_stats_of(vals: List[float]) -> Dict[str, float]:
        # every key is always present: an empty histogram (count 0, all
        # stats 0.0) and a single sample (every percentile IS the
        # sample) must be well-defined, not KeyErrors or index errors
        # in whoever reads the snapshot
        if not vals:
            return {"count": 0, "min": 0.0, "max": 0.0, "mean": 0.0,
                    "p50": 0.0, "p90": 0.0, "p95": 0.0, "p99": 0.0}
        s = sorted(vals)
        p50, p90, p95, p99 = (s[i] for i in quantile_ranks(len(s)))
        return {"count": len(s), "min": s[0], "max": s[-1],
                "mean": sum(s) / len(s), "p50": p50, "p90": p90,
                "p95": p95, "p99": p99}

    def render(self) -> str:
        """Plain-text dump, one series per line, grouped by type."""
        lines: List[str] = []
        for title, table in (("counters", self.counters),
                             ("gauges", self.gauges)):
            if table:
                lines.append(f"{title}:")
                for k in sorted(table):
                    lines.append(f"  {k:<52} {table[k]:g}")
        if self.histograms:
            lines.append("histograms:")
            for k in sorted(self.histograms):
                st = self.histogram_stats_of(self.histograms[k])
                lines.append(
                    f"  {k:<52} n={st['count']} min={st['min']:.3g} "
                    f"mean={st['mean']:.3g} max={st['max']:.3g}")
        return "\n".join(lines) if lines else "(no metrics recorded)"

