"""Declarative SLOs over the serve timeline: error budgets, burn rates.

An :class:`SLOSpec` states what "good" means for served traffic —
latency-percentile objectives ("99% of requests finish within 80 ms")
and availability objectives ("99% of responses are served without a
fallback") — and :func:`evaluate_slo` reduces one serving run's
responses to per-objective compliance:

- **error budget** — the fraction of requests an objective *allows* to
  be bad (``1 - target``);
- **budget consumed** — the run's overall bad-fraction divided by the
  budget; ``> 1.0`` means the budget is exhausted and the run violates
  the objective;
- **burn rate** — the same ratio computed over sliding windows of the
  simulated completion timeline (window ``window_s``, half-window
  step), so a short queueing pathology shows up as a burn-rate spike
  even when the whole run stays inside budget. This is the
  Google-SRE-style multi-window signal, computed over simulated time so
  it is deterministic for a given traffic seed.

Everything is plain data in, plain data out: the engine never touches
the server, so it can score a live ``ServeSim`` run or a recorded
response list identically. ``repro.tools slo-report`` is the CLI and
CI gate (exit 0 within budget, 1 exhausted, 2 bad usage).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

#: objective kinds the engine scores
KINDS = ("latency", "availability")


def spec_number(doc: Dict[str, Any], key: str,
                default: Optional[float] = None) -> Optional[float]:
    """``doc[key]`` of a JSON spec (an SLO spec, a fault plan) as a float,
    ``default`` when it is absent (or null, when there is no default);
    anything else raises ``ValueError`` naming the field."""
    value = doc.get(key, default)
    try:
        return None if value is None and default is None else float(value)
    except (TypeError, ValueError, OverflowError):
        raise ValueError(f"{key} must be a number, got {value!r}") from None


@dataclass(frozen=True)
class SLOObjective:
    """One objective: at least ``target`` of requests must be good."""

    name: str
    kind: str                       # "latency" | "availability"
    #: good-fraction target in (0, 1), e.g. 0.99 — the error budget is
    #: ``1 - target``
    target: float
    #: latency objectives only: a response is good iff it finished
    #: within this many seconds of arriving
    threshold_s: Optional[float] = None

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown objective kind {self.kind!r}; "
                             f"expected one of {KINDS}")
        if not (0.0 < self.target < 1.0):
            raise ValueError(f"objective {self.name!r}: target must be in "
                             f"(0, 1), got {self.target}")
        if self.kind == "latency" and (self.threshold_s is None
                                       or self.threshold_s <= 0):
            raise ValueError(f"latency objective {self.name!r} needs a "
                             f"positive threshold")

    @property
    def budget(self) -> float:
        return 1.0 - self.target

    def is_bad(self, latency_s: float, fallback: bool) -> bool:
        if self.kind == "latency":
            return latency_s > self.threshold_s
        return fallback

    def describe(self) -> str:
        if self.kind == "latency":
            return (f"{self.target * 100:g}% of requests within "
                    f"{self.threshold_s * 1e3:g} ms")
        return f"{self.target * 100:g}% of responses without fallback"


@dataclass(frozen=True)
class SLOSpec:
    """A named set of objectives plus the burn-rate window width."""

    name: str
    objectives: Tuple[SLOObjective, ...]
    window_s: float = 0.05

    def __post_init__(self):
        if not self.objectives:
            raise ValueError(f"SLO spec {self.name!r} has no objectives")
        if self.window_s <= 0:
            raise ValueError("window_s must be > 0")

    @classmethod
    def from_json(cls, doc: Dict[str, Any]) -> "SLOSpec":
        """Parse the declarative JSON form::

            {"name": "interactive", "window_s": 0.05,
             "objectives": [
               {"name": "p99", "kind": "latency",
                "target": 0.99, "threshold_ms": 80},
               {"name": "avail", "kind": "availability", "target": 0.99}]}
        """
        if not isinstance(doc, dict):
            raise ValueError("SLO spec must be a JSON object")
        objectives = doc.get("objectives", [])
        if not (isinstance(objectives, list)
                and all(isinstance(o, dict) for o in objectives)):
            raise ValueError("objectives must be a list of JSON objects")
        objs = []
        for o in objectives:
            thr = spec_number(o, "threshold_ms")
            objs.append(SLOObjective(
                name=o.get("name", o.get("kind", "?")),
                kind=o.get("kind", "latency"),
                target=spec_number(o, "target", 0.99),
                threshold_s=(thr / 1e3 if thr is not None
                             else spec_number(o, "threshold_s"))))
        return cls(name=doc.get("name", "slo"), objectives=tuple(objs),
                   window_s=spec_number(doc, "window_s", 0.05))

    @classmethod
    def load(cls, path: str) -> "SLOSpec":
        with open(path) as f:
            return cls.from_json(json.load(f))


@dataclass
class BurnWindow:
    """Error-budget burn over one sliding window of the timeline."""

    t0_s: float
    t1_s: float
    total: int
    bad: int

    def burn_rate(self, budget: float) -> float:
        if self.total == 0:
            return 0.0
        return (self.bad / self.total) / budget


@dataclass
class ObjectiveResult:
    """One objective scored against one run."""

    objective: SLOObjective
    total: int
    bad: int
    windows: List[BurnWindow] = field(default_factory=list)

    @property
    def error_rate(self) -> float:
        return (self.bad / self.total) if self.total else 0.0

    @property
    def budget_consumed(self) -> float:
        """Overall bad-fraction over the budget; > 1.0 = exhausted."""
        return self.error_rate / self.objective.budget

    @property
    def max_burn_rate(self) -> float:
        return max((w.burn_rate(self.objective.budget)
                    for w in self.windows), default=0.0)

    @property
    def worst_window(self) -> Optional[BurnWindow]:
        if not self.windows:
            return None
        return max(self.windows,
                   key=lambda w: (w.burn_rate(self.objective.budget), -w.t0_s))

    @property
    def ok(self) -> bool:
        return self.budget_consumed <= 1.0

    def to_json(self) -> Dict[str, Any]:
        worst = self.worst_window
        return {
            "name": self.objective.name,
            "kind": self.objective.kind,
            "target": self.objective.target,
            "threshold_ms": (self.objective.threshold_s * 1e3
                             if self.objective.threshold_s is not None
                             else None),
            "total": self.total,
            "bad": self.bad,
            "error_rate": self.error_rate,
            "budget": self.objective.budget,
            "budget_consumed": self.budget_consumed,
            "max_burn_rate": self.max_burn_rate,
            "worst_window": (None if worst is None else
                             {"t0_s": worst.t0_s, "t1_s": worst.t1_s,
                              "total": worst.total, "bad": worst.bad}),
            "status": "ok" if self.ok else "violated",
        }


@dataclass
class SLOReport:
    """All objectives of one spec scored against one run."""

    spec: SLOSpec
    results: List[ObjectiveResult]

    @property
    def ok(self) -> bool:
        return all(r.ok for r in self.results)

    def to_json(self) -> Dict[str, Any]:
        return {"spec": self.spec.name, "window_s": self.spec.window_s,
                "status": "ok" if self.ok else "violated",
                "objectives": [r.to_json() for r in self.results]}

    def render(self) -> str:
        from ..report.tables import render_table
        rows = []
        for r in self.results:
            rows.append([
                r.objective.name, r.objective.describe(),
                f"{r.bad}/{r.total}",
                f"{r.error_rate * 100:.2f}%",
                f"{r.budget_consumed * 100:.1f}%",
                f"{r.max_burn_rate:.2f}x",
                "ok" if r.ok else "VIOLATED",
            ])
        return render_table(
            ["objective", "goal", "bad", "error rate", "budget used",
             "max burn", "status"],
            rows, title=f"SLO report: {self.spec.name} "
                        f"(window {self.spec.window_s * 1e3:g} ms)")


def _windows(events: Sequence[Tuple[float, bool]], window_s: float,
             makespan_s: float) -> List[Tuple[float, float, int, int]]:
    """Sliding (t0, t1, total, bad) windows, half-window step, empty
    windows skipped — deterministic for a fixed event list."""
    if not events or makespan_s <= 0:
        return []
    step = window_s / 2.0
    n_steps = max(1, int(math.ceil(makespan_s / step)))
    out = []
    for i in range(n_steps):
        t0 = i * step
        t1 = t0 + window_s
        total = bad = 0
        for t, is_bad in events:
            if t0 <= t < t1 or (t == makespan_s and t1 >= makespan_s):
                total += 1
                bad += int(is_bad)
        if total:
            out.append((t0, t1, total, bad))
    return out


def evaluate_slo(spec: SLOSpec, responses: Sequence[Any],
                 rejected: Sequence[Any] = ()) -> SLOReport:
    """Score ``spec`` against serve responses (anything exposing
    ``finish_s``, ``latency_s`` and ``fallback_reason``).

    ``rejected`` takes the run's :class:`~repro.serve.resilience.Rejected`
    records (anything exposing ``t_s``): a request the server refused —
    shed, deadline, retries exhausted — is unconditionally *bad* for
    every objective, so availability objectives score real failures
    instead of the trivially-healthy pre-chaos world."""
    makespan = max((r.finish_s for r in responses), default=0.0)
    makespan = max(makespan, max((j.t_s for j in rejected), default=0.0))
    results = []
    for obj in spec.objectives:
        events = [(r.finish_s,
                   obj.is_bad(r.latency_s, r.fallback_reason is not None))
                  for r in responses]
        events += [(j.t_s, True) for j in rejected]
        events.sort(key=lambda e: e[0])
        bad = sum(1 for _, b in events if b)
        res = ObjectiveResult(obj, len(events), bad)
        res.windows = [BurnWindow(t0, t1, n, nb)
                       for t0, t1, n, nb in _windows(events, spec.window_s,
                                                     makespan)]
        results.append(res)
    return SLOReport(spec, results)
