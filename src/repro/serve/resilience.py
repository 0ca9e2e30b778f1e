"""Resilience policies for the serving layer.

Everything here is *policy state* the scheduler consults; none of it
runs host-side work. All randomness (retry jitter) derives from the
same sha256 unit-draw the fault plan uses, keyed by
``(seed, "retry", rid, attempt)``, so resilience decisions are as
deterministic as the chaos they respond to.

- :class:`RetryPolicy` — exponential backoff with seeded jitter (the
  constants ``BACKOFF_S``, ``BACKOFF_MULTIPLIER``, ``JITTER``) and a
  **global** retry budget shared across the run (a storm of failures
  can't multiply load unboundedly).
- :class:`CircuitBreaker` — per-machine closed/open/half-open state
  over a sliding window of recent outcomes; placement skips machines
  whose breaker is open, and a half-open breaker admits exactly one
  probe batch before deciding.
- :class:`Rejected` — the typed terminal record for a request the
  server explicitly refused (shed, deadline, retries exhausted, or
  unservable at shutdown). Every submitted request ends as exactly one
  ``Response`` or one ``Rejected`` — the zero-lost-requests contract.
- :class:`ResilienceConfig` — the knob bundle the CLI builds; ``None``
  (the default everywhere) keeps the server byte-identical to the
  pre-resilience behavior.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from math import inf
from typing import Any, Deque, Dict, Optional

from .faults import derive_unit

#: ``Rejected.reason`` values the scheduler emits
REJECT_SHED = "shed"
REJECT_DEADLINE = "deadline"
REJECT_RETRIES = "retries-exhausted"
REJECT_UNSERVED = "unserved-at-shutdown"

#: the first retry waits 1 ms, each further one twice as long, each
#: drawn within +/- 50 % of that (seeded jitter)
BACKOFF_S, BACKOFF_MULTIPLIER, JITTER = 0.001, 2.0, 0.5


@dataclass(eq=False)
class Rejected:
    """A request the server refused — the typed counterpart of
    :class:`Response` for the unserved half of the traffic."""

    rid: int
    app: str
    reason: str
    #: simulated time of the rejection decision
    t_s: float
    arrival_s: float = 0.0
    client: int = -1
    #: how many execution attempts had been spent when it was refused
    attempts: int = 0

    def to_json(self) -> Dict[str, Any]:
        return {"rid": self.rid, "app": self.app, "reason": self.reason,
                "t_s": self.t_s, "arrival_s": self.arrival_s,
                "attempts": self.attempts}


@dataclass(frozen=True)
class RetryPolicy:
    """Exponential backoff with seeded jitter and a global budget.

    ``max_attempts`` counts the first try: ``max_attempts=3`` means up
    to two retries. ``budget`` caps retries across the whole run — once
    spent, further failures reject immediately.
    """

    max_attempts: int = 3
    budget: int = 64

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        if self.budget < 0:
            raise ValueError("budget must be >= 0")

    def delay_s(self, seed: int, rid: int, attempt: int) -> float:
        """Backoff before attempt ``attempt`` (1-based retry index)."""
        base = BACKOFF_S * BACKOFF_MULTIPLIER ** max(0, attempt - 1)
        u = derive_unit(seed, "retry", str(rid), attempt)
        return base * (1.0 + JITTER * (2.0 * u - 1.0))


@dataclass(frozen=True)
class BreakerConfig:
    """Per-machine sliding-window failure-rate breakers, on. The
    parameters are constants, like ``RetryPolicy``'s backoff."""

    #: outcomes remembered per machine
    WINDOW = 8
    #: failure rate that trips the breaker open
    THRESHOLD = 0.5
    #: outcomes required before the rate is trusted
    MIN_EVENTS = 4
    #: seconds the breaker stays open before probing (half-open)
    COOLDOWN_S = 0.005


CLOSED, OPEN, HALF_OPEN = "closed", "open", "half-open"


class CircuitBreaker:
    """Per-machine breaker: closed → open on failure rate, open →
    half-open after cooldown, half-open → closed/open on one probe."""

    def __init__(self, config: BreakerConfig):
        self.config = config
        self.state = CLOSED
        self.outcomes: Deque[bool] = deque(maxlen=config.WINDOW)
        self.opened_at = 0.0
        self.trips = 0
        self._probing = False

    def allow(self, now: float) -> bool:
        """May a batch be placed on this machine right now? Pure —
        state transitions happen in ``on_dispatch``/``record``."""
        if self.state == CLOSED:
            return True
        if self.state == OPEN:
            if now >= self.opened_at + self.config.COOLDOWN_S - 1e-15:
                return True  # cooled down: next dispatch is the probe
            return False
        return not self._probing  # half-open: one probe at a time

    def on_dispatch(self, now: float) -> None:
        """A batch was just placed here; open breakers that cooled down
        move to half-open and mark the probe in flight."""
        if self.state == OPEN:
            self.state = HALF_OPEN
            self._probing = True
        elif self.state == HALF_OPEN:
            self._probing = True

    def record(self, now: float, ok: bool) -> None:
        """Outcome of an execution (or crash) on this machine."""
        if self.state == HALF_OPEN:
            self._probing = False
            if ok:
                self.state = CLOSED
                self.outcomes.clear()
            else:
                self.state = OPEN
                self.opened_at = now
                self.trips += 1
            return
        self.outcomes.append(ok)
        if self.state == CLOSED:
            n = len(self.outcomes)
            if n >= self.config.MIN_EVENTS:
                failures = sum(1 for o in self.outcomes if not o)
                if failures / n >= self.config.THRESHOLD:
                    self.state = OPEN
                    self.opened_at = now
                    self.trips += 1
                    self.outcomes.clear()


@dataclass(frozen=True)
class ResilienceConfig:
    """The serving layer's resilience knobs, all off by default.

    A ``None`` config (the server default) keeps every hot path on its
    pre-resilience behavior — the same zero-cost contract the tracer
    and the fault plan honor.
    """

    #: per-request deadline from arrival; requests whose deadline has
    #: passed at batch-seal time are rejected, never sealed
    deadline_s: Optional[float] = None
    retry: Optional[RetryPolicy] = None
    #: duplicate an in-flight request after this delay; first
    #: completion wins, the loser is dropped (counted, never surfaced)
    hedge_delay_s: Optional[float] = None
    #: reject new arrivals while the admission queue holds this many
    shed_depth: Optional[int] = None
    breaker: Optional[BreakerConfig] = None
    #: consecutive kernel faults before an app degrades to the
    #: reference-interpreter path for the rest of the run
    degrade_after: int = 3

    def __post_init__(self) -> None:
        if self.deadline_s is not None and not 0 < self.deadline_s < inf:
            raise ValueError("deadline_s must be finite and > 0")
        if self.hedge_delay_s is not None and not 0 < self.hedge_delay_s < inf:
            raise ValueError("hedge_delay_s must be finite and > 0")
        if self.shed_depth is not None and self.shed_depth < 1:
            raise ValueError("shed_depth must be >= 1")
        if self.degrade_after < 1:
            raise ValueError("degrade_after must be >= 1")
