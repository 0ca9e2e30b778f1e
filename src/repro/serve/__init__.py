"""Multi-tenant serving layer: compile once, serve many (DESIGN.md §9).

Six cooperating pieces turn the compiled-program pipeline into a
request-serving system over the simulated machine models:

- **cache** — compiled programs keyed ``(app, DecisionLedger.digest())``
  so repeat requests skip the pipeline entirely, and beside them the
  capture store: one functional execution per (program, input content);
- **batching** — an admission queue that coalesces pending invocations
  of the same cached program on the same payload into the lanes of one
  vectorized execution (max-batch / max-wait knobs), with recorded
  fallback to per-request reference execution;
- **scheduler** — a discrete-event server multiplexing requests across
  heterogeneous machine instances through a named placement policy
  (**events** is its queue: timed entries in one ``(t, seq)`` order);
- **simulator** — seeded open/closed-loop arrival processes and the
  throughput / p50 / p95 / p99 report, fed through the ``obs`` metrics
  registry and span tracer (``repro.tools serve-sim`` is the CLI);
- **faults** — a typed, seeded chaos script (crash windows, slow
  replicas, kernel faults, cache invalidation) over simulated time;
- **resilience** — deadlines, retries with seeded backoff, hedging,
  per-machine circuit breakers and load shedding, with every refused
  request leaving as a typed ``Rejected`` (DESIGN.md §13).
"""

from .batching import (AdmissionQueue, Payload, Request, Response,
                       ServeFallback, make_payload, payload_digest)
from .cache import VARIANTS, CompiledEntry, ProgramCache
from .faults import FAULT_KINDS, FaultPlan, FaultSpec, derive_unit
from .resilience import (BreakerConfig, CircuitBreaker, Rejected,
                         ResilienceConfig, RetryPolicy)
from .scheduler import (POLICIES, MachineInstance, ProgramServer, ServedApp,
                        make_machines)
from .simulator import (ClosedLoop, OpenLoop, ServeReport, ServeSim,
                        quantile)

__all__ = [
    "AdmissionQueue", "Payload", "Request", "Response", "ServeFallback",
    "make_payload", "payload_digest",
    "VARIANTS", "CompiledEntry", "ProgramCache",
    "FAULT_KINDS", "FaultPlan", "FaultSpec", "derive_unit",
    "BreakerConfig", "CircuitBreaker", "Rejected", "ResilienceConfig",
    "RetryPolicy",
    "POLICIES", "MachineInstance", "ProgramServer", "ServedApp",
    "make_machines",
    "ClosedLoop", "OpenLoop", "ServeReport", "ServeSim", "quantile",
]
