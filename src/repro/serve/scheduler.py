"""Discrete-event request scheduler with pluggable placement.

``ProgramServer`` multiplexes heterogeneous requests across a set of
simulated machine models (``runtime/machine.py``): arrivals enter the
admission queue, the batcher forms lane-packed groups (``batching.py``),
a placement policy picks an idle machine, and the priced simulated
execution time (``runtime/executor.Simulator``) advances that machine's
clock. Time is fully simulated — the host only ever runs each distinct
``(app, payload)`` once per backend, so serving a thousand requests
costs one functional execution plus arithmetic.

Execution semantics mirror the backend contract:

- on the ``numpy`` backend a group of N identical payloads executes
  **once**, and all N responses share that execution's lanes — results
  and ``ExecStats`` are bit-identical to N sequential runs by backend
  determinism (see ``batching.py``);
- any other backend, and any execution failure, falls back to
  per-request reference execution, recorded as a :class:`ServeFallback`
  exactly as the backend records interpreter fallbacks.

Placement is declarative (Mapple-style): a policy is a name in
``POLICIES``, a function that chooses among idle machines; nothing else
in the scheduler changes with it.

Chaos and resilience (``faults.py`` / ``resilience.py``) hook into the
same event loop: crash events cancel and re-enqueue in-flight batches,
placement skips down or open-circuit replicas, kernel faults either
force the recorded fallback path or hard-fail the attempt into the
retry machinery, and every request ends as exactly one ``Response`` or
one typed ``Rejected`` — never silently lost. Beyond the in-flight
record every run keeps, all of it is guarded on the fault plan /
resilience config being present: a plain run stays byte-identical.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from ..backend import resolve_backend
from ..core.ir import Program
from ..obs.provenance import APPLIED, DecisionKind, DecisionLedger
from ..obs.spans import (BatchRecord, RequestContext, RequestTimeline,
                         ServeRecord)
from ..pipeline import CompiledProgram
from ..runtime.executor import (ExecOptions, RunCapture, SimResult,
                                Simulator, capture_run)
from ..runtime.machine import DMLL_CPP, ClusterSpec, MACHINE_MODELS
from .batching import (AdmissionQueue, Payload, Request, Response,
                       ServeFallback, make_payload)
from .cache import ProgramCache
from .events import EventQueue
from .faults import FaultPlan
from .resilience import (CircuitBreaker, OPEN, REJECT_DEADLINE,
                         REJECT_RETRIES, REJECT_SHED, REJECT_UNSERVED,
                         Rejected, ResilienceConfig)


@dataclass
class ServedApp:
    """An app the server accepts requests for."""

    name: str
    factory: Callable[[], Program]
    default_inputs: Dict[str, Any]
    #: compute/data scale factors back to the paper's dataset sizes —
    #: the same ones the app's benchmark bundle prices with
    scale: float = 1.0
    data_scale: Optional[float] = None

    @classmethod
    def from_bundle(cls, name: str) -> "ServedApp":
        from ..bench.apps import get_bundle
        b = get_bundle(name)
        return cls(name, b._factory, b.inputs, b.scale, b.data_scale)

    @cached_property
    def default_payload(self) -> Payload:
        """``default_inputs`` digested once, on first use, for every
        server built over this app (kept on the instance, not a field:
        ``==``, ``repr`` and ``replace`` do not see it)."""
        return make_payload(self.default_inputs)


@dataclass
class MachineInstance:
    """One serving replica: a machine model plus its scheduler state.
    Every replica prices with the ``DMLL_CPP`` profile."""

    name: str
    cluster: ClusterSpec
    #: compile variant requests placed here run ("gpu" on GPU nodes)
    variant: str = "opt"
    index: int = 0
    busy_until: float = 0.0
    busy_s: float = 0.0
    batches: int = 0
    #: True while a scripted crash window holds this replica down
    down: bool = False

    @property
    def label(self) -> str:
        return f"{self.name}[{self.index}]"

    @property
    def use_gpu(self) -> bool:
        return self.variant == "gpu"


def make_machines(spec: str) -> List[MachineInstance]:
    """Parse ``"numa*2,gpunode"`` against ``MACHINE_MODELS``."""
    out: List[MachineInstance] = []
    for part in spec.split(","):
        part = part.strip()
        if not part:
            continue
        name, _, count = part.partition("*")
        name = name.strip()
        if name not in MACHINE_MODELS:
            raise ValueError(f"unknown machine model {name!r}; expected "
                             f"one of {sorted(MACHINE_MODELS)}")
        try:
            n = int(count) if count else 1
        except ValueError:
            raise ValueError(f"bad machine count in {part!r}: {count!r} "
                             f"is not an integer") from None
        if n < 1:
            raise ValueError(f"bad machine count in {part!r}: count must "
                             f"be >= 1, got {n}")
        for _ in range(n):
            out.append(MachineInstance(
                name, MACHINE_MODELS[name],
                variant="gpu" if name == "gpunode" else "opt",
                index=len(out)))
    if not out:
        raise ValueError(f"machine spec {spec!r} names no machines")
    return out


# ---------------------------------------------------------------------------
# placement policies
# ---------------------------------------------------------------------------

def _round_robin(server: "ProgramServer", idle: List[MachineInstance],
                 requests: List[Request]) -> MachineInstance:
    """Cycle through machines, skipping busy ones."""
    m = min(idle, key=lambda m: ((m.index - server.rr_cursor)
                                 % len(server.machines)))
    server.rr_cursor = m.index + 1
    return m


def _least_loaded(server: "ProgramServer", idle: List[MachineInstance],
                  requests: List[Request]) -> MachineInstance:
    """Machine with the least accumulated busy time so far."""
    return min(idle, key=lambda m: (m.busy_s, m.index))


def _fastest(server: "ProgramServer", idle: List[MachineInstance],
             requests: List[Request]) -> MachineInstance:
    """Machine predicted to execute *this* batch fastest — the policy
    that actually exploits heterogeneity (a GPU node wins the dense
    kernels, the NUMA box wins irregular ones)."""
    app, payload = requests[0].app, requests[0].payload
    return min(idle, key=lambda m: (
        server.predict_service(m, app, payload), m.index))


#: placement: a policy name → the function that picks a batch's replica
#: among the idle ones, ``(server, idle, requests) -> MachineInstance``
POLICIES: Dict[str, Callable[..., MachineInstance]] = {
    "round-robin": _round_robin,
    "least-loaded": _least_loaded,
    "fastest": _fastest,
}


class AttemptLedger(dict):
    """rid → ``[live attempts, next attempt index, ended]`` for the
    requests that had a second attempt: every request ends exactly once,
    served or rejected. ``ProgramServer._clone_attempt`` is the only place
    a second attempt is born (``clone``), so a rid without an entry has
    one live attempt, cannot be superseded and ends once — admitting a
    request writes nothing here. An attempt is live until it completes or
    dies."""

    def clone(self, rid: int, hedge: bool) -> int:
        """Index of a new attempt: a hedge races the live one, a retry or
        a re-enqueue replaces the one that died."""
        entry = self.setdefault(rid, [1, 1, False])
        entry[0] += hedge
        entry[1] += 1
        return entry[1] - 1

    def ended(self, rid: int) -> bool:
        return rid in self and self[rid][2]

    def served(self, rid: int) -> bool:
        """An attempt completed: is it the one that serves the rid?"""
        entry = self.get(rid)
        if entry is None:
            return True
        entry[0] -= 1
        won, entry[2] = not entry[2], True
        return won

    def died(self, rid: int) -> int:
        """An attempt ended without completing: the attempts spent if it
        was the open rid's last live one (the rid is rejected), else 0."""
        entry = self.get(rid)
        if entry is None:
            return 1
        entry[0] -= 1
        if entry[0] or entry[2]:
            return 0
        entry[2] = True
        return entry[1]


# ---------------------------------------------------------------------------
# the server
# ---------------------------------------------------------------------------

class ProgramServer:
    """Serve requests against cached compiles on simulated machines.

    Drive it either directly (``submit`` + ``run``) or through an
    arrival process object with a ``prime(server)`` hook
    (``serve.simulator``). ``on_complete`` callbacks fire per response
    in completion order — closed-loop workloads use them to issue the
    next request.

    ``faults`` takes a :class:`~repro.serve.faults.FaultPlan` chaos
    script and ``resilience`` a
    :class:`~repro.serve.resilience.ResilienceConfig`; both default to
    off, and an **empty** fault plan is normalized to ``None`` so a
    zero-fault plan is bit-identical to no plan at all.
    """

    def __init__(self, apps: Sequence[ServedApp],
                 machines: Optional[List[MachineInstance]] = None,
                 max_batch: int = 8, max_wait_s: float = 0.02,
                 policy: str = "round-robin",
                 backend: Optional[str] = None,
                 metrics: Optional[Any] = None,
                 tracer: Optional[Any] = None,
                 cache: Optional[ProgramCache] = None,
                 trace_seed: int = 0,
                 faults: Optional[FaultPlan] = None,
                 resilience: Optional[ResilienceConfig] = None):
        if max_batch < 1:
            raise ValueError("max_batch must be >= 1")
        if not 0.0 <= max_wait_s < math.inf:
            raise ValueError("max_wait_s must be finite and >= 0")
        if not isinstance(policy, str) or policy not in POLICIES:
            raise ValueError(f"unknown placement policy {policy!r}; "
                             f"expected one of {sorted(POLICIES)}")
        self.apps: Dict[str, ServedApp] = {a.name: a for a in apps}
        self.machines = machines or make_machines("numa")
        self.max_batch = max_batch
        self.max_wait_s = max_wait_s
        self.policy = policy
        #: the replica index round-robin placement tries first
        self.rr_cursor = 0
        self.backend = resolve_backend(backend)
        self.metrics = metrics
        self.tracer = tracer
        #: request trace ids derive from this seed (the traffic seed, so
        #: same-seed runs export byte-identical traces)
        self.trace_seed = trace_seed
        self.faults = faults if faults else None
        self.res = resilience
        self.cache = cache or ProgramCache(
            {n: a.factory for n, a in self.apps.items()}, metrics=metrics)
        self.queue = AdmissionQueue()
        self.responses: List[Response] = []
        self.fallbacks: List[ServeFallback] = []
        #: requests the server explicitly refused (shed, deadline,
        #: retries exhausted, unserved at shutdown) — together with
        #: ``responses`` this accounts for every submitted request
        self.rejected: List[Rejected] = []
        #: apps permanently routed to the reference path after repeated
        #: kernel faults, with the recorded reason
        self.degraded: Dict[str, str] = {}
        #: serve-time decisions (degradations) — provenance for *why*
        #: an app stopped using the vectorized path
        self.ledger = DecisionLedger()
        self.on_complete: List[Callable[["ProgramServer", Response],
                                        None]] = []
        #: fired when a request leaves as a typed ``Rejected`` — closed
        #: loops treat the refusal as a completed interaction and issue
        #: the client's next request
        self.on_reject: List[Callable[["ProgramServer", Rejected],
                                      None]] = []
        self.now = 0.0
        # resilience counters (all stay 0 on plain runs)
        self.retries = 0
        self.requeues = 0
        self.hedges_launched = 0
        self.hedges_wasted = 0
        self.fault_counts: Dict[str, int] = {}
        self._events = EventQueue()
        self._push = self._events.push
        #: events popped per kind: the run's host cost, in no report
        self.events_by_kind: Dict[str, int] = {}
        # True inside the event loop: only then does ``submit`` hold ``at``
        # to the clock
        self._running = False
        #: when the admission window of the last request queued closes
        self._window_end = float("-inf")
        self._rid = 0
        self._bid = 0
        #: what a traced run records, flat (``None`` untraced): its
        #: responses, a row per other attempt and its batches, from which
        #: the tracer derives the spans when somebody reads them
        self.record = (ServeRecord(self.responses, trace_seed)
                       if tracer is not None else None)
        self._attempts = AttemptLedger()
        #: bid -> a dispatched batch until its ``complete`` event pops or a
        #: crash cancels it
        self._inflight: Dict[int, Dict[str, Any]] = {}
        # fault/breaker state
        self._kernel_strikes: Dict[str, int] = {}
        self._app_attempts: Dict[str, int] = {}
        self._retry_left = (resilience.retry.budget
                            if resilience is not None
                            and resilience.retry is not None else 0)
        self._breakers: Optional[Dict[int, CircuitBreaker]] = None
        if resilience is not None and resilience.breaker is not None:
            self._breakers = {m.index: CircuitBreaker(resilience.breaker)
                              for m in self.machines}
        # host-side memo: one pricing per (machine model, app, variant,
        # payload digest, backend), keyed by content like the execution it
        # prices (``cache.capture``'s): tenants of one dataset share it
        self._service: Dict[Tuple[str, str, str, str, str], SimResult] = {}
        self._payloads: Dict[Tuple[str, str], Payload] = {}

    # -- request admission ----------------------------------------------

    def payload_for(self, app: str, salt: Optional[str] = None) -> Payload:
        """The app's default payload, optionally salted into a distinct
        logical tenant (memoized so equal salts share lane groups; the
        dataset is digested once per ``ServedApp``, whatever the number
        of tenants or servers)."""
        if salt is None:
            return self.apps[app].default_payload
        key = (app, salt)
        if key not in self._payloads:
            self._payloads[key] = self.payload_for(app).salted(salt)
        return self._payloads[key]

    def submit(self, app: str, payload: Optional[Payload] = None,
               at: float = 0.0, client: int = -1) -> Request:
        return self.admit((at,), (app,), (payload,), client)[0]

    def admit(self, at: Sequence[float], apps: Sequence[str],
              payloads: Sequence[Optional[Payload]],
              client: int = -1) -> List[Request]:
        """A column of requests (``at``, ``apps``, ``payloads``; a ``None``
        payload is the app's default) with consecutive rids, whose
        ``arrive`` events enter the queue as one column. A bad row admits
        none of them."""
        # once the loop runs, time cannot run backwards; NaN fails the check
        floor = self.now if self._running else 0.0
        known, payload_for = self.apps, self.payload_for
        rid, reqs = self._rid, []
        for t, app, payload in zip(at, apps, payloads):
            if app not in known:
                raise KeyError(f"unknown app {app!r}; served apps: "
                               f"{sorted(known)}")
            if not floor <= t < math.inf:
                raise ValueError(f"submit at={t!r}: an arrival time must be "
                                 f"finite and >= {floor!r} (now={self.now!r})")
            reqs.append(Request(rid, app, payload or payload_for(app), t,
                                client))
            rid += 1
        self._rid = rid
        if self.res is not None and self.res.deadline_s is not None:
            for req in reqs:
                req.deadline_s = req.arrival_s + self.res.deadline_s
        self._events.extend(at, "arrive", reqs)
        return reqs

    def _clone_attempt(self, req: Request, spawn_s: float,
                       hedge: bool = False) -> Request:
        """A fresh execution attempt for ``req``'s logical request,
        spawned at ``spawn_s``: same rid/payload/arrival (latency stays
        end-to-end), next attempt index."""
        return Request(req.rid, req.app, req.payload, req.arrival_s,
                       req.client, self._attempts.clone(req.rid, hedge),
                       req.deadline_s, spawn_s)

    # -- the event loop --------------------------------------------------

    def run(self, source: Optional[Any] = None) -> List[Response]:
        if source is not None:
            source.prime(self)
        if self.record is not None:
            attrs = ({} if self.faults is None
                     else {"faults": len(self.faults.specs)})
            spans = self.tracer.begin_run(
                "serve", backend=self.backend, policy=self.policy,
                machines=len(self.machines), max_batch=self.max_batch,
                max_wait_s=self.max_wait_s, **attrs)
        if self.faults is not None:
            self._schedule_faults()
        by_kind = self.events_by_kind
        handlers = {"arrive": self._on_arrive, "hedge": self._on_hedge,
                    "complete": self._on_complete_event,
                    "crash": self._on_crash,
                    "cache-fault": self._on_cache_fault}
        self._running = True
        while self._events or self.queue:
            for t, _, kind, data in self._events.drain():
                self.now = t
                by_kind[kind] = by_kind.get(kind, 0) + 1
                handler = handlers.get(kind)
                if handler is not None:
                    handler(data, t)
                else:  # flush, breaker wake-up, recover, retry
                    if kind == "retry":
                        self._enqueue(data, t)
                    elif kind == "recover":
                        self.machines[data].down = False
                    self._dispatch(t)
            # zero-lost drain: the loop is dry once the last admission
            # window has closed too; anything still queued then (replicas
            # down for good, budget exhausted) leaves as an explicit
            # Rejected, and what its hooks submit runs the same way
            self.now = max(self.now, self._window_end)
            for r in self.queue.drain():
                self._attempt_ended(r, REJECT_UNSERVED, self.now)
        self._running = False
        makespan = max((r.finish_s for r in self.responses), default=0.0)
        if self.record is not None:
            # the run span must cover *all* machine activity, not just
            # kept responses: a wasted hedge batch (its twin won) or a
            # late rejection can outlive the last winner, and the trace
            # validator rejects slices that end after the run span
            rec = self.record
            horizon = max([makespan]
                          + [b.start_s + b.dur_s for b in rec.batches]
                          + [j.t_s for j in self.rejected])
            spans.dur_s[0] = rec.horizon = horizon
            spans.attrs[0].update(requests=len(self.responses),
                                  batches=self._bid, makespan_s=makespan)
            if self.faults is not None:
                rec.crashes = [
                    (m.label, m.index, m.name, t0, min(t1, horizon))
                    for m in self.machines
                    for t0, t1 in self.faults.crash_windows(m.label, m.name)
                    if t0 < horizon]
            # every row under the run row is a derivation from the
            # record, run when somebody reads them
            self.tracer.defer(spans, rec.table)
        if self.metrics is not None:
            self.metrics.gauge("serve.makespan_s", makespan)
        return self.responses

    def _schedule_faults(self) -> None:
        """Turn the fault plan's scripted windows into loop events."""
        for m in self.machines:
            for t0, t1 in self.faults.crash_windows(m.label, m.name):
                self._push(t0, "crash", m.index)
                if t1 != float("inf"):
                    self._push(t1, "recover", m.index)
        for at, target in self.faults.cache_events():
            self._push(at, "cache-fault", target)

    # -- event handlers ---------------------------------------------------

    def _on_arrive(self, req: Request, t: float) -> None:
        if (self.res is not None and self.res.shed_depth is not None
                and len(self.queue) >= self.res.shed_depth):
            self._count("shed")
            self._attempt_ended(req, REJECT_SHED, t)
            return
        size = self._enqueue(req, t)
        if self.metrics is not None:
            self.metrics.inc("serve.requests", app=req.app)
        if self.res is not None and self.res.hedge_delay_s is not None:
            self._push(t + self.res.hedge_delay_s, "hedge", req)
        # an arrival makes a dispatch possible only by filling its group
        # (or when nothing ever waits); a head's expiry is its flush's job
        if size == self.max_batch or self.max_wait_s == 0:
            self._dispatch(t)

    def _enqueue(self, req: Request, t: float) -> int:
        """Queue one attempt — an arrival, or a retry / hedge / crash
        re-enqueue clone — and return its group's new size."""
        size = self.queue.push(req)
        req.enqueue_s = t
        self._window_end = t + self.max_wait_s
        if size == 1:
            self._schedule_flush(req, t)
        return size

    def _schedule_flush(self, head: Request, now: float) -> None:
        """Every non-empty admission group has one pending ``flush``, due
        when its head's wait expires (now, if it already has): this runs
        when ``push`` or ``take`` gives a group a new head, and never else."""
        self._push(max(head.arrival_s + self.max_wait_s, now), "flush", None)

    def _on_hedge(self, req: Request, t: float) -> None:
        """Hedge timer: duplicate the request if its attempt is still
        executing — first completion wins, the loser is dropped. A rid
        gets one timer (at arrival) and has one live attempt until it
        fires, so an attempt in an in-flight batch is that live one."""
        if not any(r.request.rid == req.rid for inf in self._inflight.values()
                   for r in inf["responses"]):
            return
        self.hedges_launched += 1
        if self.metrics is not None:
            self.metrics.inc("serve.hedges")
        self._enqueue(self._clone_attempt(req, t, hedge=True), t)
        self._dispatch(t)

    def _on_crash(self, idx: int, t: float) -> None:
        """A scripted crash: the replica goes down; its in-flight batch
        (if any) is cancelled and every request re-enqueued."""
        m = self.machines[idx]
        m.down = True
        self._count("crash")
        self._record_outcome(idx, t, False)
        # the batch placed here last (one placed before it may still
        # await its ``complete`` event at this very instant)
        placed = [b for b, inf in self._inflight.items()
                  if inf["machine"] == idx]
        if placed:
            inf = self._inflight.pop(max(placed))
            self._count("cancelled-batches")
            # the unfinished tail never ran: free the busy accounting
            m.busy_s -= inf["finish"] - t
            m.busy_until = t
            ran = inf["ran"]
            if ran is not None:
                ran.dur_s = t - ran.start_s
                ran.loops = ()
                ran.attrs.update(cancelled=True, cancelled_at_s=t)
            for resp in inf["responses"]:
                r = resp.request
                self._attempt_row(r, "requeued", t, resp)
                if self._attempts.ended(r.rid):
                    continue
                self.requeues += 1
                self._enqueue(self._clone_attempt(r, t), t)
        self._dispatch(t)

    def _on_cache_fault(self, target: str, t: float) -> None:
        """Scripted compile-cache invalidation: evict the cache entries
        (and with them their captures) and the prices computed from them,
        so the next request recompiles (surfacing as cache misses),
        re-executes and is priced again."""
        self._count("cache-invalidations")
        self.cache.invalidate(None if target == "*" else target)
        for k in [k for k in self._service if target in ("*", k[1])]:
            del self._service[k]

    def _on_complete_event(self, bid: int, t: float) -> None:
        inf = self._inflight.pop(bid, None)
        if inf is None:  # a crash cancelled it and re-enqueued its requests
            self._dispatch(t)
            return
        self._record_outcome(inf["machine"], t, True)
        fresh = responses = inf["responses"]
        if self._attempts:
            fresh = []
            for r in responses:
                if not self._attempts.served(r.request.rid):
                    # a hedge/requeue race: another attempt already won
                    self.hedges_wasted += 1
                    self._attempt_row(r.request, "superseded", t, r)
                    continue
                fresh.append(r)
        self.responses.extend(fresh)
        if self.metrics is not None:
            for r in fresh:
                self.metrics.observe("serve.latency_s", r.latency_s,
                                     app=r.request.app)
                self.metrics.observe("serve.queue_wait_s", r.queue_wait_s)
        if self.on_complete:
            for r in fresh:
                for hook in self.on_complete:
                    hook(self, r)
        self._dispatch(t)

    # -- rejection bookkeeping -------------------------------------------

    def _count(self, key: str) -> None:
        self.fault_counts[key] = self.fault_counts.get(key, 0) + 1

    def _record_outcome(self, idx: int, now: float, ok: bool) -> None:
        """Feed an execution's outcome (a completion, a kernel fault, a
        crash) to the machine's breaker, if it has one. Whenever the
        breaker trips — a success can trip it too, while its window is
        still at the failure threshold — schedule a wake-up for when the
        cooldown expires so a quiet queue can't strand requests."""
        if self._breakers is None:
            return
        b = self._breakers[idx]
        was_open = b.state == OPEN
        b.record(now, ok)
        if b.state == OPEN and not was_open:
            self._count("breaker-trips")
            if self.metrics is not None:
                self.metrics.inc("serve.breaker.trips",
                                 machine=self.machines[idx].name)
            self._push(b.opened_at + b.config.COOLDOWN_S, "breaker", None)

    def _attempt_ended(self, req: Request, reason: str, t: float,
                       status: Optional[str] = None) -> None:
        """An attempt died without completing (shed / deadline / retry
        exhausted / shutdown). When it was the rid's last live attempt,
        the request leaves as a typed ``Rejected``."""
        self._attempt_row(req, status or reason, t)
        attempts = self._attempts.died(req.rid)
        if attempts:
            self.rejected.append(Rejected(
                req.rid, req.app, reason, t, arrival_s=req.arrival_s,
                client=req.client, attempts=attempts))
            if self.metrics is not None:
                self.metrics.inc("serve.rejected", app=req.app, reason=reason)
            for hook in self.on_reject:
                hook(self, self.rejected[-1])

    def _attempt_row(self, req: Request, status: str, t: float,
                     resp: Optional[Response] = None) -> None:
        """An attempt that did not serve its rid ended at ``t``: a row of
        the record (tracing only; ``obs.spans.attempt_marks`` reads it)."""
        if self.record is not None:
            self.record.attempts.setdefault(req.rid, []).append(
                (req, status, t, resp))

    def resilience_summary(self) -> Optional[Dict[str, Any]]:
        """Shed/retry/hedge/breaker counts and per-fault attribution for
        the report — ``None`` when neither a fault plan nor a resilience
        config was active (so plain reports stay byte-identical)."""
        if self.faults is None and self.res is None:
            return None
        by_reason: Dict[str, int] = {}
        for j in self.rejected:
            by_reason[j.reason] = by_reason.get(j.reason, 0) + 1
        out: Dict[str, Any] = {
            "rejected": len(self.rejected),
            "rejected_by_reason": dict(sorted(by_reason.items())),
            "retries": self.retries,
            "retry_budget_left": self._retry_left,
            "requeues": self.requeues,
            "hedges": self.hedges_launched,
            "hedges_wasted": self.hedges_wasted,
            "degraded": dict(sorted(self.degraded.items())),
            "fault_counts": dict(sorted(self.fault_counts.items())),
        }
        if self._breakers is not None:
            out["breaker"] = {
                self.machines[i].label: {"state": b.state, "trips": b.trips}
                for i, b in sorted(self._breakers.items())}
        return out

    def timeline_of(self, rid: int) -> Optional[RequestTimeline]:
        """The lifecycle timeline of a request (tracing only): the attempt
        that served it, else its first, from the request's arrival, so
        that backoff and earlier attempts land in admission."""
        attempts = self.attempt_timelines_of(rid)
        if not attempts:
            return None
        tl = next((tl for _, status, tl in attempts if status == "served"),
                  attempts[0][2])
        tl.marks["arrive"] = attempts[0][2].marks["arrive"]
        return tl

    def attempt_timelines_of(self, rid: int
                             ) -> List[Tuple[int, str, RequestTimeline]]:
        """All per-attempt timelines of a request, as
        ``(attempt, status, timeline)`` sorted by attempt — the
        per-attempt decomposition input (tracing only)."""
        if self.record is None:
            return []
        ctx = RequestContext.derive(self.trace_seed, rid)
        return [(a, status, RequestTimeline(ctx, marks))
                for a, status, marks in self.record.marks_of(rid)]

    # -- dispatch ---------------------------------------------------------

    def _dispatch(self, now: float) -> None:
        breakers = self._breakers
        while True:
            idle = [m for m in self.machines
                    if m.busy_until <= now + 1e-15 and not m.down
                    and (breakers is None or breakers[m.index].allow(now))]
            if not idle:
                return
            key = self.queue.next_ready(now, self.max_batch, self.max_wait_s)
            if key is None:
                return
            requests, head = self.queue.take(key, self.max_batch)
            if head is not None:
                self._schedule_flush(head, now)
            if self.res is not None and self.res.deadline_s is not None:
                live = []
                for r in requests:
                    if (r.deadline_s is not None
                            and now >= r.deadline_s - 1e-15):
                        self._count("deadline")
                        self._attempt_ended(r, REJECT_DEADLINE, now)
                    else:
                        live.append(r)
                if not live:
                    continue
                requests = live
            machine = POLICIES[self.policy](self, idle, requests)
            self._execute_batch(machine, requests, now)

    # -- execution --------------------------------------------------------

    def _captured(self, app: str, variant: str, payload: Payload,
                  backend: str) -> RunCapture:
        """Ask the cache's capture store for ``backend``'s execution of
        ``payload``. ``execute`` runs only if this server is the first to
        need it, so the server that performs an execution is the one that
        records its failure — wherever placement or dispatch met it — and
        observes its host time; every caller of a failed one gets a
        ``RuntimeError`` carrying the reason."""
        def execute(compiled: CompiledProgram) -> RunCapture:
            try:
                cap = capture_run(compiled, payload.inputs, backend=backend,
                                  profile_host=self.metrics is not None)
            except Exception as exc:
                self.fallbacks.append(ServeFallback(
                    app, f"{backend} execution failed: {exc}", 0))
                raise
            if self.metrics is not None:
                # host wall-clock of the one real execution behind this
                # capture — calibration data for the cost model, kept in
                # metrics (not spans) so traces stay seed-deterministic
                for lname, secs in sorted(cap.host_loop_s.items()):
                    self.metrics.observe("serve.capture_host_s", secs,
                                         app=app, loop=lname)
            return cap

        return self.cache.capture(app, variant, payload, backend, execute)

    def _price(self, machine: MachineInstance, app: str,
               cap: RunCapture, payload: Payload) -> SimResult:
        """``cap`` priced on ``machine``'s model, memoized."""
        skey = (machine.name, app, machine.variant, payload.digest,
                cap.backend)
        sim = self._service.get(skey)
        if sim is None:
            served = self.apps[app]
            entry = self.cache.get(app, machine.variant)
            gpu = machine.use_gpu
            opts = ExecOptions(scale=served.scale,
                               data_scale=served.data_scale,
                               use_gpu=gpu, gpu_transposed=gpu)
            sim = self._service[skey] = Simulator(
                entry.compiled, machine.cluster, DMLL_CPP, opts).price(cap)
        return sim

    def predict_service(self, machine: MachineInstance, app: str,
                        payload: Payload) -> float:
        """Per-request service time on ``machine`` (placement input)."""
        try:
            cap = self._captured(app, machine.variant, payload, self.backend)
        except Exception:
            cap = self._captured(app, machine.variant, payload, "reference")
        return self._price(machine, app, cap, payload).total_seconds

    def _degrade_check(self, app: str, now: float) -> None:
        """Repeated kernel faults permanently route the app to the
        reference path, with a provenance Decision recording why."""
        strikes = self._kernel_strikes[app]
        limit = self.res.degrade_after if self.res is not None else 3
        if strikes >= limit and app not in self.degraded:
            reason = (f"{strikes} consecutive kernel faults; serving "
                      f"from the reference interpreter")
            self.degraded[app] = reason
            self._count("degraded-apps")
            self.ledger.record(DecisionKind.SERVE_DEGRADE, f"serve:{app}",
                               APPLIED, reason, strikes=strikes,
                               at_s=now)
            if self.metrics is not None:
                self.metrics.inc("serve.degraded", app=app)

    def _fail_batch(self, machine: MachineInstance, requests: List[Request],
                    now: float, bid: int, reason: str) -> None:
        """A hard kernel fault: the attempt dies instantly; each request
        retries (budget and attempts permitting) or leaves Rejected."""
        self._record_outcome(machine.index, now, False)
        if self.metrics is not None:
            self.metrics.inc("serve.kernel_faults", app=requests[0].app)
        if self.record is not None:
            self.record.batches.append(BatchRecord(
                f"b{bid}:{requests[0].app}!fault", "fault", now, 0.0,
                {"machine": machine.index, "machine_name": machine.name,
                 "app": requests[0].app, "batch_id": bid,
                 "fault": "kernel-error", "reason": reason}))
        rp = self.res.retry if self.res is not None else None
        for r in requests:
            nxt = r.attempt + 1
            if (rp is not None and nxt < rp.max_attempts
                    and self._retry_left > 0):
                self._retry_left -= 1
                self.retries += 1
                self._attempt_row(r, "failed", now)
                self._push(now + rp.delay_s(self.trace_seed, r.rid, nxt),
                           "retry", self._clone_attempt(r, now))
            else:
                self._attempt_ended(r, REJECT_RETRIES, now,
                                    status="failed")

    def _execute_batch(self, machine: MachineInstance,
                       requests: List[Request], now: float) -> None:
        app, payload, n = requests[0].app, requests[0].payload, len(requests)
        bid = self._bid
        self._bid += 1
        if self._breakers is not None:
            # a half-open breaker's probe is in flight from placement on
            self._breakers[machine.index].on_dispatch(now)

        fallback_reason: Optional[str] = None
        if app in self.degraded:
            fallback_reason = f"degraded: {self.degraded[app]}"
        elif self.backend == "numpy":
            try:
                cap = self._captured(app, machine.variant, payload,
                                     self.backend)
            except Exception as exc:  # recorded, never silent
                fallback_reason = f"numpy execution failed: {exc}"
        else:
            fallback_reason = (f"backend={self.backend!r} has no lane "
                               f"axis; per-request reference execution")

        if self.faults is not None and fallback_reason is None:
            attempt_no = self._app_attempts.get(app, 0)
            self._app_attempts[app] = attempt_no + 1
            spec = self.faults.kernel_fault(app, now, attempt_no)
            if spec is not None:
                self._kernel_strikes[app] = \
                    self._kernel_strikes.get(app, 0) + 1
                self._degrade_check(app, now)
                if spec.mode == "error":
                    self._count("kernel-error")
                    self._fail_batch(machine, requests, now, bid,
                                     f"fault-injected kernel error "
                                     f"(target {spec.target!r})")
                    return
                self._count("kernel-fallback")
                fallback_reason = (f"fault-injected kernel failure "
                                   f"(target {spec.target!r})")
            else:
                self._kernel_strikes[app] = 0

        slow = (self.faults.slow_factor(machine.label, machine.name, now)
                if self.faults is not None else 1.0)
        if slow != 1.0:
            self._count("slowed-batches")

        packed = fallback_reason is None
        if not packed:
            cap = self._captured(app, machine.variant, payload, "reference")
            self.fallbacks.append(ServeFallback(app, fallback_reason, n))
            if self.metrics is not None:
                self.metrics.inc("serve.fallback", app=app)
        elif self.metrics is not None and n > 1:
            self.metrics.inc("serve.lane_packed_requests", n, app=app)
        sim = self._price(machine, app, cap, payload)
        # lane-packed, ONE execution serves the group (its lanes are the
        # batch) over [now, finish); a fallback batch runs its executions
        # back-to-back, request i in its own slot
        one = sim.total_seconds * slow
        svc = one if packed else one * n
        finish = now + svc
        results, stats, backend = cap.results, cap.stats, cap.backend
        lane_packed, mname = packed and n > 1, machine.label
        # positional: the one object a batch builds per request
        responses = [Response(r, results, stats, backend, bid, n, now,
                              finish if packed else now + one * (i + 1),
                              lane_packed, fallback_reason, mname,
                              now if packed else now + one * i)
                     for i, r in enumerate(requests)]
        machine.busy_until = finish
        machine.busy_s += svc
        machine.batches += 1
        if self.metrics is not None:
            self.metrics.inc("serve.batches", app=app)
            self.metrics.observe("serve.batch_size", float(n), app=app)
            self.metrics.observe("serve.service_s", svc,
                                 machine=machine.name)
        ran = None
        if self.record is not None:
            attrs = {"machine": machine.index, "machine_name": machine.name,
                     "app": app, "batch": n, "batch_id": bid,
                     "lane_packed": lane_packed,
                     "backend": backend, "service_s": svc,
                     "fallback": fallback_reason}
            if slow != 1.0:
                attrs["slow_factor"] = slow
            # the priced per-loop breakdown of a lane-packed batch becomes
            # the batch span's children, on the *serving* replica's track
            ran = BatchRecord(f"b{bid}:{app}x{n}", "batch", now, svc, attrs,
                              sim.loops if packed else ())
            self.record.batches.append(ran)
        self._inflight[bid] = {"machine": machine.index, "ran": ran,
                               "responses": responses, "finish": finish}
        self._push(finish, "complete", bid)
