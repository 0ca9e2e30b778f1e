"""Serving simulator: arrival processes and latency reporting.

Drives a :class:`~repro.serve.scheduler.ProgramServer` with a seeded
traffic model and reduces the responses to the numbers a capacity
planner wants: throughput, p50/p95/p99 latency, batch-size and
machine-utilization profiles. Two arrival processes, both deterministic
for a given seed:

- **open loop** — Poisson arrivals at a fixed rate; requests pile up if
  the fleet can't keep up (the honest tail-latency regime);
- **closed loop** — N clients each keep one request in flight and think
  between requests (the Helix-style QueryManager regime).

``payloads > 1`` salts requests into that many distinct logical tenants
sharing the measured dataset, which throttles lane-packing exactly the
way distinct-tenant traffic would.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from operator import attrgetter
from typing import Any, Dict, List, Optional, Sequence

from ..obs.analyze import decomposition_summary
from .cache import ProgramCache
from .scheduler import ProgramServer, ServedApp, make_machines


def quantile(sorted_vals: Sequence[float], q: float) -> float:
    """Nearest-rank quantile (exact sample, deterministic)."""
    if not sorted_vals:
        return 0.0
    i = min(len(sorted_vals) - 1, max(0, math.ceil(q * len(sorted_vals)) - 1))
    return sorted_vals[i]


def latency_breakdown(lat: Any, batch: Any, group_of: List[str]
                      ) -> Dict[str, Dict[str, Any]]:
    """Per-group latency summary (count/mean/p50/p95/p99), sorted keys:
    latency ``lat[i]`` is of batch ``batch[i]`` (NumPy arrays), which is
    of group ``group_of[batch[i]]``; groups are coded in first-seen order."""
    import numpy as np
    index = {name: k for k, name in enumerate(dict.fromkeys(group_of))}
    codes = np.array(list(map(index.__getitem__, group_of)), np.intp)[batch]
    out: Dict[str, Dict[str, Any]] = {}
    for name in sorted(index):
        vals = np.sort(lat[codes == index[name]]).tolist()
        out[name] = {
            "count": len(vals),
            "mean_s": (sum(vals) / len(vals)) if vals else 0.0,
            "p50_s": quantile(vals, 0.50),
            "p95_s": quantile(vals, 0.95),
            "p99_s": quantile(vals, 0.99),
        }
    return out


class OpenLoop:
    """Poisson arrivals at ``rate_rps``, app and tenant picked per
    request from the seeded RNG."""

    def __init__(self, apps: Sequence[str], rate_rps: float, requests: int,
                 seed: int = 0, payloads: int = 1):
        if not 0.0 < rate_rps < math.inf:
            raise ValueError("rate_rps must be finite and > 0")
        if requests < 1:
            raise ValueError(f"requests must be >= 1, got {requests}")
        if payloads < 1:
            raise ValueError(f"payloads must be >= 1, got {payloads}")
        self.apps = list(apps)
        self.rate_rps = rate_rps
        self.requests = requests
        self.seed = seed
        self.payloads = payloads

    def prime(self, server: ProgramServer) -> None:
        """Draw every arrival — its gap, app and tenant, in that order —
        and admit them as one column."""
        rng = random.Random(self.seed)
        expo, choice, rate, names, k = (rng.expovariate, rng.choice,
                                        self.rate_rps, self.apps,
                                        self.payloads)
        at: List[float] = []
        apps: List[str] = []
        salts: List[str] = []
        t = 0.0
        for _ in range(self.requests):
            t += expo(rate)
            at.append(t)
            apps.append(choice(names))
            if k > 1:
                salts.append(f"p{rng.randrange(k)}")
        if k > 1:
            payloads = list(map(server.payload_for, apps, salts))
        else:  # one tenant: each app's payload, looked up once
            payload = {app: server.payload_for(app)
                       for app in dict.fromkeys(apps)}
            payloads = list(map(payload.__getitem__, apps))
        server.admit(at, apps, payloads)


class ClosedLoop:
    """``clients`` concurrent clients, one request in flight each,
    ``think_s`` between a response and the next request, ``requests``
    total across all clients."""

    def __init__(self, apps: Sequence[str], clients: int, requests: int,
                 think_s: float = 0.0, seed: int = 0, payloads: int = 1):
        if clients < 1:
            raise ValueError("clients must be >= 1")
        if requests < 1:
            raise ValueError(f"requests must be >= 1, got {requests}")
        if payloads < 1:
            raise ValueError(f"payloads must be >= 1, got {payloads}")
        if not 0.0 <= think_s < math.inf:
            raise ValueError("think_s must be finite and >= 0")
        self.apps = list(apps)
        self.clients = clients
        self.requests = requests
        self.think_s = think_s
        self.seed = seed
        self.payloads = payloads
        self._rng = random.Random(self.seed)
        self._issued = 0

    def _issue(self, server: ProgramServer, client: int, at: float) -> None:
        if self._issued >= self.requests:
            return
        self._issued += 1
        app = self._rng.choice(self.apps)
        salt = (f"p{self._rng.randrange(self.payloads)}"
                if self.payloads > 1 else None)
        server.submit(app, server.payload_for(app, salt), at=at,
                      client=client)

    def prime(self, server: ProgramServer) -> None:
        self._rng = random.Random(self.seed)
        self._issued = 0
        server.on_complete.append(self._on_complete)
        server.on_reject.append(self._on_reject)
        for c in range(min(self.clients, self.requests)):
            self._issue(server, c, at=0.0)

    def _on_complete(self, server: ProgramServer, resp) -> None:
        if resp.request.client >= 0:
            # the hook fires when the *batch* completes; a response of a
            # serialized fallback batch may have finished earlier, and
            # the client cannot answer before it is told
            self._issue(server, resp.request.client,
                        at=max(resp.finish_s + self.think_s, server.now))

    def _on_reject(self, server: ProgramServer, rej) -> None:
        # a refusal is still an answer: the client moves on, so a
        # deadline or shed storm can't stall the closed loop
        if rej.client >= 0:
            self._issue(server, rej.client, at=rej.t_s + self.think_s)


@dataclass
class ServeReport:
    """One simulated serving run, reduced."""

    mode: str
    requests: int
    batches: int
    makespan_s: float
    throughput_rps: float
    latency_mean_s: float
    latency_p50_s: float
    latency_p95_s: float
    latency_p99_s: float
    batch_mean: float
    batch_max: int
    lane_packed_requests: int
    fallbacks: int
    cache: Dict[str, int]
    machine_util: Dict[str, float]
    #: served / (served + rejected); 1.0 when nothing was refused
    availability: float = 1.0
    #: requests the server explicitly refused (see ``rejected_detail``)
    rejected: int = 0
    latencies_s: List[float] = field(default_factory=list)
    #: per-app / per-serving-replica latency summaries (count, mean,
    #: p50/p95/p99) — top-level keys above stay unchanged
    latency_by_app: Dict[str, Dict[str, Any]] = field(default_factory=dict)
    latency_by_machine: Dict[str, Dict[str, Any]] = \
        field(default_factory=dict)
    #: SLO evaluation (``repro.obs.slo.SLOReport.to_json()``), attached
    #: by the CLI when a spec is supplied
    slo: Optional[Dict[str, Any]] = None
    #: exact per-request latency decomposition aggregated per app and
    #: per machine (``repro.obs.analyze.decomposition_summary``) —
    #: present only when the run was traced (request timelines exist)
    decomposition: Optional[Dict[str, Any]] = None
    #: shed/retry/hedge/breaker counts, per-fault attribution and the
    #: typed rejection records — present only when a fault plan or
    #: resilience config was active (plain reports stay byte-identical)
    resilience: Optional[Dict[str, Any]] = None
    #: post-fault SLO recovery evaluation, attached by the CLI's
    #: ``--chaos`` mode
    chaos: Optional[Dict[str, Any]] = None

    def render(self) -> str:
        from ..report.tables import render_table
        rows = [
            ["requests", self.requests],
            ["batches", f"{self.batches} (mean {self.batch_mean:.2f}, "
                        f"max {self.batch_max})"],
            ["lane-packed requests", self.lane_packed_requests],
            ["fallbacks", self.fallbacks],
            ["makespan", f"{self.makespan_s * 1e3:.3f} ms"],
            ["throughput", f"{self.throughput_rps:.1f} req/s"],
            ["latency p50", f"{self.latency_p50_s * 1e3:.3f} ms"],
            ["latency p95", f"{self.latency_p95_s * 1e3:.3f} ms"],
            ["latency p99", f"{self.latency_p99_s * 1e3:.3f} ms"],
            ["program cache", f"{self.cache['hits']} hits / "
                              f"{self.cache['misses']} compiles"],
        ]
        if self.resilience is not None:
            r = self.resilience
            rows.append(["availability",
                         f"{self.availability * 100.0:.2f}% "
                         f"({self.rejected} rejected)"])
            rows.append(["resilience",
                         f"retries {r['retries']}  requeues "
                         f"{r['requeues']}  hedges {r['hedges']}"
                         f" (wasted {r['hedges_wasted']})"])
            if r["fault_counts"]:
                rows.append(["faults",
                             "  ".join(f"{k}={v}" for k, v in
                                       r["fault_counts"].items())])
            if r["degraded"]:
                rows.append(["degraded apps",
                             ", ".join(sorted(r["degraded"]))])
        for name, util in sorted(self.machine_util.items()):
            rows.append([f"util {name}", f"{util * 100.0:.1f}%"])
        for app, st in sorted(self.latency_by_app.items()):
            rows.append([f"latency p95 [{app}]",
                         f"{st['p95_s'] * 1e3:.3f} ms "
                         f"({st['count']} reqs)"])
        if self.slo is not None:
            rows.append(["slo", "ok" if self.slo.get("status") == "ok"
                         else "VIOLATED"])
        if self.decomposition is not None:
            comps = self.decomposition["components"]
            rows.append(["latency split (mean ms)",
                         "  ".join(f"{name[:-2]}="
                                   f"{comps[name]['mean_s'] * 1e3:.3f}"
                                   for name in ("admission_s",
                                                "batch_window_s",
                                                "dispatch_s", "stagger_s",
                                                "execution_s"))])
        return render_table(["metric", "value"], rows,
                            title=f"serving simulation ({self.mode} loop)")

    def to_json(self) -> Dict[str, Any]:
        doc = {k: v for k, v in self.__dict__.items()
               if k not in ("latencies_s", "slo", "decomposition",
                            "resilience", "chaos")}
        # the CI latency-histogram artifact: bucketed counts over the
        # full latency range plus the raw quantiles above
        doc["latency_histogram"] = self.latency_histogram()
        if self.slo is not None:
            doc["slo"] = self.slo
        if self.decomposition is not None:
            doc["decomposition"] = self.decomposition
        if self.resilience is not None:
            doc["resilience"] = self.resilience
        if self.chaos is not None:
            doc["chaos"] = self.chaos
        return doc

    def latency_histogram(self, buckets: int = 20) -> Dict[str, Any]:
        if not self.latencies_s:
            return {"buckets": [], "counts": []}
        import numpy as np
        lats = np.array(self.latencies_s)
        lo, hi = float(lats.min()), float(lats.max())
        width = (hi - lo) / buckets or 1e-12
        # on these non-negative quotients ``astype`` truncates as ``int``
        at = ((lats - lo) / width).astype(np.int64)
        counts = np.bincount(np.minimum(at, buckets - 1), minlength=buckets)
        edges = [lo + i * width for i in range(buckets + 1)]
        return {"buckets": edges, "counts": counts.tolist()}


class ServeSim:
    """Facade: one compiled-program cache, many simulated traffic runs."""

    def __init__(self, apps: Sequence[str], machines: str = "numa",
                 max_batch: int = 8, max_wait_s: float = 0.02,
                 policy: str = "round-robin",
                 backend: Optional[str] = None, payloads: int = 1,
                 metrics: Optional[Any] = None,
                 tracer: Optional[Any] = None,
                 faults: Optional[Any] = None,
                 resilience: Optional[Any] = None):
        self.app_names = list(apps)
        self.served = [ServedApp.from_bundle(a) for a in self.app_names]
        self.payloads = payloads
        self.faults = faults
        #: compile once — every run() below serves from this cache
        self.cache = ProgramCache({a.name: a.factory for a in self.served},
                                  metrics=metrics)
        self.last_server: Optional[ProgramServer] = None
        #: every run's fleet spec and ``ProgramServer`` keywords
        self._machines = machines
        self._server_args = dict(
            max_batch=max_batch, max_wait_s=max_wait_s, policy=policy,
            backend=backend, metrics=metrics, tracer=tracer, cache=self.cache,
            faults=faults, resilience=resilience)

    def run_open(self, rate_rps: float, requests: int,
                 seed: int = 0) -> ServeReport:
        source = OpenLoop(self.app_names, rate_rps, requests, seed=seed,
                          payloads=self.payloads)
        return self._run("open", source, seed)

    def run_closed(self, clients: int, requests: int,
                   think_s: float = 0.0, seed: int = 0) -> ServeReport:
        source = ClosedLoop(self.app_names, clients, requests,
                            think_s=think_s, seed=seed,
                            payloads=self.payloads)
        return self._run("closed", source, seed)

    def _run(self, mode: str, source: Any, seed: int = 0) -> ServeReport:
        # the traffic seed doubles as the trace-identity seed so
        # same-seed runs export byte-identical traces
        self.last_server = server = ProgramServer(
            self.served, make_machines(self._machines), trace_seed=seed,
            **self._server_args)
        return self.report(mode, server, server.run(source))

    @staticmethod
    def report(mode: str, server: ProgramServer,
               responses: List[Any]) -> ServeReport:
        """``responses`` reduced over NumPy columns with the float
        operations of the loop they replaced (DESIGN.md §9): ``finish −
        arrival`` elementwise, means a Python ``sum`` in sorted order."""
        import numpy as np
        n = len(responses)

        def column(attr: str, dtype: Any = float) -> Any:
            return np.fromiter(map(attrgetter(attr), responses), dtype, n)
        finish = column("finish_s")
        lat = finish - column("request.arrival_s")  # ``r.latency_s``
        makespan = float(finish.max(initial=0.0))
        # a batch is one app on one machine, lane-packed or not: its first
        # response speaks for all of them
        _, first, batch = np.unique(column("batch_id", np.int64),
                                    return_index=True, return_inverse=True)
        heads = [responses[i] for i in first.tolist()]
        batch_sizes = [h.batch_size for h in heads]
        packed = np.array([h.lane_packed for h in heads], dtype=bool)
        lats = np.sort(lat).tolist()
        rejected = server.rejected
        total = len(responses) + len(rejected)
        resilience = server.resilience_summary()
        if resilience is not None:
            resilience["rejected_detail"] = [j.to_json() for j in rejected]
        return ServeReport(
            mode=mode,
            requests=len(responses),
            batches=len(batch_sizes),
            makespan_s=makespan,
            throughput_rps=(len(responses) / makespan) if makespan else 0.0,
            latency_mean_s=(sum(lats) / len(lats)) if lats else 0.0,
            latency_p50_s=quantile(lats, 0.50),
            latency_p95_s=quantile(lats, 0.95),
            latency_p99_s=quantile(lats, 0.99),
            batch_mean=(sum(batch_sizes) / len(batch_sizes))
                       if batch_sizes else 0.0,
            batch_max=max(batch_sizes, default=0),
            lane_packed_requests=int(np.count_nonzero(packed[batch])),
            # batches served on the reference path (a failed capture's own
            # record carries no requests)
            fallbacks=sum(1 for f in server.fallbacks if f.requests),
            availability=(len(responses) / total) if total else 1.0,
            rejected=len(rejected),
            cache=server.cache.stats(),
            machine_util={
                f"{m.name}[{m.index}]":
                    (m.busy_s / makespan) if makespan else 0.0
                for m in server.machines},
            latencies_s=lats,
            latency_by_app=latency_breakdown(
                lat, batch, [h.request.app for h in heads]),
            latency_by_machine=latency_breakdown(
                lat, batch, [h.machine or "?" for h in heads]),
            # ``None`` untraced: only a traced run keeps a record
            decomposition=decomposition_summary(server),
            resilience=resilience)
