"""A traced serving run leaves a record, and its spans are a derivation
from it (DESIGN.md §10).

The contracts a lazy derivation could quietly break:

- **views do not depend on who looked first** — Chrome trace, flame graph
  and latency decomposition are the same whether an exporter or
  ``tracer.last_run`` read the run first, under any fault plan and
  resilience config;
- **nothing is built that nobody reads** — a run holds its run row only;
  the first reader derives the rest, once;
- **the record is rows** — a tracer that outlives its server does not keep
  the server alive, and an untraced server keeps no record at all.
"""

import gc
import json
import weakref
from collections import Counter
from types import SimpleNamespace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.obs import (MetricsRegistry, Tracer, chrome_trace_events,
                       prometheus_text, render_collapsed, render_spans)
from repro.obs.analyze import (COMPONENTS, decompose_timeline,
                                decomposition_summary, request_decomposition)
from repro.obs.spans import RequestContext, RequestTimeline, ServeRecord
from repro.serve import (BreakerConfig, ClosedLoop, FaultPlan, FaultSpec,
                         OpenLoop, ProgramServer, ResilienceConfig,
                         RetryPolicy, ServedApp, ServeSim, make_machines)

from . import obs_reference as ref
from .test_serve import SERVICE
from .test_serve_pins import chaos_run


def stub_server(tracer=None, faults=None, resilience=None, seed=0,
                machines="numa*2", max_batch=4, max_wait_s=0.002):
    """A ``ProgramServer`` over apps a/b/c whose executions are stubbed
    out (every batch costs its ``SERVICE`` entry): the scheduler, fault
    and resilience paths for real, no compile behind them."""
    server = ProgramServer(
        [ServedApp(app, None, {}) for app in "abc"], make_machines(machines),
        max_batch=max_batch, max_wait_s=max_wait_s, backend="numpy",
        tracer=tracer, trace_seed=seed, faults=faults, resilience=resilience)
    capture = SimpleNamespace(results=(), stats=None, backend="numpy")
    server._captured = lambda app, variant, payload, backend: capture
    server._price = lambda m, app, cap, payload: SimpleNamespace(
        total_seconds=SERVICE[app, m.index], loops=())
    return server


def views(tracer, server):
    """Every view of a run, serialised with attr order intact."""
    return (json.dumps(chrome_trace_events(tracer)),
            render_collapsed(tracer),
            json.dumps(decomposition_summary(server)))


def tree(tracer):
    return list(tracer.last_run.rows())


def exact(tl):
    """``tl`` decomposes exactly, or lacks a bounding mark."""
    comps = decompose_timeline(tl)
    return comps is None or \
        sum(comps[c] for c in COMPONENTS) == comps["latency_s"]


def check_timelines(server):
    """Every rid's timelines, read through the public views, against its
    request and response: a served rid's marks are theirs, its attempts
    are numbered 0..k with one ``served``, and every timeline decomposes
    exactly. The record keeps a row per attempt but the served ones."""
    served = {r.request.rid: r for r in server.responses}
    for rid in range(server._rid):
        attempts = server.attempt_timelines_of(rid)
        assert [a for a, _, _ in attempts] == list(range(len(attempts)))
        statuses = [status for _, status, _ in attempts]
        tl = server.timeline_of(rid)
        resp = served.get(rid)
        if resp is None:
            assert "served" not in statuses and tl == attempts[0][2]
        else:
            req = resp.request
            assert statuses.count("served") == 1
            assert statuses.index("served") == req.attempt
            assert tl.marks == {
                "arrive": req.arrival_s, "enqueue": req.enqueue_s,
                "seal": resp.start_s, "dispatch": resp.start_s,
                "exec_start": resp.exec_start_s, "complete": resp.finish_s}
            assert exact(tl) and decompose_timeline(tl)["latency_s"] == \
                resp.latency_s
        assert all(exact(atl) for _, _, atl in attempts)
    spawned = server.retries + server.requeues + server.hedges_launched
    assert sum(map(len, server.record.attempts.values())) == \
        server._rid + spawned - len(server.responses)


def check_views_do_not_depend_on_order(run):
    """``run()`` → (tracer, server) of a finished traced run."""
    tracer, server = run()
    lazy = views(tracer, server)
    spans = tree(tracer)
    assert views(tracer, server) == lazy
    assert render_spans(tracer.last_run).count("\n") + 1 == len(spans)
    # the same run, its table read before any export
    tracer2, server2 = run()
    assert tree(tracer2) == spans
    assert views(tracer2, server2) == lazy
    check_timelines(server)
    return tracer, server


class TestDecompositionTies:
    """A stage sum whose part below the latency's ulp is exactly half of
    it: round-half-even lets ``acc + execution`` reach only every other
    float, so nudging the remainder alone never lands on the latency. The
    components still sum to it bit for bit."""

    def test_a_first_attempt_with_latency_0_0024518528881316997_s(self):
        seal = 0.001405219558667714
        tl = RequestTimeline(None, {
            "arrive": 0.001, "enqueue": 0.001, "seal": seal,
            "dispatch": seal, "exec_start": seal,
            "complete": 0.0034518528881316997})
        comps = decompose_timeline(tl)
        assert comps["latency_s"] == 0.0024518528881316997
        assert sum(comps[c] for c in COMPONENTS) == comps["latency_s"]
        assert comps["batch_window_s"] != seal - 0.001  # moved one ulp

    def test_seed_5384_columns_agree_with_the_oracle(self):
        server = stub_server(Tracer(), FaultPlan((), seed=5384),
                             ResilienceConfig(), 5384, max_batch=2)
        server.run(OpenLoop("abc", 4000.0, 8, seed=5384))
        rows = request_decomposition(server)
        assert json.dumps(rows) == json.dumps(
            ref.request_decomposition(server))
        assert all(sum(r[c] for c in COMPONENTS) == r["latency_s"]
                   for r in rows)


machine_targets = st.sampled_from(["numa", "numa[0]", "numa[1]", "*"])
windows = st.tuples(st.floats(0.0, 0.03), st.floats(0.0005, 0.03))
fault_specs = st.one_of(
    st.builds(lambda target, mode, rate: FaultSpec(
        "kernel", target, mode=mode, rate=rate),
        st.sampled_from(["*", "a", "b"]),
        st.sampled_from(["error", "fallback"]), st.floats(0.0, 0.6)),
    st.builds(lambda target, w: FaultSpec("crash", target, w[0], w[0] + w[1]),
              machine_targets, windows),
    st.builds(lambda target, w, factor: FaultSpec(
        "slow", target, w[0], w[0] + w[1], factor=factor),
        machine_targets, windows, st.floats(1.5, 4.0)),
    st.builds(lambda target, t: FaultSpec("cache", target, t),
              st.sampled_from(["*", "a"]), st.floats(0.0, 0.05)))
resiliences = st.builds(
    ResilienceConfig,
    deadline_s=st.one_of(st.none(), st.floats(0.003, 0.05)),
    retry=st.one_of(st.none(), st.builds(
        RetryPolicy, max_attempts=st.integers(1, 4),
        budget=st.integers(0, 40))),
    hedge_delay_s=st.one_of(st.none(), st.floats(0.0003, 0.004)),
    shed_depth=st.one_of(st.none(), st.integers(1, 6)),
    breaker=st.one_of(st.none(), st.just(BreakerConfig())),
    degrade_after=st.integers(1, 6))


class TestViewsDoNotDependOnWhoLookedFirst:
    @settings(max_examples=100, deadline=None)
    # a rounding tie: request 6's stage sum lies half an ulp of its
    # latency off every float, so nudging the remainder alone never lands
    @example(specs=[], resilience=ResilienceConfig(), seed=5384,
             closed=False, requests=8, clients=1, rate=4000.0, max_batch=2)
    @given(specs=st.lists(fault_specs, max_size=4), resilience=resiliences,
           seed=st.integers(0, 2 ** 16), closed=st.booleans(),
           requests=st.integers(1, 60), clients=st.integers(1, 12),
           rate=st.floats(200.0, 4000.0), max_batch=st.integers(1, 6))
    def test_under_any_fault_plan(self, specs, resilience, seed, closed,
                                  requests, clients, rate, max_batch):
        def run():
            tracer = Tracer()
            server = stub_server(tracer, FaultPlan(tuple(specs), seed=seed),
                                 resilience, seed, max_batch=max_batch)
            server.run(ClosedLoop("abc", clients, requests, seed=seed)
                       if closed else OpenLoop("abc", rate, requests,
                                               seed=seed))
            assert len(server.responses) + len(server.rejected) == requests
            return tracer, server
        check_views_do_not_depend_on_order(run)

    def run_of(self, faults, resilience, clients=8, requests=60, seed=3):
        def run():
            tracer = Tracer()
            server = stub_server(tracer, FaultPlan(tuple(faults), seed=seed),
                                 resilience, seed)
            server.run(ClosedLoop("abc", clients, requests, seed=seed))
            return tracer, server
        return check_views_do_not_depend_on_order(run)

    def test_with_rejections(self):
        _, server = self.run_of([], ResilienceConfig(shed_depth=1),
                                clients=12)
        assert server.rejected and server.responses

    def test_with_wasted_hedges(self):
        _, server = self.run_of([], ResilienceConfig(hedge_delay_s=0.0004))
        assert server.hedges_wasted > 0

    def test_with_a_crash_under_a_running_fallback_batch(self):
        # every batch runs serialized on the reference path, so its
        # requests carry staggered marks beyond the crash instant
        tracer, server = self.run_of(
            [FaultSpec("kernel", "*", mode="fallback", rate=1.0),
             FaultSpec("crash", "numa[0]", 0.0125, 0.02)],
            ResilienceConfig(retry=RetryPolicy()))
        assert server.fault_counts["cancelled-batches"] == 1
        cut = [tl for rid in range(server._rid)
               for _, status, tl in server.attempt_timelines_of(rid)
               if status == "requeued"]
        assert cut and all(max(tl.marks.values()) == 0.0125 for tl in cut)
        run = tracer.last_run
        cancelled = [i for i, a in enumerate(run.attrs) if a.get("cancelled")]
        assert len(cancelled) == 1
        assert run.start_s[cancelled[0]] + run.dur_s[cancelled[0]] == 0.0125

    def test_with_a_winning_later_attempt(self):
        tracer, server = self.run_of(
            [FaultSpec("kernel", "*", mode="error", rate=0.3)],
            ResilienceConfig(retry=RetryPolicy(max_attempts=4)))
        later = [r for r in server.responses if r.request.attempt > 0]
        assert later
        attrs = dict(zip(tracer.last_run.name, tracer.last_run.attrs))
        for r in later:
            rid = r.request.rid
            assert attrs[f"r{rid}:{r.request.app}"]["attempts"] == \
                r.request.attempt + 1
            assert attrs[f"r{rid}:a{r.request.attempt}"]["status"] == \
                "served"

    def test_on_the_real_chaos_scenario(self):
        # priced loops under the batch spans, which the stub has none of
        def run():
            server, tracer, _ = chaos_run(2, 120, (0.04, 0.08), (0.1, 0.15))
            return tracer, server
        tracer, _ = check_views_do_not_depend_on_order(run)
        assert "loop" in tracer.last_run.kind


def with_every_rid_kept(server):
    """``server`` keeping what the scheduler kept before its attempt
    ledger: an entry for every rid from its admission on, and beside the
    in-flight batches the set of rids with an attempt executing, which
    must give the in-flight batches' answer at each hedge timer."""
    ledger = server._attempts
    executing = set()
    admit, execute, fail, crash, complete, hedge = (
        server.admit, server._execute_batch, server._fail_batch,
        server._on_crash, server._on_complete_event, server._on_hedge)

    def on_admit(at, apps, payloads, client=-1):
        reqs = admit(at, apps, payloads, client)
        for r in reqs:
            ledger[r.rid] = [1, 1, False]
        return reqs

    def on_execute(machine, requests, now):
        executing.update(r.rid for r in requests)
        execute(machine, requests, now)

    def on_fail(machine, requests, now, bid, reason):
        executing.difference_update(r.rid for r in requests)
        fail(machine, requests, now, bid, reason)

    def on_crash(idx, t):
        placed = [b for b, inf in server._inflight.items()
                  if inf["machine"] == idx]
        if placed:
            executing.difference_update(
                r.request.rid
                for r in server._inflight[max(placed)]["responses"])
        crash(idx, t)

    def on_complete(bid, t):
        if bid in server._inflight:  # not cancelled
            executing.difference_update(
                r.request.rid for r in server._inflight[bid]["responses"])
        complete(bid, t)

    def on_hedge(req, t):
        inflight = any(r.request.rid == req.rid
                       for inf in server._inflight.values()
                       for r in inf["responses"])
        assert inflight == (req.rid in executing
                            and not ledger.ended(req.rid))
        hedge(req, t)
    (server.admit, server._execute_batch, server._fail_batch,
     server._on_crash, server._on_complete_event, server._on_hedge) = (
        on_admit, on_execute, on_fail, on_crash, on_complete, on_hedge)
    return server


def outcome(server):
    return ([(r.request.rid, r.request.attempt, r.batch_id, r.machine,
              r.start_s, r.finish_s) for r in server.responses],
            [j.to_json() for j in server.rejected],
            (server.retries, server.requeues, server.hedges_launched,
             server.hedges_wasted, server.fault_counts))


class TestAttemptBookkeeping:
    @settings(max_examples=100, deadline=None)
    @given(specs=st.lists(fault_specs, max_size=4), resilience=resiliences,
           seed=st.integers(0, 2 ** 16), closed=st.booleans(),
           requests=st.integers(1, 60), clients=st.integers(1, 12),
           rate=st.floats(200.0, 4000.0), max_batch=st.integers(1, 6))
    def test_first_attempts_need_none(self, specs, resilience, seed, closed,
                                      requests, clients, rate, max_batch):
        def run(keep_every_rid):
            server = stub_server(None, FaultPlan(tuple(specs), seed=seed),
                                 resilience, seed, max_batch=max_batch)
            if keep_every_rid:
                with_every_rid_kept(server)
            server.run(ClosedLoop("abc", clients, requests, seed=seed)
                       if closed else OpenLoop("abc", rate, requests,
                                               seed=seed))
            return server
        server = run(False)
        # every rid issued ends exactly once: served xor rejected, and a
        # closed loop issues all of its requests
        ended = ([r.request.rid for r in server.responses]
                 + [j.rid for j in server.rejected])
        assert sorted(ended) == list(range(server._rid))
        assert server._rid == requests
        # and exactly as it ended when every rid had bookkeeping
        assert outcome(server) == outcome(run(True))
        # the ledger holds the rids that had a second attempt, no others
        later = {r.request.rid for r in server.responses if r.request.attempt}
        assert later <= set(server._attempts)
        assert len(server._attempts) <= (server.retries + server.requeues
                                         + server.hedges_launched)


class TestTheLoopEndsEveryRequest:
    def test_a_breaker_tripped_by_a_success_wakes_up(self):
        # crash, crash, ok, ok at threshold 0.5: the second success trips
        # the breaker, and without a wake-up the client's next request
        # stranded in the queue until shutdown (5 served, 1 refused, the
        # sixth never issued)
        crash = FaultSpec("crash", "numa", 0.0, 0.015625)
        server = stub_server(faults=FaultPlan((crash, crash)),
                             resilience=ResilienceConfig(
                                 breaker=BreakerConfig()),
                             max_batch=1)
        server.run(ClosedLoop("abc", 1, 6, seed=0))
        assert len(server.responses) == 6 and server.rejected == []
        assert server.events_by_kind["breaker"] == 2

    def test_requests_left_queued_are_refused_with_hooks_on(self):
        # replicas down for good: each refusal at shutdown is an answer,
        # and the client's next request is issued and refused in turn
        server = stub_server(
            faults=FaultPlan((FaultSpec("crash", "numa", 0.0),)))
        server.run(ClosedLoop("abc", 3, 10, seed=0))
        assert server.responses == [] and len(server.rejected) == 10
        assert {j.reason for j in server.rejected} == {"unserved-at-shutdown"}


@pytest.fixture
def derivations(monkeypatch):
    """``ServeRecord.table`` calls from here on."""
    calls = []
    table = ServeRecord.table

    def counting(self, run):
        calls.append(self)
        table(self, run)
    monkeypatch.setattr(ServeRecord, "table", counting)
    return calls


class TestNothingIsBuiltThatNobodyReads:
    def test_a_run_and_its_exports_build_the_run_span_only(self, derivations):
        registry = MetricsRegistry()
        server, tracer, report = chaos_run(0, 300, (0.04, 0.08), (0.1, 0.15),
                                           registry)
        assert report.decomposition["requests"] == 300
        prometheus_text(registry)
        (run,) = tracer._runs
        assert run.kind == ["run"] and derivations == []
        # the rows, when read: what the eager emitters used to build
        # inside ``run`` (counted on the commit before the derivation)
        chrome_trace_events(tracer)
        assert Counter(run.kind) == {
            "run": 1, "batch": 78, "loop": 177, "fault": 2, "request": 300,
            "queue": 300, "exec": 300, "attempt": 22}
        render_collapsed(tracer), tracer.runs, tracer.last_run
        chrome_trace_events(tracer)
        assert len(run.kind) == 1180 and len(derivations) == 1  # built once

    def test_a_run_without_second_attempts_builds_no_timeline(
            self, monkeypatch):
        # a request is its response: nothing per request is built inside
        # ``run``, and reading the run derives one trace id per request
        built = Counter()
        for cls in (RequestContext, RequestTimeline):
            def counting(self, *args, _init=cls.__init__,
                         _name=cls.__name__, **kwargs):
                built[_name] += 1
                _init(self, *args, **kwargs)
            monkeypatch.setattr(cls, "__init__", counting)
        tracer = Tracer()
        server = stub_server(tracer)
        server.run(OpenLoop("abc", 2000.0, 300, seed=0))
        assert built == {} and server.record.attempts == {}
        chrome_trace_events(tracer)
        assert built == {"RequestContext": 300}

    def test_derived_attrs_are_scalars(self):
        _, tracer, _ = chaos_run(1, 120, (0.04, 0.08), (0.1, 0.15))
        rows = list(tracer.last_run.rows())
        assert len(rows) > 400
        for _depth, _name, _kind, start_s, dur_s, attrs in rows:
            assert type(start_s) is float and type(dur_s) is float
            assert all(type(v) in (str, int, float, bool, type(None))
                       for v in attrs.values())
            assert ref.clean_args(attrs) == attrs


class TestTheRecordIsRows:
    def test_a_tracer_does_not_keep_its_server_alive(self):
        tracer = Tracer()
        server = stub_server(
            tracer, FaultPlan((FaultSpec("crash", "numa[1]", 0.01, 0.02),)),
            ResilienceConfig(retry=RetryPolicy(), hedge_delay_s=0.002))
        server.run(ClosedLoop("abc", 6, 40, seed=0))
        gone = weakref.ref(server)
        machine = weakref.ref(server.machines[0])
        del server
        gc.collect()
        assert gone() is None and machine() is None
        events = chrome_trace_events(tracer)
        assert sum(e.get("cat") == "request" for e in events) == 40
        assert len(tracer.last_run.name) > 80

    def test_clear_forgets_the_deferred_run_too(self):
        tracer = Tracer()
        sim = ServeSim(["q1"], backend="numpy", tracer=tracer)
        sim.run_closed(clients=3, requests=9, seed=1)
        tracer.clear()
        assert tracer.runs == [] and tracer.last_run is None
        assert all(e["ph"] == "M" for e in chrome_trace_events(tracer))
        sim.run_closed(clients=2, requests=6, seed=2)
        only = Tracer()
        ServeSim(["q1"], backend="numpy", tracer=only).run_closed(
            clients=2, requests=6, seed=2)
        assert chrome_trace_events(tracer) == chrome_trace_events(only)
        assert render_collapsed(tracer) == render_collapsed(only)
        assert len(tracer.runs) == 1

    def test_an_untraced_run_keeps_no_record(self):
        server = stub_server(resilience=ResilienceConfig(
            retry=RetryPolicy(), hedge_delay_s=0.0004))
        responses = server.run(ClosedLoop("abc", 4, 20, seed=0))
        assert server.record is None
        assert server.timeline_of(0) is None
        assert server.attempt_timelines_of(0) == []
        report = ServeSim.report("closed", server, responses)
        assert report.decomposition is None
