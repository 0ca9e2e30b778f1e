"""Chaos-ready serving (DESIGN.md §13): deterministic fault injection
and the resilience stack that absorbs it.

The load-bearing contracts:

- **determinism** — a fixed ``(seed, FaultPlan)`` reproduces the serve
  report and the Chrome trace byte-for-byte, and an *empty* plan is
  bit-identical to no plan at all;
- **zero lost requests** — under any scripted outage every submitted
  request ends as exactly one ``Response`` or one typed ``Rejected``;
- **exact accounting survives chaos** — per-attempt latency
  decompositions sum bit-exactly (tolerance 0.0) even for requests that
  were retried, hedged, or re-enqueued off a crashed replica.
"""

import json
import math
import pathlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import tools
from repro.obs import Tracer, chrome_trace_events, evaluate_slo
from repro.obs.analyze import COMPONENTS, decompose_timeline
from repro.obs.check import validate_file
from repro.obs.provenance import DecisionKind
from repro.obs.slo import SLOSpec
from repro.serve import (BreakerConfig, CircuitBreaker, FaultPlan,
                         FaultSpec, Rejected, ResilienceConfig, RetryPolicy,
                         ServeSim, derive_unit)
from repro.serve.resilience import (CLOSED, HALF_OPEN, OPEN, REJECT_DEADLINE,
                                    REJECT_SHED)

from .test_serve_pins import chaos_run

REPO = pathlib.Path(__file__).parent.parent
PLAN_PATH = REPO / "examples" / "faults_outage.json"

#: any JSON value ``json.load`` returns, NaN and infinities included
json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats()
    | st.text(max_size=6) | st.sampled_from(
        ["crash", "slow", "kernel", "cache", "*", "numa", "error", "0.5"]),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=10)
#: the values a well-formed spec holds, so that some documents parse
plausible = st.floats(0.0, 2.0) | st.sampled_from(
    ["crash", "slow", "kernel", "cache", "numa", "latency", "availability"])


def specs_of(schema):
    """Any JSON value, or an object over ``schema``'s keys whose values
    are any JSON, or for a key naming fields, a list of objects over
    those fields (the first two always present): documents that reach
    every field of a spec parser."""
    def field(items):
        if not items:
            return json_values
        value = json_values | plausible
        row = st.fixed_dictionaries(dict.fromkeys(items[:2], value),
                                    optional=dict.fromkeys(items[2:], value))
        return json_values | st.lists(row | json_values, max_size=3)
    return json_values | st.fixed_dictionaries({}, optional={
        key: field(items) for key, items in schema.items()})


def outage_sim(app="kmeans", tracer=None, requests=24, faults="plan"):
    """The scripted outage the CI chaos leg replays: transient hard
    kernel faults, one replica crash, one slow replica."""
    plan = FaultPlan.load(str(PLAN_PATH)) if faults == "plan" else faults
    res = ResilienceConfig(deadline_s=2.0,
                           retry=RetryPolicy(max_attempts=3),
                           hedge_delay_s=0.03, shed_depth=64,
                           breaker=BreakerConfig())
    sim = ServeSim([app], machines="numa*2", max_batch=4, max_wait_s=0.02,
                   backend="numpy", faults=plan, resilience=res,
                   tracer=tracer)
    rep = sim.run_closed(clients=6, requests=requests, seed=1)
    return sim, rep


# ---------------------------------------------------------------------------
# fault plan: typed specs, seeded draws, JSON round-trip
# ---------------------------------------------------------------------------

class TestFaultPlan:
    def test_example_plan_loads(self):
        plan = FaultPlan.load(str(PLAN_PATH))
        assert plan and len(plan.specs) == 3

    def test_empty_plan_is_falsy(self):
        assert not FaultPlan()
        assert FaultPlan((FaultSpec("crash", "numa[0]"),))

    @pytest.mark.parametrize("bad", [
        dict(kind="meteor", target="*"),
        dict(kind="crash", target=""),
        dict(kind="crash", target="numa[0]", t0_s=-1.0),
        dict(kind="crash", target="numa[0]", t0_s=2.0, t1_s=1.0),
        dict(kind="slow", target="numa[0]", factor=0.0),
        dict(kind="kernel", target="*", mode="explode"),
        dict(kind="kernel", target="*", rate=1.5),
    ])
    def test_spec_validation(self, bad):
        with pytest.raises(ValueError):
            FaultSpec(**bad)

    def test_json_rejects_unknown_keys(self):
        with pytest.raises(ValueError, match="unknown fault-plan keys"):
            FaultPlan.from_json({"faults": [], "chaos_level": 11})
        with pytest.raises(ValueError, match="unknown keys"):
            FaultPlan.from_json(
                {"faults": [{"kind": "crash", "target": "*", "blast": 1}]})

    def test_window_units(self):
        plan = FaultPlan.from_json({"faults": [
            {"kind": "crash", "target": "m", "t0_ms": 2, "t1_ms": 12}]})
        assert plan.specs[0].t0_s == pytest.approx(0.002)
        assert plan.specs[0].t1_s == pytest.approx(0.012)
        with pytest.raises(ValueError, match="both t0_s and t0_ms"):
            FaultPlan.from_json({"faults": [
                {"kind": "crash", "target": "m", "t0_s": 1, "t0_ms": 1000}]})
        # omitted t1 leaves the fault active forever
        plan = FaultPlan.from_json(
            {"faults": [{"kind": "slow", "target": "m", "factor": 2.0}]})
        assert math.isinf(plan.specs[0].t1_s)

    @pytest.mark.parametrize("doc, field", [
        ({"faults": 5}, "faults"),
        ({"faults": None}, "faults"),
        ({"seed": None}, "seed"),
        ({"seed": 1.5}, "seed"),
        ({"faults": [{"kind": "crash", "target": 5}]}, "target"),
        ({"faults": [{"kind": "crash", "target": "m", "t0_s": math.nan}]},
         "t0_s"),
        ({"faults": [{"kind": "crash", "target": "m", "t1_s": math.nan}]},
         "t1_s"),
        ({"faults": [{"kind": "crash", "target": "m", "t0_s": math.inf}]},
         "t0_s"),
    ] + [({"faults": [{"kind": "slow", "target": "m", key: value}]}, key)
         for key in ("factor", "rate", "t0_ms") for value in (None, [1])] + [
        ({"faults": [{"kind": "slow", "target": "m", "factor": value}]},
         "factor") for value in (math.nan, math.inf, 0.0)])
    def test_malformed_fields_are_named(self, doc, field):
        with pytest.raises(ValueError, match=field):
            FaultPlan.from_json(doc)

    @settings(max_examples=300, deadline=None)
    @given(plan=specs_of({"seed": (), "faults": ("kind", "target", "t0_s",
                          "t1_s", "t0_ms", "t1_ms", "factor", "mode",
                          "rate")}),
           slo=specs_of({"name": (), "window_s": (), "objectives": (
               "kind", "target", "name", "threshold_ms", "threshold_s")}))
    def test_any_json_returns_or_raises_value_error(self, plan, slo):
        try:
            specs = FaultPlan.from_json(plan).specs
        except ValueError:
            specs = ()
        for s in specs:
            assert isinstance(s.target, str) and 0 <= s.t0_s <= s.t1_s
            assert s.t0_s < math.inf and 0 < s.factor < math.inf
        try:
            SLOSpec.from_json(slo)
        except ValueError:
            pass

    def test_derive_unit_deterministic_and_uniform_range(self):
        a = derive_unit(7, "kernel", "kmeans", 3)
        assert a == derive_unit(7, "kernel", "kmeans", 3)
        assert 0.0 <= a < 1.0
        assert a != derive_unit(7, "kernel", "kmeans", 4)
        assert a != derive_unit(8, "kernel", "kmeans", 3)

    def test_kernel_fault_draw_is_seeded(self):
        spec = FaultSpec("kernel", "q1", t1_s=1.0, mode="error", rate=0.5)
        plan = FaultPlan((spec,), seed=3)
        hits = [plan.kernel_fault("q1", 0.5, a) is not None
                for a in range(32)]
        assert hits == [plan.kernel_fault("q1", 0.5, a) is not None
                        for a in range(32)]
        assert any(hits) and not all(hits)
        assert plan.kernel_fault("kmeans", 0.5, 0) is None  # other app
        assert plan.kernel_fault("q1", 2.0, 0) is None      # window over

    def test_machine_windows_and_slow_factor(self):
        plan = FaultPlan((
            FaultSpec("crash", "numa[1]", t0_s=0.01, t1_s=0.02),
            FaultSpec("slow", "numa", t0_s=0.0, t1_s=1.0, factor=2.0),
            FaultSpec("slow", "numa[0]", t0_s=0.0, t1_s=1.0, factor=3.0),
        ))
        assert plan.crash_windows("numa[1]", "numa") == [(0.01, 0.02)]
        assert plan.crash_windows("numa[0]", "numa") == []
        assert plan.slow_factor("numa[0]", "numa", 0.5) == 6.0
        assert plan.slow_factor("numa[1]", "numa", 0.5) == 2.0
        assert plan.slow_factor("numa[1]", "numa", 2.0) == 1.0

    def test_last_disruption_prefers_finite_ends(self):
        plan = FaultPlan((
            FaultSpec("crash", "m", t0_s=0.01, t1_s=0.03),
            FaultSpec("kernel", "a", t0_s=0.05),  # open-ended
        ))
        assert plan.last_disruption_s() == 0.05
        assert FaultPlan().last_disruption_s() == 0.0


# ---------------------------------------------------------------------------
# resilience primitives
# ---------------------------------------------------------------------------

class TestRetryPolicy:
    def test_delays_grow_and_are_seeded(self):
        pol = RetryPolicy(max_attempts=4)
        d1 = pol.delay_s(0, 5, 1)
        d2 = pol.delay_s(0, 5, 2)
        d3 = pol.delay_s(0, 5, 3)
        assert d1 == pol.delay_s(0, 5, 1)           # deterministic
        assert 0.0005 <= d1 <= 0.0015               # within jitter band
        assert d2 > d1 and d3 > d2                  # exponential growth
        assert pol.delay_s(1, 5, 1) != d1           # seed moves the draw

    @pytest.mark.parametrize("bad", [
        dict(max_attempts=0), dict(budget=-1),
    ])
    def test_validation(self, bad):
        with pytest.raises(ValueError):
            RetryPolicy(**bad)


class TestCircuitBreaker:
    def test_state_machine(self):
        cfg = BreakerConfig()
        cool = cfg.COOLDOWN_S
        br = CircuitBreaker()
        assert br.state == CLOSED and br.allow(0.0)
        # MIN_EVENTS outcomes whose failure rate just reaches THRESHOLD
        failures = math.ceil(cfg.THRESHOLD * cfg.MIN_EVENTS)
        outcomes = [True] * (cfg.MIN_EVENTS - failures) + [False] * failures
        for i, ok in enumerate(outcomes[:-1]):
            br.record(i * 1e-4, ok)
        assert br.state == CLOSED
        t = cfg.MIN_EVENTS * 1e-4
        br.record(t, outcomes[-1])
        assert br.state == OPEN and br.trips == 1
        assert not br.allow(t + cool / 2)           # cooling down
        t += cool
        assert br.allow(t)                          # cooled: probe allowed
        br.on_dispatch(t)
        assert br.state == HALF_OPEN
        assert not br.allow(t + 1e-4)               # one probe at a time
        t += 2e-4
        br.record(t, False)                         # probe failed
        assert br.state == OPEN and br.trips == 2
        assert not br.allow(t + cool / 2)
        t += cool
        assert br.allow(t)
        br.on_dispatch(t)
        br.record(t + 1e-4, True)                   # probe succeeded
        assert br.state == CLOSED and br.allow(t + 2e-4)

    def test_closed_needs_min_events(self):
        br = CircuitBreaker()
        for t in range(BreakerConfig.MIN_EVENTS - 1):
            br.record(t * 0.001, False)
        assert br.state == CLOSED                   # not enough evidence


class TestResilienceConfig:
    @pytest.mark.parametrize("bad", [
        dict(deadline_s=0.0), dict(hedge_delay_s=-0.1),
        dict(shed_depth=0), dict(degrade_after=0),
        dict(deadline_s=math.nan), dict(deadline_s=math.inf),
        dict(hedge_delay_s=math.nan), dict(hedge_delay_s=math.inf),
    ])
    def test_validation(self, bad):
        with pytest.raises(ValueError):
            ResilienceConfig(**bad)

    @pytest.mark.parametrize("bad", [
        lambda v: ResilienceConfig(deadline_s=v),
        lambda v: ResilienceConfig(hedge_delay_s=v)])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -1.0])
    def test_nan_and_inf_fail_the_policy_checks(self, bad, value):
        with pytest.raises(ValueError, match="finite"):
            bad(value)


class TestInflightRecords:
    def test_a_completion_keeps_the_record_of_the_batch_placed_after_it(self):
        # seed 8 of the benchmark-size chaos run places b59 on numa[1] at
        # 0.135113, the instant the batch before it there completes and
        # before that batch's ``complete`` event pops; when that event
        # erased b59's record, the crash below missed b59 and its four
        # responses were served through the outage
        crash = (0.136411, 0.186411)
        server, _, report = chaos_run(8, 2000, crash, (0.8, 1.0))
        (b59,) = [b for b in server.record.batches
                  if b.name.startswith("b59:")]
        assert b59.attrs["machine"] == 1 and b59.start_s < crash[0]
        assert b59.attrs["cancelled"] and b59.dur_s == crash[0] - b59.start_s
        assert report.resilience["fault_counts"]["cancelled-batches"] == 1
        requeued = sorted(rid for rid in range(2000)
                          for _, status, _ in server.attempt_timelines_of(rid)
                          if status == "requeued")
        assert len(requeued) == 4 == report.resilience["requeues"]
        served = {r.request.rid: r for r in server.responses}
        assert all(served[rid].batch_id != 59 and served[rid].request.attempt
                   for rid in requeued)
        assert not [r for r in server.responses if r.machine == "numa[1]"
                    and r.start_s < crash[0] < r.finish_s]


# ---------------------------------------------------------------------------
# the scripted outage, end to end
# ---------------------------------------------------------------------------

class TestOutageEndToEnd:
    def test_zero_lost_requests_and_chaos_fired(self):
        sim, rep = outage_sim()
        server = sim.last_server
        served = {r.request.rid for r in server.responses}
        rejected = {j.rid for j in server.rejected}
        assert not served & rejected
        assert len(served) + len(rejected) == 24
        summary = server.resilience_summary()
        # the plan actually bit: kernel faults retried, a replica
        # crashed, a slow window stretched batches
        assert summary["fault_counts"].get("kernel-error", 0) >= 1
        assert summary["fault_counts"].get("crash", 0) == 1
        assert summary["retries"] >= 1
        assert rep.availability == 1.0 and rep.rejected == 0
        assert rep.resilience is not None

    def test_same_seed_byte_identical_report_and_trace(self):
        a = outage_sim()[1].to_json()
        b = outage_sim()[1].to_json()
        assert json.dumps(a, sort_keys=True, default=str) == \
            json.dumps(b, sort_keys=True, default=str)
        ta = chrome_trace_events(
            outage_sim(tracer=Tracer())[0].last_server.tracer)
        tb = chrome_trace_events(
            outage_sim(tracer=Tracer())[0].last_server.tracer)
        assert json.dumps(ta, sort_keys=True) == json.dumps(tb, sort_keys=True)

    def test_empty_plan_identical_to_no_plan(self):
        def run(faults):
            tr = Tracer()
            sim = ServeSim(["q1"], machines="numa*2", max_batch=4,
                           max_wait_s=0.005, backend="numpy", faults=faults,
                           tracer=tr)
            rep = sim.run_closed(clients=4, requests=12, seed=3)
            return rep.to_json(), chrome_trace_events(tr)
        ra, ta = run(None)
        rb, tb = run(FaultPlan())
        assert json.dumps(ra, sort_keys=True, default=str) == \
            json.dumps(rb, sort_keys=True, default=str)
        assert json.dumps(ta, sort_keys=True) == json.dumps(tb, sort_keys=True)

    def test_chaos_trace_validates(self, tmp_path):
        from repro.obs import write_chrome_trace
        tr = Tracer()
        outage_sim(tracer=tr)
        path = tmp_path / "chaos-trace.json"
        write_chrome_trace(str(path), tr)
        assert validate_file(str(path)) == []

    def test_per_attempt_decomposition_exact(self):
        sim, _rep = outage_sim(tracer=Tracer())
        server = sim.last_server
        assert server.resilience_summary()["retries"] >= 1
        checked_multi = 0
        for resp in server.responses:
            rid = resp.request.rid
            # the rid-level timeline decomposes to the *end-to-end*
            # latency (backoff and earlier attempts land in admission)
            tl = server.timeline_of(rid)
            comps = decompose_timeline(tl)
            assert comps is not None
            assert sum(comps[c] for c in COMPONENTS) == comps["latency_s"]
            assert comps["latency_s"] == resp.latency_s
            # and every recorded attempt decomposes exactly on its own
            attempts = server.attempt_timelines_of(rid)
            if len(attempts) > 1:
                checked_multi += 1
            for _attempt, _status, atl in attempts:
                acomps = decompose_timeline(atl)
                if acomps is None:
                    continue
                assert sum(acomps[c] for c in COMPONENTS) == \
                    acomps["latency_s"]
        assert checked_multi >= 1  # retries really were decomposed

    def test_attempt_spans_in_trace(self):
        tr = Tracer()
        outage_sim(tracer=tr)
        events = chrome_trace_events(tr)
        attempts = [e for e in events if e.get("cat") == "attempt"]
        assert attempts, "retried requests must emit attempt spans"
        assert {e["args"]["status"] for e in attempts} & \
            {"failed", "served", "requeued", "superseded"}
        faults = [e for e in events if e.get("cat") == "fault"]
        assert any(e["args"].get("fault") == "crash" for e in faults)


# ---------------------------------------------------------------------------
# individual policies under targeted fault scripts
# ---------------------------------------------------------------------------

class TestPolicies:
    def test_shedding_rejects_over_depth(self):
        res = ResilienceConfig(shed_depth=2)
        sim = ServeSim(["q1"], machines="numa", max_batch=2,
                       max_wait_s=0.05, backend="numpy", resilience=res)
        rep = sim.run_open(rate_rps=5000, requests=16, seed=2)
        server = sim.last_server
        shed = [j for j in server.rejected if j.reason == REJECT_SHED]
        assert shed and rep.availability < 1.0
        assert len(server.responses) + len(server.rejected) == 16
        assert rep.resilience["rejected_by_reason"][REJECT_SHED] == len(shed)

    def test_deadline_rejects_late_requests(self):
        res = ResilienceConfig(deadline_s=0.001)
        sim = ServeSim(["q1"], machines="numa", max_batch=8,
                       max_wait_s=0.05, backend="numpy", resilience=res)
        sim.run_closed(clients=4, requests=8, seed=1)
        server = sim.last_server
        late = [j for j in server.rejected if j.reason == REJECT_DEADLINE]
        assert late, "a 1ms deadline under a 50ms batch window must reject"
        assert len(server.responses) + len(server.rejected) == 8

    def test_hedge_launches_duplicate(self):
        plan = FaultPlan((FaultSpec("slow", "numa[0]", factor=20.0),))
        res = ResilienceConfig(hedge_delay_s=0.002)
        sim = ServeSim(["q1"], machines="numa*2", max_batch=2,
                       max_wait_s=0.001, backend="numpy", faults=plan,
                       resilience=res)
        sim.run_closed(clients=4, requests=12, seed=1)
        summary = sim.last_server.resilience_summary()
        assert summary["hedges"] >= 1
        assert summary["hedges_wasted"] <= summary["hedges"]
        assert len(sim.last_server.responses) == 12

    def test_persistent_kernel_faults_degrade_with_decision(self):
        plan = FaultPlan((FaultSpec("kernel", "q1", mode="error",
                                    rate=1.0),))
        res = ResilienceConfig(retry=RetryPolicy(max_attempts=2),
                               breaker=BreakerConfig(),
                               degrade_after=2)
        sim = ServeSim(["q1"], machines="numa*2", max_batch=4,
                       max_wait_s=0.002, backend="numpy", faults=plan,
                       resilience=res)
        sim.run_closed(clients=4, requests=16, seed=1)
        server = sim.last_server
        assert "q1" in server.degraded
        dec = [d for d in server.ledger.decisions
               if d.kind == DecisionKind.SERVE_DEGRADE]
        assert dec and dec[0].site == "serve:q1"
        assert "consecutive kernel faults" in dec[0].reason
        # degraded responses are served (reference path), not lost
        degraded = [r for r in server.responses
                    if r.fallback_reason and "degraded" in r.fallback_reason]
        assert degraded
        assert len(server.responses) + len(server.rejected) == 16

    def test_cache_fault_forces_recompile(self):
        plan = FaultPlan((FaultSpec("cache", "*", t0_s=0.005),))
        sim = ServeSim(["q1"], machines="numa", max_batch=4,
                       max_wait_s=0.002, backend="numpy", faults=plan)
        sim.run_closed(clients=2, requests=12, seed=1)
        assert len(sim.last_server.responses) == 12
        # one compile at first use, one after the scripted invalidation
        assert sim.cache.stats()["misses"] == 2

    def test_program_cache_invalidate(self):
        from repro.serve import ProgramCache, ServedApp
        served = ServedApp.from_bundle("q1")
        cache = ProgramCache({"q1": served.factory})
        cache.get("q1")
        assert cache.invalidate("other") == 0
        assert cache.invalidate("q1") == 1
        assert cache.invalidate() == 0  # already empty
        cache.get("q1")
        assert cache.stats()["misses"] == 2


# ---------------------------------------------------------------------------
# SLO scoring of refused traffic
# ---------------------------------------------------------------------------

class TestSLORejections:
    def test_rejections_burn_every_objective(self):
        class R:
            def __init__(self, finish, lat):
                self.finish_s, self.latency_s = finish, lat
                self.fallback_reason = None
        spec = SLOSpec.from_json({"name": "t", "objectives": [
            {"name": "avail", "kind": "availability", "target": 0.9},
            {"name": "p", "kind": "latency", "target": 0.9,
             "threshold_ms": 100}]})
        responses = [R(0.01 * i, 0.001) for i in range(1, 10)]
        clean = evaluate_slo(spec, responses)
        assert clean.ok
        burned = evaluate_slo(spec, responses, rejected=[
            Rejected(rid=99, app="q1", reason="shed", t_s=0.15),
            Rejected(rid=98, app="q1", reason="deadline", t_s=0.2)])
        assert not burned.ok
        for res in burned.results:
            assert res.total == 11 and res.bad == 2


# ---------------------------------------------------------------------------
# CLI: --faults / resilience flags / --chaos recovery gate
# ---------------------------------------------------------------------------

class TestChaosCLI:
    def run(self, *argv):
        import io
        from contextlib import redirect_stdout
        buf = io.StringIO()
        with redirect_stdout(buf):
            code = tools.main(list(argv))
        return code, buf.getvalue()

    def chaos_args(self, *extra):
        return ("serve-sim", "kmeans", "--machines", "numa*2",
                "--clients", "6", "--requests", "48", "--batch", "4",
                "--max-wait-ms", "20", "--seed", "1",
                "--faults", str(PLAN_PATH),
                "--retry", "3", "--timeout-ms", "2000",
                "--hedge-ms", "30", "--shed-depth", "64", "--breaker",
                *extra)

    def test_chaos_gate_recovers(self):
        # the recovery SLO holds for lane-packed batches
        code, out = self.run(*self.chaos_args(
            "--chaos", "--slo", str(REPO / "examples" / "slo_chaos.json"),
            "--json", "--backend", "numpy"))
        assert code == 0
        doc = json.loads(out)
        assert doc["chaos"]["recovered"] is True
        assert doc["chaos"]["post_responses"] > 0
        assert doc["chaos"]["slo"]["status"] == "ok"
        assert doc["availability"] == 1.0
        assert doc["resilience"]["fault_counts"]

    def test_chaos_requires_faults_and_slo(self):
        assert self.run("serve-sim", "kmeans", "--chaos")[0] == 2
        assert self.run("serve-sim", "kmeans", "--chaos",
                        "--faults", str(PLAN_PATH))[0] == 2

    def test_flag_validation(self):
        assert self.run("serve-sim", "q1", "--retry", "0")[0] == 2
        assert self.run("serve-sim", "q1", "--timeout-ms", "-5")[0] == 2
        assert self.run("serve-sim", "q1", "--shed-depth", "0")[0] == 2
        assert self.run("serve-sim", "q1",
                        "--faults", "nosuch-plan.json")[0] == 2

    @pytest.mark.parametrize("plan", [
        '{"faults": 5}',
        '{"faults": [{"kind": "slow", "target": "numa", "factor": null}]}',
        '{"faults": [{"kind": "crash", "target": "numa", "t0_s": NaN}]}',
        '{"faults": [{"kind": "slow", "target": "numa", '
        '"factor": Infinity}]}'])
    def test_malformed_plans_exit_2_with_one_line(self, plan, tmp_path,
                                                  capsys):
        path = tmp_path / "plan.json"
        path.write_text(plan)
        assert self.run("serve-sim", "q1", "--requests", "4",
                        "--faults", str(path))[0] == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_a_permanent_outage_refuses_every_request(self, tmp_path):
        # the closed loop's clients keep issuing through the refusals at
        # shutdown: no request is left neither served nor refused
        path = tmp_path / "plan.json"
        path.write_text(json.dumps({"faults": [
            {"kind": "crash", "target": "numa", "t0_s": 0}]}))
        code, out = self.run("serve-sim", "kmeans", "--requests", "20",
                             "--json", "--faults", str(path))
        doc = json.loads(out)
        assert code == 0 and doc["requests"] == 0 and doc["rejected"] == 20

    def test_slo_report_scores_rejections(self, tmp_path):
        out_file = tmp_path / "slo.json"
        code, _ = self.run(
            "slo-report", "q1", "--clients", "2", "--requests", "8",
            "--seed", "1", "--shed-depth", "1", "--rate", "5000",
            "--spec", str(REPO / "examples" / "slo_chaos.json"),
            "--out", str(out_file), "--json")
        doc = json.loads(out_file.read_text())
        avail = [o for o in doc["objectives"] if o["kind"] == "availability"]
        assert avail[0]["total"] == 8
        # shed requests are scored as bad; with depth 1 at 5000 rps the
        # budget is gone and the gate exits nonzero
        assert avail[0]["bad"] > 0
        assert code == 1
