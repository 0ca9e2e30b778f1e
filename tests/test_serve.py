"""The serving layer (DESIGN.md §9): compiled-program cache, lane-packed
batching, placement, and the seeded serving simulator.

The load-bearing contract is the differential one: a lane-packed batch
of N identical requests is served by ONE vectorized execution whose
results and ``ExecStats`` are bit-identical to what each request would
get from its own sequential run — batching may change wall-clock and
nothing else, the same bar the NumPy backend itself holds against the
reference interpreter.
"""

import dataclasses
import heapq
import io
import json
import math
import random
from collections import Counter
from contextlib import redirect_stdout
from types import SimpleNamespace

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro import tools
from repro.backend import run_program_numpy
from repro.core.values import deep_eq
from repro.obs import MetricsRegistry, Tracer
from repro.obs.check import validate_file
from repro.serve import batching, scheduler
from repro.serve import (POLICIES, AdmissionQueue, ClosedLoop, OpenLoop,
                         Payload, ProgramCache, ProgramServer, Request,
                         Response, ServeSim, ServedApp, make_machines,
                         make_payload, payload_digest)
from repro.serve.events import EventQueue

DIFF_APPS = ["kmeans", "logreg", "q1"]

STAT_FIELDS = ["total_cycles", "elements_read", "bytes_read",
               "elements_emitted", "bytes_alloc", "loops_executed",
               "loop_iterations"]


def assert_stats_equal(ref, got):
    for f in STAT_FIELDS:
        assert getattr(ref, f) == getattr(got, f), (
            f"stats field {f}: sequential={getattr(ref, f)!r} "
            f"batched={getattr(got, f)!r}")
    assert dict(ref.op_counts) == dict(got.op_counts)
    assert ref.def_records == got.def_records


def count_digests(monkeypatch):
    """Patch ``payload_digest`` to log its calls; returns the log."""
    calls = []
    digest = batching.payload_digest

    def counting(inputs):
        calls.append(1)
        return digest(inputs)
    monkeypatch.setattr(batching, "payload_digest", counting)
    return calls


def count_captures(monkeypatch, fail_numpy=False):
    """Patch the one ``capture_run`` call in ``serve/`` to log
    ``(backend, inputs)`` per call (and, with ``fail_numpy``, to raise on
    the numpy backend); returns the log."""
    calls = []
    real = scheduler.capture_run

    def counting(compiled, inputs, backend=None, **kwargs):
        calls.append((backend, inputs))
        if fail_numpy and backend == "numpy":
            raise RuntimeError("lane explosion")
        return real(compiled, inputs, backend=backend, **kwargs)
    monkeypatch.setattr(scheduler, "capture_run", counting)
    return calls


def serve_batch(app, n, max_batch=None, **kwargs):
    served = ServedApp.from_bundle(app)
    kwargs.setdefault("max_wait_s", 0.05)
    kwargs.setdefault("backend", "numpy")
    server = ProgramServer([served], max_batch=max_batch or n, **kwargs)
    for _ in range(n):
        server.submit(app, at=0.0)
    return server, server.run()


# ---------------------------------------------------------------------------
# the differential acceptance bar
# ---------------------------------------------------------------------------

class TestLanePackedDifferential:
    @pytest.mark.parametrize("app", DIFF_APPS)
    def test_batch_bit_identical_to_sequential(self, app):
        n = 4
        server, responses = serve_batch(app, n)
        assert len(responses) == n
        assert all(r.lane_packed and r.batch_size == n for r in responses)
        assert server.fallbacks == []

        # the sequential truth: each request run alone, fresh, on the
        # same compiled program
        entry = server.cache.get(app)
        prepared = entry.compiled.prepare_inputs(
            server.apps[app].default_inputs)
        for r in responses:
            seq_results, seq_stats, seq_fb = run_program_numpy(
                entry.compiled.program, prepared)
            assert seq_fb == []
            assert deep_eq(seq_results, r.results, tol=0.0)
            assert_stats_equal(seq_stats, r.stats)

    def test_batch_is_one_execution(self, monkeypatch):
        # N lane-packed requests must cost ONE functional execution
        from repro.runtime import executor as rexec
        calls = []
        real = rexec.capture_run

        def counting(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr("repro.serve.scheduler.capture_run", counting)
        _, responses = serve_batch("q1", 6)
        assert len(responses) == 6
        assert len(calls) == 1


# ---------------------------------------------------------------------------
# payload grouping
# ---------------------------------------------------------------------------

class TestPayloads:
    def test_digest_is_content_addressed(self):
        a = payload_digest({"xs": [1, 2, 3], "k": 2.5})
        assert a == payload_digest({"k": 2.5, "xs": [1, 2, 3]})
        assert a != payload_digest({"xs": [1, 2, 4], "k": 2.5})
        assert payload_digest({"x": 1}) != payload_digest({"x": 1.0})

    def test_bundled_payload_keys_are_pinned(self):
        # the fast path feeds sha256 the per-element stream byte for byte:
        # keys group requests and name cache entries, so they must not move
        pinned = {"kmeans": "1741a210dbbee36e", "logreg": "af127264dc09cafd",
                  "q1": "404a8feb774fc288"}
        for app, key in pinned.items():
            inputs = ServedApp.from_bundle(app).default_inputs
            assert payload_digest(inputs) == key

    @given(st.recursive(
        st.one_of(st.none(), st.booleans(), st.integers(),
                  st.floats(allow_nan=False), st.text(max_size=3),
                  st.lists(st.floats(allow_nan=False), max_size=6),
                  st.lists(st.integers(-2 ** 70, 2 ** 70), max_size=6),
                  st.lists(st.one_of(st.booleans(), st.integers(0, 1)),
                           max_size=4),
                  st.lists(st.one_of(st.integers(-3, 3),
                                     st.floats(-3, 3)), max_size=4)),
        lambda inner: st.one_of(
            st.lists(inner, max_size=4),
            st.lists(inner, max_size=3).map(tuple),
            st.dictionaries(st.text(max_size=2), inner, max_size=3)),
        max_leaves=12))
    @settings(max_examples=200, deadline=None)
    def test_fast_and_per_element_digests_agree(self, value):
        # mixed, ragged, bool-vs-int and int-vs-float lists included
        fast = payload_digest({"v": value})
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(batching, "_uniform_items", lambda v: None)
            assert payload_digest({"v": value}) == fast

    def test_uniform_lists_take_the_fast_path(self):
        assert batching._uniform_items([1.5, -0.0, 2.0]) is not None
        assert batching._uniform_items([3, -4, 2 ** 80]) is not None
        for mixed in ([1, 2.0], [True, 1], [1.0, None], [[1.0]], []):
            assert batching._uniform_items(mixed) is None

    def test_tenants_share_one_digest_of_the_dataset(self, monkeypatch):
        calls = count_digests(monkeypatch)
        server = ProgramServer([ServedApp.from_bundle("q1")],
                               backend="numpy")
        keys = {server.payload_for("q1", f"tenant{i}").key for i in range(8)}
        plain = server.payload_for("q1")
        assert len(calls) == 1
        assert keys == {f"{plain.key}:tenant{i}" for i in range(8)}
        assert plain.key == make_payload(plain.inputs).key
        assert make_payload(plain.inputs, salt="t").key == f"{plain.key}:t"

    def test_salted_payloads_do_not_pack(self):
        served = ServedApp.from_bundle("q1")
        server = ProgramServer([served], max_batch=2, max_wait_s=0.001,
                               backend="numpy")
        server.submit("q1", server.payload_for("q1", "a"), at=0.0)
        server.submit("q1", server.payload_for("q1", "a"), at=0.0)
        server.submit("q1", server.payload_for("q1", "b"), at=0.0)
        responses = server.run()
        by_batch = {}
        for r in responses:
            by_batch.setdefault(r.batch_id, []).append(r)
        sizes = sorted(len(v) for v in by_batch.values())
        assert sizes == [1, 2]

    def test_admission_queue_fifo_and_window(self):
        q = AdmissionQueue()
        p = make_payload({"x": 1})
        for i, at in enumerate([0.0, 0.001, 0.002]):
            q.push(Request(i, "a", p, at))
        # batch not full, window not expired
        assert q.next_ready(0.002, max_batch=4, max_wait_s=0.01) is None
        # window expires relative to the OLDEST request
        key = q.next_ready(0.0101, max_batch=4, max_wait_s=0.01)
        assert key == ("a", p.key)
        taken, head = q.take(key, 2)
        assert [r.rid for r in taken] == [0, 1]
        assert head.rid == 2 and len(q) == 1

    def test_admission_queue_counts_and_reports_heads(self):
        q = AdmissionQueue()
        pa, pb = make_payload({"x": 1}), make_payload({"x": 2})
        sizes = [q.push(Request(i, "a", p, 0.001 * i))
                 for i, p in enumerate([pa, pa, pb, pa, pb, pa])]
        # the group's size after the push: 1 means "became head"
        assert sizes == [1, 2, 1, 3, 2, 4]

        def pending():
            return sum(len(g) for g in q._groups.values())
        assert len(q) == pending() == 6
        taken, head = q.take(("a", pa.key), 3)      # partial take
        assert [r.rid for r in taken] == [0, 1, 3] and head.rid == 5
        assert len(q) == pending() == 3
        taken, head = q.take(("a", pa.key), 3)      # empties the group
        assert [r.rid for r in taken] == [5] and head is None
        assert len(q) == pending() == 2
        assert q.push(Request(6, "a", pa, 0.01)) == 1   # a head again
        assert len(q) == pending() == 3
        assert sorted(r.rid for r in q.drain()) == [2, 4, 6]
        assert len(q) == pending() == 0
        assert q.take(("a", pa.key), 3) == ([], None) and len(q) == 0


# ---------------------------------------------------------------------------
# batching window behavior through the server
# ---------------------------------------------------------------------------

class TestBatching:
    def test_max_batch_splits_requests(self):
        server, responses = serve_batch("q1", 5, max_batch=2,
                                        max_wait_s=0.001)
        sizes = {}
        for r in responses:
            sizes[r.batch_id] = r.batch_size
        assert sorted(sizes.values()) == [1, 2, 2]

    def test_max_wait_delays_lone_request(self):
        served = ServedApp.from_bundle("q1")
        server = ProgramServer([served], max_batch=8, max_wait_s=0.005,
                               backend="numpy")
        server.submit("q1", at=0.0)
        (r,) = server.run()
        # a lone request dispatches at its wait deadline, not instantly
        assert r.start_s == pytest.approx(0.005)
        assert r.queue_wait_s == pytest.approx(0.005)
        assert not r.lane_packed  # nobody joined its lanes

    def test_zero_wait_dispatches_immediately(self):
        served = ServedApp.from_bundle("q1")
        server = ProgramServer([served], max_batch=8, max_wait_s=0.0,
                               backend="numpy")
        server.submit("q1", at=0.0)
        (r,) = server.run()
        assert r.start_s == 0.0


# ---------------------------------------------------------------------------
# fallback semantics (recorded, never silent — like the backend's)
# ---------------------------------------------------------------------------

class TestFallback:
    def test_reference_backend_serves_per_request(self):
        server, responses = serve_batch("q1", 3, backend="reference")
        assert all(not r.lane_packed for r in responses)
        assert all(r.fallback_reason for r in responses)
        assert all(r.backend == "reference" for r in responses)
        assert len(server.fallbacks) == 1
        assert server.fallbacks[0].requests == 3
        # per-request execution: finishes are staggered, not shared
        finishes = sorted(r.finish_s for r in responses)
        assert finishes[0] < finishes[1] < finishes[2]
        # results are exactly the reference interpreter's (bitwise —
        # the fallback IS a reference execution, not an approximation)
        from repro.core import run_program
        entry = server.cache.get("q1")
        prepared = entry.compiled.prepare_inputs(
            server.apps["q1"].default_inputs)
        seq_results, _ = run_program(entry.compiled.program, prepared)
        for r in responses:
            assert deep_eq(seq_results, r.results, tol=0.0)

    def test_numpy_failure_falls_back_to_reference(self, monkeypatch):
        served = ServedApp.from_bundle("q1")
        server = ProgramServer([served], max_batch=2, max_wait_s=0.0,
                               backend="numpy")

        captured = server._captured

        def boom(app, variant, payload, backend):
            if backend == "numpy":
                raise RuntimeError("lane explosion")
            return captured(app, variant, payload, backend)

        monkeypatch.setattr(server, "_captured", boom)
        server.submit("q1", at=0.0)
        (r,) = server.run()
        assert r.backend == "reference"
        assert "lane explosion" in r.fallback_reason
        assert len(server.fallbacks) == 1
        assert "lane explosion" in server.fallbacks[0].reason


    def test_raising_capture_is_attempted_once_per_key(self, monkeypatch):
        # placement (predict_service) and dispatch (_execute_batch) both
        # want the capture; content whose execution raises must not be
        # re-executed by either, for any batch or any tenant sending it
        calls = count_captures(monkeypatch, fail_numpy=True)
        served = ServedApp.from_bundle("q1")
        server = ProgramServer([served],
                               machines=make_machines("numa*2"),
                               policy="fastest", max_batch=2,
                               max_wait_s=0.0, backend="numpy")
        rows = served.default_inputs["lineitems"]
        other = make_payload({"lineitems": rows[:-1]})
        for i in range(6):
            server.submit("q1", server.payload_for("q1", f"t{i % 2}"),
                          at=0.01 * i)
        server.submit("q1", other, at=0.07)
        responses = server.run()
        assert len(responses) == 7 and not server.rejected
        assert all(r.backend == "reference" for r in responses)
        assert all("lane explosion" in r.fallback_reason for r in responses)
        # one per content: the two tenants share their dataset's attempt,
        # the payload with other bytes gets its own
        attempts = [len(inputs["lineitems"]) for backend, inputs in calls
                    if backend == "numpy"]
        assert attempts == [len(rows), len(rows) - 1]
        first = [f for f in server.fallbacks if f.requests == 0]
        assert len(first) == 2 and server.fallbacks[0] is first[0]
        assert all("lane explosion" in f.reason for f in server.fallbacks)
        assert sum(f.requests for f in server.fallbacks) == 7
        # the report counts batches served on the reference path, not the
        # two capture-failure records
        report = ServeSim.report("open", server, responses)
        assert report.fallbacks == len(server.fallbacks) - 2 \
            == len({r.batch_id for r in responses})

    def test_failed_capture_raises_one_type(self, monkeypatch):
        def flaky(compiled, inputs, backend=None, **kwargs):
            raise ValueError("lane explosion")

        monkeypatch.setattr(scheduler, "capture_run", flaky)
        server = ProgramServer([ServedApp.from_bundle("q1")],
                               backend="numpy")
        payload = server.payload_for("q1")
        for _ in range(2):      # the first failure and the memoized one
            with pytest.raises(RuntimeError, match="lane explosion") as e:
                server._captured("q1", "opt", payload, "numpy")
            assert type(e.value) is RuntimeError
        assert len(server.fallbacks) == 1


# ---------------------------------------------------------------------------
# the compiled-program cache
# ---------------------------------------------------------------------------

class TestProgramCache:
    def test_compiles_once_and_counts_hits(self):
        served = ServedApp.from_bundle("q1")
        calls = []

        def factory():
            calls.append(1)
            return served.factory()

        cache = ProgramCache({"q1": factory})
        e1 = cache.get("q1")
        e2 = cache.get("q1")
        assert e1 is e2 and len(calls) == 1
        assert cache.stats() == {"entries": 1, "hits": 1, "misses": 1}
        assert e1.hits == 1 and e1.compile_s > 0

    def test_digest_pinned_lookup(self):
        cache = ProgramCache({"q1": ServedApp.from_bundle("q1").factory})
        entry = cache.get("q1")
        assert len(entry.digest) == 16

    def test_unknown_app_and_variant_error(self):
        cache = ProgramCache({"q1": ServedApp.from_bundle("q1").factory})
        with pytest.raises(KeyError):
            cache.get("nosuchapp")
        with pytest.raises(KeyError):
            cache.get("q1", "nosuchvariant")


# ---------------------------------------------------------------------------
# the capture store: one execution per (compiled program, content)
# ---------------------------------------------------------------------------

def same_shape_inputs(app, rows, cols, seed):
    from repro.data.datasets import gaussian_clusters, logistic_data
    if app == "kmeans":
        matrix, _ = gaussian_clusters(rows, cols, k=3, seed=seed)
        return {"matrix": matrix, "clusters": matrix[:3]}
    x, y = logistic_data(rows, cols, seed=seed)
    return {"x": x, "y": y, "theta": [0.0] * cols, "alpha": 0.1}


class TestCaptureStore:
    def test_tenants_share_the_capture_but_never_a_batch(self):
        server = ProgramServer([ServedApp.from_bundle("q1")], max_batch=4,
                               max_wait_s=0.001, backend="numpy")
        for i in range(8):
            server.submit("q1", server.payload_for("q1", f"t{i % 4}"), at=0.0)
        responses = server.run()
        assert len({id(r.results) for r in responses}) == 1
        assert responses[0].stats is responses[-1].stats
        by_batch = {}
        for r in responses:
            by_batch.setdefault(r.batch_id, set()).add(r.request.payload.key)
        assert len(by_batch) == 4
        assert all(len(keys) == 1 for keys in by_batch.values())
        assert (server.cache.captures_run,
                server.cache.captures_reused) == (1, 3)

    @settings(max_examples=10, deadline=None)
    @given(app=st.sampled_from(["kmeans", "logreg"]),
           rows=st.integers(6, 24), cols=st.integers(2, 5),
           seeds=st.lists(st.integers(0, 999), min_size=2, max_size=2,
                          unique=True))
    def test_same_shape_other_values_is_another_execution(
            self, app, rows, cols, seeds):
        # what a memo keyed by shape would get wrong: every response
        # carries the execution of its *own* bytes
        from repro.runtime.executor import capture_run
        served = ServedApp.from_bundle(app)
        server = ProgramServer([served], max_wait_s=0.0, backend="numpy")
        payloads = [make_payload(same_shape_inputs(app, rows, cols, seed))
                    for seed in seeds]
        assert payloads[0].digest != payloads[1].digest
        for i, payload in enumerate(payloads * 2):
            server.submit(app, payload, at=float(i))
        responses = server.run()
        assert server.cache.captures_run == 2
        assert responses[0].results is responses[2].results
        assert responses[0].results is not responses[1].results
        compiled = server.cache.get(app).compiled
        for r in responses:
            own = capture_run(compiled, r.request.payload.inputs,
                              backend="numpy")
            assert deep_eq(own.results, r.results, tol=0.0)
            assert_stats_equal(own.stats, r.stats)

    def test_captures_live_as_long_as_the_cache(self, monkeypatch):
        calls = count_captures(monkeypatch)
        sim = ServeSim(["q1"], backend="numpy")
        first = sim.run_open(500, 20, seed=0)
        assert len(calls) == 1
        again = sim.run_open(500, 20, seed=0)
        assert len(calls) == 1          # a new server, the same cache
        assert first.latencies_s == again.latencies_s
        ServeSim(["q1"], backend="numpy").run_open(500, 20, seed=0)
        assert len(calls) == 2          # a cold start pays again

    def test_fleet_executes_each_program_once_per_content(self, monkeypatch):
        calls = count_captures(monkeypatch)
        sim = ServeSim(DIFF_APPS, machines="numa*2,gpunode", policy="fastest",
                       backend="numpy", payloads=8)
        report = sim.run_open(600, 200, seed=0)
        assert report.requests == 200
        # 3 apps x {opt, gpu}: not one per tenant, nor per machine
        assert len(calls) == sim.cache.captures_run == 6
        assert sim.cache.captures_reused > 200
        assert sorted(sim.cache.stats()) == ["entries", "hits", "misses"]

    def test_fleet_prices_each_capture_once_per_machine_model(
            self, monkeypatch):
        # a price depends on the execution and the machine, not on the
        # tenant: 3 captures x {opt on numa, gpu on gpunode} = 6, where a
        # memo keyed by the tenant-salted payload key pays 8 x 6 = 48
        from .test_serve_pins import FLEET_AT_BENCHMARK_SIZE, report_sha
        priced = []

        class RecordingSimulator(scheduler.Simulator):
            def price(self, cap):
                priced.append(cap)
                return super().price(cap)
        monkeypatch.setattr(scheduler, "Simulator", RecordingSimulator)
        sim = ServeSim(DIFF_APPS, machines="numa*2,gpunode", max_batch=8,
                       max_wait_s=0.02, policy="fastest", backend="numpy",
                       payloads=8)
        report = sim.run_open(600, 6000, seed=0)
        assert len(priced) == 6
        assert len({id(cap) for cap in priced}) == 6
        assert report_sha(report) == FLEET_AT_BENCHMARK_SIZE

    def test_cache_fault_drops_that_apps_captures_only(self, monkeypatch):
        from repro.serve import FaultPlan, FaultSpec
        calls = count_captures(monkeypatch)
        priced = []

        class RecordingSimulator(scheduler.Simulator):
            def price(self, cap, *args, **kwargs):
                priced.append(cap)
                return super().price(cap, *args, **kwargs)
        monkeypatch.setattr(scheduler, "Simulator", RecordingSimulator)
        apps = [ServedApp.from_bundle(a) for a in ("q1", "kmeans")]
        server = ProgramServer(
            apps, max_wait_s=0.0, backend="numpy",
            faults=FaultPlan((FaultSpec("cache", "q1", t0_s=50.0),)))
        for at in (0.0, 100.0):
            for app in ("q1", "kmeans"):
                server.submit(app, at=at)
        before_q1, before_km, after_q1, after_km = sorted(
            server.run(), key=lambda r: r.request.rid)
        executed = [inputs for _, inputs in calls]
        assert executed == [apps[0].default_inputs, apps[1].default_inputs,
                            apps[0].default_inputs]
        assert after_km.results is before_km.results
        assert after_q1.results is not before_q1.results
        assert deep_eq(after_q1.results, before_q1.results, tol=0.0)
        # the batch after the fault is priced again, from the new run
        assert [cap.results is after_q1.results for cap in priced] == \
            [False, False, True]
        assert server.cache.stats()["misses"] == 3

    def test_servers_sharing_a_cache_share_a_failure(self, monkeypatch):
        calls = count_captures(monkeypatch, fail_numpy=True)
        sim = ServeSim(["q1"], backend="numpy")
        reports, servers = [], []
        for _ in range(2):
            reports.append(sim.run_open(500, 6, seed=0))
            servers.append(sim.last_server)
        assert [backend for backend, _ in calls] == ["numpy", "reference"]
        reasons = {r.fallback_reason for s in servers for r in s.responses}
        assert reasons == {"numpy execution failed: lane explosion"}
        # the server that performed the execution records its failure
        assert [sum(1 for f in s.fallbacks if f.requests == 0)
                for s in servers] == [1, 0]
        docs = [{k: v for k, v in r.to_json().items() if k != "cache"}
                for r in reports]
        assert docs[0] == docs[1] and reports[0].fallbacks > 0


# ---------------------------------------------------------------------------
# placement across machines
# ---------------------------------------------------------------------------

class TestPlacement:
    def test_make_machines_parses_spec(self):
        ms = make_machines("numa*2,gpunode")
        assert [m.name for m in ms] == ["numa", "numa", "gpunode"]
        assert [m.index for m in ms] == [0, 1, 2]
        assert ms[2].use_gpu and ms[2].variant == "gpu"
        with pytest.raises(ValueError):
            make_machines("warpdrive")
        with pytest.raises(ValueError):
            make_machines("")

    def test_make_machines_rejects_bad_counts(self):
        with pytest.raises(ValueError, match="not an integer"):
            make_machines("numa*x")
        with pytest.raises(ValueError, match="count must be >= 1"):
            make_machines("numa*0")
        with pytest.raises(ValueError, match="count must be >= 1"):
            make_machines("numa*-2")
        # the offending part is named so "a*0,b*x" is debuggable
        with pytest.raises(ValueError, match="numa\\*0"):
            make_machines("gpunode,numa*0")

    @pytest.mark.parametrize("policy", ["nope", POLICIES["fastest"], None])
    def test_a_policy_is_one_of_three_names(self, policy):
        with pytest.raises(ValueError) as e:
            ProgramServer([ServedApp.from_bundle("q1")], policy=policy)
        assert all(name in str(e.value)
                   for name in ("round-robin", "least-loaded", "fastest"))
        assert sorted(POLICIES) == ["fastest", "least-loaded", "round-robin"]

    @pytest.mark.parametrize("policy", sorted(POLICIES))
    def test_policies_spread_salted_load(self, policy):
        served = ServedApp.from_bundle("q1")
        server = ProgramServer([served], make_machines("numa*2"),
                               max_batch=1, max_wait_s=0.0, policy=policy,
                               backend="numpy")
        # salted payloads can't pack, so 4 ready singleton groups exist
        # at t=0 — with 2 idle machines both must be used
        for i in range(4):
            server.submit("q1", server.payload_for("q1", f"s{i}"), at=0.0)
        server.run()
        used = [m for m in server.machines if m.batches > 0]
        assert len(used) == 2

    def test_heterogeneous_apps_multiplex(self):
        apps = [ServedApp.from_bundle("kmeans"), ServedApp.from_bundle("q1")]
        server = ProgramServer(apps, make_machines("numa*2"), max_batch=2,
                               max_wait_s=0.001, backend="numpy")
        for i in range(4):
            server.submit("kmeans" if i % 2 == 0 else "q1", at=0.0)
        responses = server.run()
        assert {r.request.app for r in responses} == {"kmeans", "q1"}
        # kmeans and q1 never share a batch (different programs)
        for r in responses:
            mates = [x for x in responses if x.batch_id == r.batch_id]
            assert {x.request.app for x in mates} == {r.request.app}


# ---------------------------------------------------------------------------
# the seeded serving simulator
# ---------------------------------------------------------------------------

class TestServeSim:
    def test_same_seed_same_tail(self):
        def run():
            sim = ServeSim(["q1"], machines="numa", max_batch=4,
                           max_wait_s=0.002, backend="numpy", payloads=2)
            rep = sim.run_closed(clients=4, requests=12, think_s=0.001,
                                 seed=7)
            return rep
        a, b = run(), run()
        assert a.latency_p99_s == b.latency_p99_s
        assert a.throughput_rps == b.throughput_rps
        assert a.latencies_s == b.latencies_s

    def test_different_seed_different_schedule(self):
        sim = ServeSim(["q1"], machines="numa", max_batch=4,
                       max_wait_s=0.002, backend="numpy", payloads=3)
        a = sim.run_open(rate_rps=500, requests=16, seed=1)
        b = sim.run_open(rate_rps=500, requests=16, seed=2)
        assert a.latencies_s != b.latencies_s

    def test_open_loop_reports_and_metrics(self):
        m = MetricsRegistry()
        sim = ServeSim(["q1"], machines="numa", max_batch=4,
                       max_wait_s=0.005, backend="numpy", metrics=m)
        rep = sim.run_open(rate_rps=400, requests=10, seed=3)
        assert rep.requests == 10
        assert rep.throughput_rps > 0
        assert rep.latency_p50_s <= rep.latency_p95_s <= rep.latency_p99_s
        assert m.counter("serve.requests", app="q1") == 10.0
        hist = rep.latency_histogram()
        assert sum(hist["counts"]) == 10

    def test_closed_loop_keeps_clients_in_flight(self):
        sim = ServeSim(["q1"], machines="numa", max_batch=8,
                       max_wait_s=0.001, backend="numpy")
        rep = sim.run_closed(clients=3, requests=9, think_s=0.0, seed=0)
        assert rep.requests == 9
        server = sim.last_server
        clients = [r.request.client for r in server.responses]
        assert sorted(set(clients)) == [0, 1, 2]

    def test_shared_cache_across_runs(self):
        sim = ServeSim(["q1"], backend="numpy")
        sim.run_closed(clients=2, requests=4, seed=0)
        sim.run_closed(clients=2, requests=4, seed=1)
        assert sim.cache.stats()["misses"] == 1  # compiled exactly once

    def test_trace_validates(self, tmp_path):
        from repro.obs import write_chrome_trace
        tr = Tracer()
        sim = ServeSim(["q1"], backend="numpy", tracer=tr)
        sim.run_closed(clients=2, requests=6, seed=0)
        path = tmp_path / "serve.json"
        write_chrome_trace(str(path), tr.last_run)
        assert validate_file(str(path)) == []

    def test_latency_breakdowns(self):
        sim = ServeSim(["kmeans", "q1"], machines="numa*2",
                       backend="numpy", max_batch=2)
        rep = sim.run_open(rate_rps=400, requests=12, seed=5)
        assert set(rep.latency_by_app) == {"kmeans", "q1"}
        assert sum(st["count"] for st in rep.latency_by_app.values()) == 12
        assert sum(st["count"]
                   for st in rep.latency_by_machine.values()) == 12
        for st in rep.latency_by_app.values():
            assert st["p50_s"] <= st["p95_s"] <= st["p99_s"]
        doc = rep.to_json()
        # existing top-level keys stay stable; breakdowns are additive
        for key in ("requests", "batches", "makespan_s", "throughput_rps",
                    "latency_p99_s", "latency_histogram"):
            assert key in doc
        assert set(doc["latency_by_machine"]) <= {"numa[0]", "numa[1]"}

    def test_traffic_rejects_nonpositive_requests(self):
        from repro.serve import ClosedLoop, OpenLoop
        with pytest.raises(ValueError, match="requests must be >= 1"):
            OpenLoop(["q1"], rate_rps=100.0, requests=0)
        with pytest.raises(ValueError, match="requests must be >= 1"):
            ClosedLoop(["q1"], clients=2, requests=-3)
        for bad in (0, -3):
            with pytest.raises(ValueError, match="payloads must be >= 1"):
                OpenLoop(["q1"], rate_rps=100.0, requests=5, payloads=bad)
            with pytest.raises(ValueError, match="payloads must be >= 1"):
                ClosedLoop(["q1"], clients=2, requests=5, payloads=bad)
        sim = ServeSim(["q1"], backend="numpy")
        with pytest.raises(ValueError):
            sim.run_closed(clients=2, requests=0, seed=0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, -1.0])
    def test_traffic_rejects_non_finite_and_negative_numbers(self, bad):
        with pytest.raises(ValueError, match="rate_rps must be finite"):
            OpenLoop(["q1"], rate_rps=bad, requests=5)
        with pytest.raises(ValueError, match="rate_rps must be finite"):
            ServeSim(["q1"], backend="numpy").run_open(bad, 50)
        with pytest.raises(ValueError, match="think_s must be finite"):
            ClosedLoop(["q1"], clients=2, requests=4, think_s=bad)
        with pytest.raises(ValueError, match="max_wait_s must be finite"):
            ProgramServer([ServedApp.from_bundle("q1")], max_wait_s=bad)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -1.0])
    def test_admission_times_must_be_finite_and_non_negative(self, bad):
        server = table_server()
        with pytest.raises(ValueError, match="finite and >= 0"):
            server.submit("a", at=bad)
        with pytest.raises(ValueError, match="finite and >= 0"):
            server.admit([0.0, bad, 2.0], "abc", [None] * 3)
        assert not server._events and server._rid == 0  # nothing admitted

    def test_responses_name_their_machine(self):
        sim = ServeSim(["q1"], machines="numa*2", backend="numpy")
        sim.run_open(rate_rps=500, requests=8, seed=2)
        for r in sim.last_server.responses:
            assert r.machine in ("numa[0]", "numa[1]")


# ---------------------------------------------------------------------------
# request tracing: deterministic per-request spans and flow links
# ---------------------------------------------------------------------------

class TestServeTracing:
    def traced_run(self, seed=4, requests=16):
        tr = Tracer()
        sim = ServeSim(["kmeans"], machines="numa*2", backend="numpy",
                       max_batch=4, tracer=tr)
        rep = sim.run_open(rate_rps=400, requests=requests, seed=seed)
        return tr, sim, rep

    def test_same_seed_byte_identical_trace(self):
        from repro.obs import chrome_trace_events
        a = chrome_trace_events(self.traced_run()[0])
        b = chrome_trace_events(self.traced_run()[0])
        assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)

    def test_flow_ids_do_not_collide_on_seed_106(self):
        # rid 362 and 1903 of a seed-106 trace shared their low 31
        # span_id bits, so the validator saw one flow with two starts
        from repro.obs import RequestContext, chrome_trace_events
        from repro.obs.check import validate_events

        def closed_loop_events():
            tr = Tracer()
            sim = ServeSim(["kmeans"], machines="numa*2", backend="numpy",
                           max_batch=4, tracer=tr)
            sim.run_closed(clients=16, requests=2000, seed=106)
            return chrome_trace_events(tr)

        a, b = (RequestContext.derive(106, rid) for rid in (362, 1903))
        assert a.flow_id != b.flow_id
        assert 0 <= a.flow_id < 1 << 53  # still an exact JSON integer
        events = closed_loop_events()
        assert validate_events(events) == []
        assert json.dumps(events, sort_keys=True) == \
            json.dumps(closed_loop_events(), sort_keys=True)

    def test_tracer_off_results_identical(self):
        def outcome(tracer):
            sim = ServeSim(["kmeans"], machines="numa*2", backend="numpy",
                           max_batch=4, tracer=tracer)
            sim.run_open(rate_rps=400, requests=16, seed=4)
            return [(r.request.rid, r.start_s, r.finish_s, r.batch_id,
                     r.batch_size, r.machine, r.lane_packed, r.backend)
                    for r in sim.last_server.responses]
        assert outcome(None) == outcome(Tracer())

    def test_request_spans_and_flow_links(self, tmp_path):
        from repro.obs import write_chrome_trace
        tr, sim, rep = self.traced_run()
        path = tmp_path / "serve.json"
        write_chrome_trace(str(path), tr)
        assert validate_file(str(path)) == []
        doc = json.loads(path.read_text())
        events = doc["traceEvents"]
        reqs = [e for e in events if e.get("cat") == "request"]
        assert len(reqs) == rep.requests
        # every request span names its trace identity and served batch
        batch_ids = {e["args"]["batch_id"] for e in events
                     if e.get("cat") == "batch"}
        for e in reqs:
            assert e["pid"] == 2 and e["tid"] == e["args"]["rid"]
            assert len(e["args"]["trace_id"]) == 32
            assert len(e["args"]["span_id"]) == 16
            assert e["args"]["batch_id"] in batch_ids
        # N requests -> one flow start each, finishing on a batch slice
        starts = [e for e in events if e.get("ph") == "s"]
        ends = [e for e in events if e.get("ph") == "f"]
        assert len(starts) == rep.requests == len(ends)
        assert {e["id"] for e in starts} == {e["args"]["flow_id"]
                                             for e in reqs}

    def test_timeline_lifecycle_monotonic(self):
        tr, sim, rep = self.traced_run()
        server = sim.last_server
        for r in server.responses:
            tl = server.timeline_of(r.request.rid)
            marks = tl.marks
            assert (marks["arrive"] <= marks["enqueue"] <= marks["seal"]
                    <= marks["dispatch"] <= marks["exec_start"]
                    <= marks["complete"])
            assert marks["arrive"] == r.request.arrival_s
            assert marks["complete"] == r.finish_s

    def test_request_ctx_matches_derivation(self):
        from repro.obs import RequestContext
        tr, sim, rep = self.traced_run(seed=9)
        server = sim.last_server
        for r in server.responses:
            assert server.timeline_of(r.request.rid).ctx == \
                RequestContext.derive(9, r.request.rid)

    def test_batch_spans_carry_loop_children(self):
        tr, sim, rep = self.traced_run()
        run = tr.last_run
        parents = run.parents().tolist()
        batches = [i for i, k in enumerate(run.kind) if k == "batch"]
        assert batches
        lane_packed = [b for b in batches if run.attrs[b].get("lane_packed")
                       or run.attrs[b].get("fallback") is None]
        assert lane_packed
        for b in lane_packed:
            loops = [i for i, k in enumerate(run.kind)
                     if k == "loop" and parents[i] == b]
            assert loops
            # loops tile the batch span on the serving machine's track
            cursor = run.start_s[b]
            for i in loops:
                assert run.start_s[i] == pytest.approx(cursor, abs=1e-9)
                assert run.attrs[i]["machine"] == run.attrs[b]["machine"]
                assert run.tid[i] == run.tid[b]
                cursor = run.start_s[i] + run.dur_s[i]

    def test_untraced_server_allocates_no_request_state(self):
        sim = ServeSim(["q1"], backend="numpy")
        sim.run_closed(clients=2, requests=6, seed=0)
        server = sim.last_server
        assert server.record is None
        assert all(server.timeline_of(r.request.rid) is None
                   for r in server.responses)


# ---------------------------------------------------------------------------
# the event loop pays per state change (DESIGN.md §9)
# ---------------------------------------------------------------------------

#: simulated service seconds per (app, machine index): the fixed table
#: both loops below price a batch with
SERVICE = {(app, m): 0.0011 * (1 + i) + 0.0007 * m
           for i, app in enumerate("abc") for m in range(3)}


class NaiveServer:
    """The event loop as it was before it paid per state change, cut
    down to plain traffic: one heap, a flush per arrival, a dispatch
    attempt after every event. It shares ``AdmissionQueue.next_ready``,
    the placement policies and the traffic sources with
    ``ProgramServer`` and duck-types what a source's ``prime`` touches.

    ``collisions`` counts the one way the two loops can part. An
    attempt ``ProgramServer`` no longer makes — after an arrival that
    does not fill its group, or on the flush of a request that never
    headed its group — starts a batch only when its event shares a
    timestamp with the event that makes the dispatch possible (clients
    released together re-arrive together, and so do their flushes) or
    lands inside the 1e-12 s look-ahead of ``next_ready`` /
    ``busy_until``. When the enabling event follows at the same instant
    with no arrival in between, ``ProgramServer`` starts the same batch
    there from the same state; anything else is a collision: this loop
    started a batch an ulp early, or without a late lane-mate."""

    def __init__(self, machines, max_batch, max_wait_s, policy):
        self.machines = make_machines(machines)
        self.max_batch, self.max_wait_s = max_batch, max_wait_s
        self.place, self.rr_cursor = POLICIES[policy], 0
        self.queue, self.heap, self.heads = AdmissionQueue(), [], set()
        self.on_complete, self.on_reject, self.responses = [], [], []
        self.now, self.rid, self.pushed, self.batches = 0.0, 0, 0, 0
        self.collisions = 0

    def payload_for(self, app, salt=None):
        return Payload({}, salt or "-")

    def push(self, t, kind, data):
        heapq.heappush(self.heap, (t, self.pushed, kind, data))
        self.pushed += 1

    def submit(self, app, payload, at=0.0, client=-1):
        self.push(at, "arrive", Request(self.rid, app, payload, at, client))
        self.rid += 1

    def admit(self, at, apps, payloads, client=-1):
        for t, app, payload in zip(at, apps, payloads):
            self.submit(app, payload, at=t, client=client)

    def run(self, source):
        source.prime(self)
        early_at = None     # an early start its enabling event must match
        while self.heap:
            self.now, _, kind, data = heapq.heappop(self.heap)
            enables = True
            if kind == "arrive":
                size = self.queue.push(data)
                if size == 1:
                    self.heads.add(data.rid)
                self.push(self.now + self.max_wait_s, "flush", data)
                enables = size == self.max_batch or self.max_wait_s == 0
            elif kind == "flush":
                enables = data.rid in self.heads
            else:
                for resp in data:
                    self.responses.append(resp)
                    for hook in self.on_complete:
                        hook(self, resp)
            if early_at is not None and (self.now != early_at
                                         or kind == "arrive"):
                self.collisions += 1
                early_at = None
            elif enables:
                early_at = None
            if self.dispatch(self.now) and not enables:
                early_at = self.now
        self.collisions += early_at is not None
        return self.responses

    def dispatch(self, now):
        started = 0
        while True:
            idle = [m for m in self.machines if m.busy_until <= now + 1e-15]
            key = idle and self.queue.next_ready(now, self.max_batch,
                                                 self.max_wait_s)
            if not key:
                return started
            requests, head = self.queue.take(key, self.max_batch)
            if head is not None:
                self.heads.add(head.rid)
            m = self.place(self, idle, requests)
            svc = SERVICE[requests[0].app, m.index]
            m.busy_until, m.busy_s = now + svc, m.busy_s + svc
            self.push(now + svc, "complete", [
                Response(r, (), None, "naive", self.batches, len(requests),
                         now, now + svc, len(requests) > 1, machine=m.label)
                for r in requests])
            self.batches += 1
            started += 1


def table_server(machines="numa", max_batch=8, max_wait_s=0.02,
                 policy="round-robin"):
    """A ``ProgramServer`` over apps a/b/c whose executions are stubbed
    out: every batch costs its ``SERVICE`` entry."""
    server = ProgramServer(
        [ServedApp(app, None, {}) for app in "abc"], make_machines(machines),
        max_batch=max_batch, max_wait_s=max_wait_s, policy=policy,
        backend="numpy")
    capture = SimpleNamespace(results=(), stats=None, backend="numpy")
    server._captured = lambda app, variant, payload, backend: capture
    server._price = lambda m, app, cap, payload: SimpleNamespace(
        total_seconds=SERVICE[app, m.index], loops=())
    return server


def schedule(responses):
    return [(r.request.rid, r.batch_id, r.batch_size, r.machine, r.start_s,
             r.finish_s) for r in responses]


class TestEventLoop:
    @settings(max_examples=120, deadline=None)
    @given(closed=st.booleans(), seed=st.integers(0, 2 ** 16),
           requests=st.integers(1, 70),
           rate=st.floats(40.0, 6000.0), clients=st.integers(1, 12),
           think_s=st.sampled_from([0.0, 0.0004, 0.03]),
           max_batch=st.integers(1, 8),
           max_wait_s=st.sampled_from([0.0, 0.001, 0.02, 1.0]),
           machines=st.integers(1, 3), payloads=st.integers(1, 4),
           policy=st.sampled_from(["round-robin", "least-loaded"]))
    def test_same_schedule_as_the_naive_loop(
            self, closed, seed, requests, rate, clients, think_s, max_batch,
            max_wait_s, machines, payloads, policy):
        def source():
            if closed:
                return ClosedLoop("abc", clients, requests, think_s=think_s,
                                  seed=seed, payloads=payloads)
            return OpenLoop("abc", rate, requests, seed=seed,
                            payloads=payloads)
        fleet = (f"numa*{machines}", max_batch, max_wait_s, policy)
        naive = NaiveServer(*fleet)
        expected = schedule(naive.run(source()))
        assume(naive.collisions == 0)
        server = table_server(*fleet)
        assert schedule(server.run(source())) == expected
        assert len(expected) == requests
        # the flush invariant bounds the loop's work: a flush is
        # scheduled when a group gets a head, which happens once per
        # group and at most once per batch taken from it
        events = server.events_by_kind
        groups = {(r.request.app, r.request.payload.key)
                  for r in server.responses}
        assert events["arrive"] == requests
        assert events["complete"] == server._bid == naive.batches
        assert events["flush"] <= server._bid + len(groups)
        assert set(events) == {"arrive", "flush", "complete"}

    def test_collisions_are_rare(self):
        """The comparison above discards a case in which the naive loop
        saw a collision; that filter must not be hiding the comparison."""
        runs = [NaiveServer("numa*2", 4, 0.02, "least-loaded")
                for _ in range(60)]
        for seed, naive in enumerate(runs):
            naive.run(ClosedLoop("abc", 8, 60, seed=seed, payloads=2))
        assert sum(naive.collisions > 0 for naive in runs) <= 6

    def test_remainder_head_flushes_at_its_own_deadline(self):
        server = table_server(max_batch=2, max_wait_s=0.5)
        server._price = lambda m, app, cap, payload: SimpleNamespace(
            total_seconds=0.45, loops=())
        flushes, push = [], server._push

        def spy(t, kind, data=None):
            if kind == "flush":
                flushes.append(t)
            push(t, kind, data)
        server._push = spy
        for app, at in (("c", 0.0), ("c", 0.0),
                        ("a", 0.1), ("a", 0.2), ("a", 0.3)):
            server.submit(app, at=at)
        server.run()
        # the two c fill their group at 0.0 and hold the machine to 0.45,
        # when the first two a leave and the third is left in front: its
        # flush is due at ITS arrival + wait, not at the take + wait
        assert flushes == [0.0 + 0.5, 0.1 + 0.5, 0.3 + 0.5]
        assert [r.start_s for r in server.responses] == [
            0.0, 0.0, 0.45, 0.45, 0.45 + 0.45]
        assert server.events_by_kind == {"arrive": 5, "flush": 3,
                                         "complete": 3}

    def test_a_plain_open_run_pays_per_batch(self, monkeypatch):
        # the arrivals are one stream append, only flushes and completions
        # are pushed one by one, and no first attempt writes attempt state
        calls = Counter()

        def counted(cls, name):
            real = getattr(cls, name)

            def wrapper(self, *args):
                calls[name] += 1
                return real(self, *args)
            monkeypatch.setattr(cls, name, wrapper)
        for cls, name in ((EventQueue, "extend"), (EventQueue, "push"),
                          (scheduler.AttemptLedger, "clone")):
            counted(cls, name)
        server = table_server()
        OpenLoop("abc", 1500.0, 2000, seed=3).prime(server)
        assert len(server._events._stream) == 2000 and not server._events._heap
        server.run()
        events = server.events_by_kind
        assert events["arrive"] == len(server.responses) == 2000
        assert calls == {"extend": 1,
                         "push": events["flush"] + events["complete"]}
        assert len(server._attempts) == 0

    def test_one_flush_per_head_not_per_arrival(self):
        server = table_server(max_batch=8, max_wait_s=0.02)
        server.run(OpenLoop("abc", 1500.0, 2000, seed=3))
        events = server.events_by_kind
        assert events["arrive"] == 2000
        assert events["flush"] <= server._bid + 3 < 2000 / 2

    def test_submit_in_the_past_is_refused(self):
        server = table_server(max_wait_s=0.0)
        server.submit("a", at=1.0)
        server.submit("b", at=0.25)       # before run: any order goes

        def answer_in_the_past(srv, resp):
            if resp.request.app == "a":
                srv.submit("c", at=0.5)
        server.on_complete.append(answer_in_the_past)
        with pytest.raises(ValueError) as err:
            server.run()
        assert "0.5" in str(err.value) and repr(server.now) in str(err.value)

    def test_closed_loop_never_submits_in_the_past(self):
        # a fallback batch runs its requests back to back: all but the
        # last finish before the batch's complete event fires the hooks
        sim = ServeSim(["q1"], max_batch=4, max_wait_s=0.002,
                       backend="reference")
        report = sim.run_closed(clients=4, requests=12, seed=1)
        assert report.requests == 12 and report.fallbacks
        by_client = {}
        for r in sorted(sim.last_server.responses,
                        key=lambda r: r.request.rid):
            prev = by_client.get(r.request.client)
            assert prev is None or r.request.arrival_s >= prev.finish_s
            by_client[r.request.client] = r


#: event times with many ties
EVENT_TIMES = st.one_of(st.sampled_from([0.0, 0.5, 1.0, 1.5, 2.0, 7.0]),
                        st.floats(0.0, 10.0))


class TestEventQueue:
    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.one_of(
        st.none(),                                 # a pop
        st.sampled_from([0.0, 0.5, 1.0, 1.5, 2.0, 7.0]),   # ties
        st.floats(0.0, 10.0)), max_size=80))
    def test_pops_in_heap_order(self, ops):
        queue, heap, seq = EventQueue(), [], 0
        popped = queue.drain()
        for op in ops:
            if op is None:
                assert bool(queue) == bool(heap)
                if heap:
                    assert next(popped) == heapq.heappop(heap)
            else:
                queue.push(op, "k", seq)
                heapq.heappush(heap, (op, seq, "k", seq))
                seq += 1
        assert list(popped) == [heapq.heappop(heap) for _ in list(heap)]
        assert not queue

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.one_of(
        st.none(),                                 # a pop
        EVENT_TIMES,                               # a push
        st.lists(EVENT_TIMES, max_size=12),        # a column, as drawn
        st.lists(EVENT_TIMES, max_size=12).map(sorted)), max_size=40))
    def test_a_column_pops_as_its_single_pushes_would(self, ops):
        # sorted columns land on the stream, or behind its tail; unsorted
        # ones go in entry by entry — either way they pop as n pushes do
        queue, pushed = EventQueue(), EventQueue()
        popped, expected = queue.drain(), pushed.drain()
        for op in ops:
            if op is None:
                assert bool(queue) == bool(pushed)
                if pushed:
                    assert next(popped) == next(expected)
            elif isinstance(op, float):
                queue.push(op, "k", op)
                pushed.push(op, "k", op)
            else:
                queue.extend(op, "col", [f"d{i}" for i in range(len(op))])
                for i, t in enumerate(op):
                    pushed.push(t, "col", f"d{i}")
        assert list(popped) == list(expected)
        assert not queue

    def test_a_sorted_column_is_one_stream_append(self):
        queue = EventQueue()
        queue.push(1.0, "flush")
        queue.extend([1.0, 1.5, 2.0], "arrive", "abc")
        assert list(queue._stream) == [(1.0, 0, "flush", None),
                                       (1.0, 1, "arrive", "a"),
                                       (1.5, 2, "arrive", "b"),
                                       (2.0, 3, "arrive", "c")]
        queue.extend([0.5, 3.0], "arrive", "de")     # behind the tail
        queue.extend([4.0, 3.5], "arrive", "fg")     # unsorted
        assert sorted(queue._heap) == [(0.5, 4, "arrive", "d"),
                                       (3.5, 7, "arrive", "g")]
        assert [e[1] for e in queue.drain()] == [4, 0, 1, 2, 3, 5, 7, 6]

    def test_sorted_pushes_bypass_the_heap_and_are_released(self):
        queue = EventQueue()
        rng = random.Random(5)
        t = 0.0
        for _ in range(1000):
            t += rng.expovariate(100.0)
            queue.push(t, "arrive")
        assert not queue._heap and len(queue._stream) == 1000
        queue.push(0.5, "flush")                   # out of order: heap
        assert len(queue._heap) == 1
        popped = queue.drain()
        for _ in range(600):
            next(popped)
        assert len(queue._stream) + len(queue._heap) == 401


class TestDefaultPayload:
    def test_digested_once_per_served_app(self, monkeypatch):
        calls = count_digests(monkeypatch)
        served = ServedApp.from_bundle("q1")
        servers = [ProgramServer([served], backend="numpy") for _ in range(3)]
        payloads = [srv.payload_for("q1") for srv in servers]
        assert len(calls) == 1
        assert all(p is payloads[0] for p in payloads)
        assert servers[1].payload_for("q1", "t").key == f"{payloads[0].key}:t"
        # a cold start still pays: the memo lives on the instance
        ProgramServer([ServedApp.from_bundle("q1")]).payload_for("q1")
        assert len(calls) == 2

    def test_memo_is_not_a_field(self):
        served = ServedApp.from_bundle("q1")
        fresh = ServedApp.from_bundle("q1")
        before = repr(served)
        served.default_payload
        assert served == fresh and repr(served) == before
        assert [f.name for f in dataclasses.fields(served)] == [
            "name", "factory", "default_inputs", "scale", "data_scale"]
        other = dataclasses.replace(served, default_inputs={"x": [1.0]})
        assert other.default_payload.key == payload_digest({"x": [1.0]})


# ---------------------------------------------------------------------------
# the serve-sim CLI
# ---------------------------------------------------------------------------

class TestServeCLI:
    def run(self, *argv):
        buf = io.StringIO()
        with redirect_stdout(buf):
            code = tools.main(list(argv))
        return code, buf.getvalue()

    def test_closed_loop_smoke(self, tmp_path):
        lat = tmp_path / "lat.json"
        trace = tmp_path / "trace.json"
        code, out = self.run("serve-sim", "q1", "--clients", "2",
                             "--requests", "6", "--batch", "2",
                             "--seed", "1", "--latency-out", str(lat),
                             "--trace-out", str(trace))
        assert code == 0
        assert "throughput" in out and "latency p99" in out
        doc = json.loads(lat.read_text())
        assert doc["requests"] == 6
        assert "latency_histogram" in doc
        assert validate_file(str(trace)) == []

    @pytest.mark.parametrize("flag,value", [
        ("--rate", "nan"), ("--rate", "inf"), ("--rate", "0"),
        ("--think-ms", "-5"), ("--think-ms", "nan"),
        ("--max-wait-ms", "nan"), ("--max-wait-ms", "inf"),
        ("--timeout-ms", "nan"), ("--hedge-ms", "nan"),
        ("--hedge-ms", "inf")])
    @pytest.mark.parametrize("command", ["serve-sim", "slo-report"])
    def test_non_finite_and_negative_numbers_exit_2(self, capsys, command,
                                                    flag, value):
        argv = [command, "q1", "--requests", "4", flag, value]
        if command == "slo-report":
            argv += ["--spec", "examples/slo_serving.json"]
        code, out = self.run(*argv)
        err = capsys.readouterr().err
        assert code == 2 and out == ""
        assert err.count("\n") == 1 and err.startswith(flag)

    def test_json_report(self):
        code, out = self.run("serve-sim", "q1", "--requests", "4",
                             "--clients", "2", "--json")
        assert code == 0
        assert json.loads(out)["requests"] == 4
        assert "events" not in out

    def test_table_says_what_the_loop_did(self):
        code, out = self.run("serve-sim", "q1", "--requests", "40",
                             "--rate", "2000", "--seed", "1")
        assert code == 0
        (line,) = [l for l in out.splitlines() if l.startswith("  events ")]
        # 40 arrivals, then a complete and at most one flush per batch
        # (+ 1 for the group's first head): never more than 3 per request
        count, per_request = line.split()[1:3]
        assert 40 < int(count) <= 121
        assert per_request == f"({int(count) / 40:.2f}/request)"

    def test_table_says_how_many_executions(self):
        argv = ("serve-sim", "q1", "kmeans", "--requests", "30", "--rate",
                "2000", "--payloads", "4", "--machines", "numa*2",
                "--policy", "fastest", "--backend", "numpy")
        code, out = self.run(*argv)
        assert code == 0
        (line,) = [l for l in out.splitlines()
                   if l.startswith("  executions ")]
        run, reused = line.split()[1], line.split()[4]
        assert run == "2" and int(reused) > 2      # per app, not per tenant
        code, out = self.run(*argv, "--json")
        assert code == 0 and "executions" not in out

    def test_observability_outputs(self, tmp_path):
        flame = tmp_path / "flame.txt"
        prom = tmp_path / "metrics.prom"
        code, out = self.run("serve-sim", "q1", "--requests", "6",
                             "--clients", "2", "--seed", "1",
                             "--backend", "numpy",
                             "--flame-out", str(flame),
                             "--metrics-out", str(prom),
                             "--slo", "examples/slo_serving.json")
        assert code == 0
        assert "SLO report" in out and "VIOLATED" not in out
        lines = flame.read_text().strip().splitlines()
        assert lines and all(int(l.rsplit(" ", 1)[1]) > 0 for l in lines)
        text = prom.read_text()
        assert "# TYPE serve_requests counter" in text
        assert text.endswith("# EOF\n")

    def test_slo_attached_to_latency_json(self, tmp_path):
        lat = tmp_path / "lat.json"
        code, _ = self.run("serve-sim", "q1", "--requests", "6",
                           "--clients", "2", "--backend", "numpy",
                           "--slo", "examples/slo_serving.json",
                           "--latency-out", str(lat))
        assert code == 0
        doc = json.loads(lat.read_text())
        assert doc["slo"]["status"] == "ok"
        assert {o["name"] for o in doc["slo"]["objectives"]} == \
            {"latency-p99", "availability"}

    def test_usage_errors(self):
        assert self.run("serve-sim")[0] == 2
        assert self.run("serve-sim", "nosuchapp")[0] == 2
        assert self.run("serve-sim", "q1", "--requests", "0")[0] == 2
        assert self.run("serve-sim", "q1", "--machines", "warpdrive")[0] == 2


class TestServeCliBackend:
    """``serve-sim``, ``slo-report`` and ``analyze --requests`` pick their
    engine as every other path does: ``--backend``, else
    ``$REPRO_BACKEND``, else the NumPy default, which lane-packs."""

    COMMANDS = {
        "serve-sim": ["serve-sim", "q1"],
        "slo-report": ["slo-report", "q1", "--spec",
                       "examples/slo_serving.json"],
        "analyze --requests": ["analyze", "q1", "--requests"],
    }
    TRAFFIC = {"serve-sim": ["--requests", "8", "--clients", "4"],
               "slo-report": ["--requests", "8", "--clients", "4"],
               "analyze --requests": ["--count", "8", "--clients", "4"]}

    @pytest.fixture
    def served(self, monkeypatch):
        """The ``ProgramServer`` of each run a CLI command makes."""
        import repro.serve
        servers = []

        class Recorded(repro.serve.ServeSim):
            def _run(self, *args):
                report = super()._run(*args)
                servers.append(self.last_server)
                return report
        monkeypatch.setattr(repro.serve, "ServeSim", Recorded)
        return servers

    def serve(self, served, command, *extra):
        with redirect_stdout(io.StringIO()):
            rc = tools.main(self.COMMANDS[command] + self.TRAFFIC[command]
                            + list(extra))
        # serialized fallback batches can exhaust the latency budget,
        # which slo-report reports as exit 1
        assert rc == 0 or (rc == 1 and command == "slo-report")
        (server,) = served
        assert len(server.responses) == 8
        return server

    @staticmethod
    def assert_fallback(server):
        assert server.backend == "reference"
        assert {r.backend for r in server.responses} == {"reference"}
        assert not any(r.lane_packed for r in server.responses)
        assert sum(fb.requests for fb in server.fallbacks) == 8

    @staticmethod
    def assert_lane_packed(server):
        assert server.backend == "numpy" and server.fallbacks == []
        assert {r.backend for r in server.responses} == {"numpy"}
        assert all(r.lane_packed for r in server.responses)

    @pytest.mark.parametrize("command", sorted(COMMANDS))
    def test_env_reference_serves_every_batch_as_fallback(
            self, monkeypatch, served, command):
        monkeypatch.setenv("REPRO_BACKEND", "reference")
        self.assert_fallback(self.serve(served, command))

    @pytest.mark.parametrize("command", sorted(COMMANDS))
    def test_default_lane_packs(self, monkeypatch, served, command):
        monkeypatch.delenv("REPRO_BACKEND", raising=False)
        self.assert_lane_packed(self.serve(served, command))

    @pytest.mark.parametrize("command", sorted(COMMANDS))
    def test_argument_wins_over_env(self, monkeypatch, served, command):
        monkeypatch.setenv("REPRO_BACKEND", "reference")
        self.assert_lane_packed(
            self.serve(served, command, "--backend", "numpy"))
        served.clear()
        monkeypatch.setenv("REPRO_BACKEND", "numpy")
        self.assert_fallback(
            self.serve(served, command, "--backend", "reference"))
