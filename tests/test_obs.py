"""Observability layer: span tables, metrics, typed diagnostics, and the
Chrome-trace exporter — plus the guarantee that all of it costs nothing
when disabled."""

import io
import json
from contextlib import redirect_stdout

import pytest

from repro import tools
from repro.bench import get_bundle
from repro.bench import BUNDLES
from repro.obs import (DiagCategory, MetricsRegistry, RequestContext,
                       Tracer, chrome_trace_events,
                       collapse_stacks, profile_report, prometheus_text,
                       render_collapsed, render_spans, write_chrome_trace,
                       write_collapsed, write_prometheus)
from repro.obs.check import validate_events, validate_file
from repro.runtime import GPU_CLUSTER, single_node

from . import obs_reference as ref

APPS = sorted(BUNDLES)

TOL = 1e-9


def traced(name, gpu=False):
    """Price a bundled app with a tracer attached, on the NUMA box or one
    GPU node; returns (sim, the run's SpanTable)."""
    tracer = Tracer()
    kw = dict(cluster=single_node(GPU_CLUSTER), use_gpu=True,
              gpu_transposed=True) if gpu else {}
    sim = get_bundle(name).simulate("gpu" if gpu else "opt", tracer=tracer,
                                    **kw)
    return sim, tracer.last_run


def spans(run, kind=None, parent=None):
    """Row indices of ``run`` (of one kind, under one parent row)."""
    parents = run.parents().tolist()
    return [i for i, k in enumerate(run.kind)
            if (kind is None or k == kind)
            and (parent is None or parents[i] == parent)]


# ---------------------------------------------------------------------------
# span tables
# ---------------------------------------------------------------------------

class TestSpanTree:
    @pytest.mark.parametrize("name", APPS)
    def test_well_formed(self, name):
        sim, run = traced(name)
        assert run is not None and run.kind[0] == "run"
        assert run.depth[0] == 0 and 0 not in run.depth[1:]
        # every child interval nests inside its parent
        start, dur = run.start_s, run.dur_s
        for i, up in enumerate(run.parents().tolist()):
            if up >= 0:
                assert start[i] >= start[up] - TOL, (up, i)
                assert start[i] + dur[i] <= start[up] + dur[up] + TOL
        # the loop layer tiles [0, total] back-to-back
        loops = spans(run, "loop", parent=0)
        assert len(loops) == len(sim.loops)
        cursor = 0.0
        for i in loops:
            assert start[i] == pytest.approx(cursor, abs=TOL)
            cursor = start[i] + dur[i]
        assert cursor == pytest.approx(sim.total_seconds, abs=TOL)
        assert dur[0] == pytest.approx(sim.total_seconds, abs=TOL)

    @pytest.mark.parametrize("name", APPS)
    def test_breakdown_identity(self, name):
        """time_s == max(compute, memory) + comm + overhead, and the span
        attributes carry exactly the LoopSim split."""
        sim, run = traced(name)
        loops = {run.name[i]: i for i in spans(run, "loop")}
        for ls in sim.loops:
            assert ls.time_s == pytest.approx(
                max(ls.compute_s, ls.memory_s) + ls.comm_s + ls.overhead_s)
            i = loops[ls.name]
            assert run.dur_s[i] == pytest.approx(ls.time_s, abs=TOL)
            for k in ("compute_s", "memory_s", "comm_s", "overhead_s"):
                assert run.attrs[i][k] == getattr(ls, k)
        assert sum(l.time_s for l in sim.loops) == pytest.approx(
            sim.total_seconds)

    @pytest.mark.parametrize("gpu", [False, True], ids=["numa", "gpu"])
    @pytest.mark.parametrize("name", APPS)
    def test_attrs_are_json_ready(self, name, gpu):
        """Every executor row's attrs are a scalar, a list of ``str`` or a
        ``str → str`` dict per key, so the Chrome trace takes them as
        they are; and each row sits on its machine's track."""
        _, run = traced(name, gpu)
        for kind, attrs, pid, tid in zip(run.kind, run.attrs, run.pid,
                                         run.tid):
            for v in attrs.values():
                if isinstance(v, list):
                    assert all(type(x) is str for x in v), v
                elif isinstance(v, dict):
                    assert all(type(k) is str and type(x) is str
                               for k, x in v.items()), v
                else:
                    assert type(v) in (str, int, float, bool, type(None)), v
            assert ref.clean_args(attrs) == attrs
            assert (pid, tid) == ref.track(kind, attrs)

    def test_machine_and_socket_layers(self):
        _, run = traced("kmeans")
        assert {"run", "loop", "machine", "socket"} <= set(run.kind)
        # machine chunks sit on the parallel region of their loop
        for i in spans(run, "machine"):
            assert run.attrs[i].get("machine") is not None
            assert run.attrs[i]["iter_hi"] >= run.attrs[i]["iter_lo"]

    def test_gpu_layer(self):
        _, run = traced("kmeans", gpu=True)
        assert "gpu" in run.kind

    def test_render_spans(self):
        _, run = traced("logreg")
        text = render_spans(run)
        assert "run:" in text and "loop:" in text and "ms" in text
        assert text.count("\n") + 1 == len(run.name)


# ---------------------------------------------------------------------------
# zero cost when disabled
# ---------------------------------------------------------------------------

class TestZeroCost:
    @pytest.mark.parametrize("name", APPS)
    def test_tracing_does_not_change_timing(self, name):
        plain = get_bundle(name).simulate()
        observed = get_bundle(name).simulate(tracer=Tracer(),
                                             metrics=MetricsRegistry())
        assert plain.total_seconds == observed.total_seconds  # bit-exact
        for a, b in zip(plain.loops, observed.loops):
            assert (a.compute_s, a.memory_s, a.comm_s, a.overhead_s) == \
                   (b.compute_s, b.memory_s, b.comm_s, b.overhead_s)

    def test_no_detail_allocated_when_disabled(self):
        sim = get_bundle("kmeans").simulate()
        assert all(ls.detail is None for ls in sim.loops)


# ---------------------------------------------------------------------------
# Chrome trace export
# ---------------------------------------------------------------------------

class TestChromeTrace:
    def test_events_validate(self):
        _, run = traced("q1")
        events = chrome_trace_events(run)
        assert validate_events(events) == []
        xs = [e for e in events if e["ph"] == "X"]
        assert all(e["ts"] >= 0 and e["dur"] >= 0 for e in xs)
        # metadata names the process and every track
        metas = [e for e in events if e["ph"] == "M"]
        assert any(e["name"] == "process_name" for e in metas)
        assert {e["tid"] for e in metas if e["name"] == "thread_name"} >= \
               {e["tid"] for e in xs}

    def test_file_round_trip(self, tmp_path):
        sim, run = traced("gene")
        path = tmp_path / "gene.json"
        write_chrome_trace(str(path), run)
        doc = json.loads(path.read_text())
        assert doc["displayTimeUnit"] == "ms"
        assert validate_file(str(path)) == []
        event = next(e for e in doc["traceEvents"] if e.get("cat") == "run")
        assert event["dur"] == pytest.approx(sim.total_seconds * 1e6,
                                             rel=1e-6)

    def test_event_order_deterministic_under_child_permutation(self):
        # two structurally identical trees whose children were recorded
        # in different orders must export byte-identical event streams —
        # the exporter sorts on (pid, tid, ts, -dur, cat, name)
        m0 = ("loopA/m0", "machine", 0.0, 2.0)
        m1 = ("loopA/m1", "machine", 0.0, 2.0)
        loop_b = ("loopB", "loop", 4.0, 6.0)
        t1 = ref.table(("run", "run", 0.0, 10.0, [
            ("loopA", "loop", 0.0, 4.0, [m0, m1]), loop_b]))
        t2 = ref.table(("run", "run", 0.0, 10.0, [
            loop_b, ("loopA", "loop", 0.0, 4.0, [m1, m0])]))
        e1, e2 = chrome_trace_events(t1), chrome_trace_events(t2)
        assert e1 == e2
        assert json.dumps(e1, sort_keys=True) == json.dumps(e2,
                                                            sort_keys=True)

    def test_event_order_sorted_within_track(self):
        _, run = traced("kmeans")
        xs = [e for e in chrome_trace_events(run) if e["ph"] == "X"]
        keys = [(e["pid"], e["tid"], e["ts"], -e["dur"], e["cat"], e["name"])
                for e in xs]
        assert keys == sorted(keys)

    def test_validator_rejects_bad_traces(self, tmp_path):
        assert validate_events([]) != []
        assert validate_events([{"ph": "X", "name": "a", "pid": 1, "tid": 0,
                                 "ts": -1, "dur": 2}]) != []
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert validate_file(str(bad)) != []
        from repro.obs import check
        assert check.main([str(bad)]) == 1
        assert check.main([]) == 2

    def test_validator_reports_non_object_events(self, tmp_path, capsys):
        assert validate_events([1, "x"]) == ["event 0: not an object",
                                             "event 1: not an object"]
        assert validate_events([_slice("run", 1, 0, 0.0, 1.0, cat="run"),
                                None]) == ["event 1: not an object"]
        bad = tmp_path / "ints.json"
        bad.write_text('{"traceEvents": [1, "x"]}')
        from repro.obs import check
        assert check.main([str(bad)]) == 1
        out = capsys.readouterr().out
        assert "INVALID" in out and "event 1: not an object" in out


# ---------------------------------------------------------------------------
# flow events (request -> batch arrows)
# ---------------------------------------------------------------------------

def _slice(name, pid, tid, ts, dur, cat="x"):
    return {"name": name, "cat": cat, "ph": "X", "pid": pid, "tid": tid,
            "ts": ts, "dur": dur}


class TestFlowValidation:
    BASE = [_slice("run", 1, 0, 0.0, 100.0, cat="run"),
            _slice("b0", 1, 1, 10.0, 20.0),
            _slice("r0", 2, 0, 0.0, 30.0)]

    def test_valid_flow_passes(self):
        events = self.BASE + [
            {"name": "req", "cat": "flow", "ph": "s", "id": 7,
             "pid": 2, "tid": 0, "ts": 10.0},
            {"name": "req", "cat": "flow", "ph": "f", "bp": "e", "id": 7,
             "pid": 1, "tid": 1, "ts": 10.0}]
        assert validate_events(events) == []

    def test_unpaired_flow_rejected(self):
        events = self.BASE + [
            {"name": "req", "cat": "flow", "ph": "s", "id": 7,
             "pid": 2, "tid": 0, "ts": 10.0}]
        errs = validate_events(events)
        assert any("one start and one finish" in e for e in errs)

    def test_backwards_flow_rejected(self):
        events = self.BASE + [
            {"name": "req", "cat": "flow", "ph": "s", "id": 7,
             "pid": 2, "tid": 0, "ts": 25.0},
            {"name": "req", "cat": "flow", "ph": "f", "bp": "e", "id": 7,
             "pid": 1, "tid": 1, "ts": 10.0}]
        errs = validate_events(events)
        assert any("precedes start" in e for e in errs)

    def test_dangling_endpoint_rejected(self):
        # finish endpoint on a track with no enclosing slice — the viewer
        # would silently drop the arrow, so the validator must not
        events = self.BASE + [
            {"name": "req", "cat": "flow", "ph": "s", "id": 7,
             "pid": 2, "tid": 0, "ts": 10.0},
            {"name": "req", "cat": "flow", "ph": "f", "bp": "e", "id": 7,
             "pid": 1, "tid": 9, "ts": 10.0}]
        errs = validate_events(events)
        assert any("no enclosing slice" in e for e in errs)

    def test_name_mismatch_rejected(self):
        events = self.BASE + [
            {"name": "req", "cat": "flow", "ph": "s", "id": 7,
             "pid": 2, "tid": 0, "ts": 10.0},
            {"name": "other", "cat": "flow", "ph": "f", "bp": "e", "id": 7,
             "pid": 1, "tid": 1, "ts": 10.0}]
        errs = validate_events(events)
        assert any("mismatch" in e for e in errs)

    def test_ten_thousand_flow_events_validate_in_log_time(self):
        # endpoint lookup is a bisect into a per-track index: the scan it
        # replaced took seconds on a trace of this size
        import time
        n = 5000
        events = [_slice("run", 1, 0, 0.0, 10.0 * n, cat="run")]
        for i in range(n):
            events.append(_slice(f"b{i}", 1, 1, 10.0 * i, 8.0))
            events.append(_slice(f"r{i}", 2, i % 16, 10.0 * i, 9.0))
        for i in range(n):
            events.append({"name": "req", "cat": "flow", "ph": "s", "id": i,
                           "pid": 2, "tid": i % 16, "ts": 10.0 * i + 1.0})
            events.append({"name": "req", "cat": "flow", "ph": "f",
                           "bp": "e", "id": i, "pid": 1, "tid": 1,
                           "ts": 10.0 * i + 2.0})
        bare = events[2 * n + 1 + 2 * 1234 + 1]
        bare["ts"] = 10.0 * 1234 + 9.0      # the gap between b1234 and b1235
        events[2 * n + 1 + 2 * 4321]["name"] = "other"
        t0 = time.perf_counter()
        errs = validate_events(events)
        assert time.perf_counter() - t0 < 0.5
        assert errs == [
            "flow 1234: finish endpoint at ts 12349.0 has no enclosing "
            "slice on track (1, 1)",
            "flow 4321: start/finish name or category mismatch"]

    def test_endpoint_index_agrees_with_a_scan(self):
        import random
        from repro.obs.check import _enclosed, _slice_index
        rng = random.Random(5)
        xs = [_slice("s", 1, rng.randrange(3), rng.uniform(0, 100),
                     rng.choice((0.0, rng.uniform(0, 30))))
              for _ in range(200)]
        index = _slice_index(xs)
        probes = [rng.uniform(-5, 140) for _ in range(300)]
        probes += [e["ts"] for e in xs] + [e["ts"] + e["dur"] for e in xs]
        for tid in range(4):
            for ts in probes:
                scan = any(e["tid"] == tid and e["ts"] - 1e-6 <= ts
                           <= e["ts"] + e["dur"] + 1e-6 for e in xs)
                assert _enclosed(index, (1, tid), ts) == scan


# ---------------------------------------------------------------------------
# parent/child containment
# ---------------------------------------------------------------------------

class TestContainmentValidation:
    def test_nested_slices_pass(self):
        events = [_slice("run", 1, 0, 0.0, 100.0, cat="run"),
                  _slice("loop", 1, 0, 10.0, 50.0),
                  _slice("chunk", 1, 0, 10.0, 20.0)]
        assert validate_events(events) == []

    def test_escaping_child_rejected_with_span_path(self):
        # "chunk" starts inside "loop" but ends after it — the viewer
        # renders that as overlapping garbage, the validator names the
        # offender and the enclosing path
        events = [_slice("run", 1, 0, 0.0, 100.0, cat="run"),
                  _slice("loop", 1, 0, 10.0, 50.0),
                  _slice("chunk", 1, 0, 40.0, 30.0)]
        errs = validate_events(events)
        assert any("containment" in e and "'chunk'" in e for e in errs)
        (err,) = [e for e in errs if "containment" in e]
        assert "run/loop" in err  # the full enclosing span path
        assert "(1, 0)" in err    # the track it happened on

    def test_escaping_root_child_rejected(self):
        events = [_slice("run", 1, 0, 0.0, 100.0, cat="run"),
                  _slice("late", 1, 0, 90.0, 20.0)]
        errs = validate_events(events)
        assert any("containment" in e and "'late'" in e
                   and "'run'" in e for e in errs)

    def test_sibling_slices_may_touch(self):
        # back-to-back siblings sharing an edge are fine
        events = [_slice("run", 1, 0, 0.0, 100.0, cat="run"),
                  _slice("a", 1, 0, 0.0, 50.0),
                  _slice("b", 1, 0, 50.0, 50.0)]
        assert validate_events(events) == []

    def test_tracks_validated_independently(self):
        # an overlap across different tids is not a containment error
        events = [_slice("run", 1, 0, 0.0, 100.0, cat="run"),
                  _slice("m0", 1, 1, 40.0, 30.0),
                  _slice("m1", 1, 2, 50.0, 30.0)]
        assert validate_events(events) == []

    def test_rounding_jitter_tolerated(self):
        # exporter rounds ts/dur to 3 decimals of a microsecond; a
        # sub-tolerance overhang must not be flagged
        events = [_slice("run", 1, 0, 0.0, 100.0, cat="run"),
                  _slice("loop", 1, 0, 10.0, 50.0),
                  _slice("chunk", 1, 0, 10.0, 50.005)]
        assert validate_events(events) == []

    def test_real_traces_contain(self):
        for app in ("kmeans", "q1"):
            _, run = traced(app)
            assert validate_events(chrome_trace_events(run)) == []


# ---------------------------------------------------------------------------
# request identity
# ---------------------------------------------------------------------------

class TestRequestContext:
    def test_deterministic_derivation(self):
        a = RequestContext.derive(3, 7)
        b = RequestContext.derive(3, 7)
        assert a == b
        assert len(a.trace_id) == 32 and len(a.span_id) == 16
        int(a.trace_id, 16), int(a.span_id, 16)  # hex
        assert a.flow_id >= 0
        assert RequestContext.derive(3, 8) != a
        assert RequestContext.derive(4, 7) != a


# ---------------------------------------------------------------------------
# profiling exports: flamegraphs and Prometheus text
# ---------------------------------------------------------------------------

class TestProfileExports:
    def test_collapse_stacks_self_time(self):
        stacks = collapse_stacks(ref.table(("run", "run", 0.0, 10.0, [
            ("loopA", "loop", 0.0, 6.0, [("m0", "machine", 0.0, 4.0)])])))
        # self time = dur - children dur, in integer microseconds
        assert stacks["run"] == 4_000_000
        assert stacks["run;loopA"] == 2_000_000
        assert stacks["run;loopA;m0"] == 4_000_000

    def test_collapsed_render_and_write(self, tmp_path):
        _, run = traced("kmeans")
        text = render_collapsed(run)
        lines = text.strip().splitlines()
        assert lines == sorted(lines)
        for line in lines:
            stack, weight = line.rsplit(" ", 1)
            assert int(weight) > 0 and stack
        p = tmp_path / "flame.txt"
        write_collapsed(str(p), run)
        assert p.read_text() == text + "\n"

    def test_semicolons_in_frames_escaped(self):
        run = ref.table(("a;b", "run", 0.0, 1.0))
        assert list(collapse_stacks(run)) == ["a,b"]

    def test_prometheus_text(self, tmp_path):
        m = MetricsRegistry()
        m.inc("serve.requests", 3.0, app="kmeans")
        m.gauge("serve.makespan_s", 0.5)
        m.observe("serve.latency_s", 0.1)
        m.observe("serve.latency_s", 0.3)
        text = prometheus_text(m)
        assert '# TYPE serve_requests counter' in text
        assert 'serve_requests{app="kmeans"} 3' in text
        assert "serve_makespan_s 0.5" in text
        assert 'serve_latency_s{quantile="0.99"}' in text
        assert "serve_latency_s_count 2" in text
        assert "serve_latency_s_sum" in text
        assert text.endswith("# EOF\n")
        p = tmp_path / "m.prom"
        write_prometheus(str(p), m)
        assert p.read_text() == text

    def test_prometheus_empty_registry(self):
        assert prometheus_text(MetricsRegistry()).endswith("# EOF\n")

    def test_prometheus_label_escaping(self):
        # the exposition format requires \\, \", and \n escaped inside
        # label values — a raw newline corrupts the whole scrape
        m = MetricsRegistry()
        m.inc("serve.requests", 1.0, app='k"means')
        m.inc("serve.requests", 2.0, app="a\\b")
        m.inc("serve.requests", 3.0, app="two\nlines")
        text = prometheus_text(m)
        assert 'app="k\\"means"' in text
        assert 'app="a\\\\b"' in text
        assert 'app="two\\nlines"' in text
        # no label value may leak an unescaped newline or quote
        for line in text.splitlines():
            if "{" not in line:
                continue
            labels = line[line.index("{") + 1:line.rindex("}")]
            assert "\n" not in labels
            body = labels
            for esc in ('\\\\', '\\"', '\\n'):
                body = body.replace(esc, "")
            # any quote left is a delimiter: value="...",
            assert body.count('"') % 2 == 0

    def test_prometheus_escaping_round_trips_distinct_values(self):
        # 'a\\nb' (literal backslash-n) and 'a\nb' (newline) must stay
        # distinguishable after escaping, else series silently merge
        m = MetricsRegistry()
        m.inc("serve.requests", 1.0, app="a\\nb")
        m.inc("serve.requests", 5.0, app="a\nb")
        text = prometheus_text(m)
        assert 'app="a\\\\nb"} 1' in text
        assert 'app="a\\nb"} 5' in text

    def test_series_keys_keep_their_definition(self):
        # the key of a series is its labels sorted and joined; a hot path
        # names one label at a time and skips the sort, not the format
        from repro.obs.metrics import _series
        from repro.obs.profile import _split_series

        def by_definition(name, labels):
            if not labels:
                return name
            inner = ",".join(f"{k}={labels[k]}" for k in sorted(labels))
            return f"{name}{{{inner}}}"

        for labels in ({}, {"app": "q1"}, {"n": 3}, {"on": True},
                       {"x": None}, {"x": 1.5}, {"app": "k=m,e"},
                       {"b": 1, "a": 2}, {"reason": "shed", "app": "q1"}):
            assert _series("serve.x", labels) == \
                by_definition("serve.x", labels)
        # every series the executor and the serving paths emit
        from repro.serve import (FaultPlan, FaultSpec, ResilienceConfig,
                                 ServeSim)
        metrics = MetricsRegistry()
        get_bundle("kmeans").simulate(metrics=metrics)
        sim = ServeSim(["q1"], backend="numpy", metrics=metrics,
                       faults=FaultPlan((FaultSpec("kernel", "*",
                                                   mode="error"),)),
                       resilience=ResilienceConfig(shed_depth=2))
        sim.run_closed(clients=4, requests=8, seed=0)
        tables = (metrics.counters, metrics.gauges, metrics.histograms)
        series = [key for table in tables for key in table]
        assert sum("{" in key for key in series) >= 10
        assert any(key.count("=") == 2 for key in series)
        for key in series:
            name, labels = _split_series(key)
            assert by_definition(name, dict(labels)) == key


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------

class TestMetrics:
    def test_registry_basics(self):
        m = MetricsRegistry()
        m.inc("a")
        m.inc("a", 2.0)
        m.inc("a", 5.0, loop="x")
        m.gauge("g", 7.0)
        m.observe("h", 1.0)
        m.observe("h", 3.0)
        assert m.counter("a") == 3.0
        assert m.counter("a", loop="x") == 5.0
        assert m.histogram_stats_of(m.histograms["h"]) == {
            "count": 2, "min": 1.0, "max": 3.0, "mean": 2.0, "p50": 3.0,
            "p90": 3.0, "p95": 3.0, "p99": 3.0}
        # empty histograms still expose the full key set (satellite fix:
        # consumers can index p99 without guarding on count)
        assert m.histogram_stats_of([]) == {
            "count": 0, "min": 0.0, "max": 0.0, "mean": 0.0,
            "p50": 0.0, "p90": 0.0, "p95": 0.0, "p99": 0.0}
        assert m.counters["a{loop=x}"] == 5.0
        text = m.render()
        assert "counters:" in text and "a{loop=x}" in text
        assert MetricsRegistry().render() == "(no metrics recorded)"

    def test_single_sample_histogram_well_defined(self):
        m = MetricsRegistry()
        m.observe("h", 2.5)
        st = m.histogram_stats_of(m.histograms["h"])
        assert st == {"count": 1, "min": 2.5, "max": 2.5, "mean": 2.5,
                      "p50": 2.5, "p90": 2.5, "p95": 2.5, "p99": 2.5}

    def test_histogram_tail_percentiles_nearest_rank(self):
        m = MetricsRegistry()
        for v in range(1, 101):
            m.observe("lat", float(v))
        st = m.histogram_stats_of(m.histograms["lat"])
        assert (st["p50"], st["p90"], st["p95"], st["p99"]) == \
            (51.0, 90.0, 95.0, 99.0)
        assert st["max"] == 100.0

    def test_executor_feeds_metrics(self):
        metrics = MetricsRegistry()
        sim = get_bundle("kmeans").simulate(metrics=metrics)
        assert metrics.counter("executor.loops_priced") == len(sim.loops)
        assert metrics.gauges["executor.total_seconds"] == sim.total_seconds
        for ls in sim.loops:
            key = f"executor.loop_seconds{{loop={ls.name}}}"
            assert len(metrics.histograms[key]) >= 1

    def test_replication_decision_is_counted(self):
        metrics = MetricsRegistry()
        get_bundle("pagerank").simulate(metrics=metrics)
        assert (metrics.counter("executor.replication_decisions")
                + metrics.counter("executor.remote_fetch_decisions")) >= 1


# ---------------------------------------------------------------------------
# typed diagnostics
# ---------------------------------------------------------------------------

class TestDiagnostics:
    def test_unknown_stencil_is_typed_and_attributed(self):
        c = get_bundle("pagerank").compiled("opt")
        diags = [d for d in c.diagnostics
                 if d.category is DiagCategory.UNKNOWN_STENCIL_FALLBACK]
        assert diags, "pagerank's gather loop must trip the fallback"
        d = diags[0]
        assert d.loop is not None
        assert "falling back" in d.message
        assert d.loop in d.render() and d.category.value in d.render()

    def test_warnings_is_a_derived_view(self):
        c = get_bundle("pagerank").compiled("opt")
        assert c.warnings == [d.message for d in c.report.diagnostics
                              if d.severity == "warning"]
        assert any("falling back" in w for w in c.warnings)

    def test_cuda_vector_reduce_diagnostic(self):
        from repro.apps.gda import gda_program
        from repro.pipeline import compile_program
        c = compile_program(gda_program(), "gpu",
                            apply_nested_transforms=False)
        # without Row-to-Column Reduce gda's column sum keeps a vector
        # accumulator on the device
        cats = [d.category for d in c.diagnostics]
        assert DiagCategory.CUDA_VECTOR_REDUCE in cats
        d = next(d for d in c.diagnostics
                 if d.category is DiagCategory.CUDA_VECTOR_REDUCE)
        assert d.loop is not None and d.data.get("kind")

    def test_gpu_transforms_remove_vector_reduce(self):
        c = get_bundle("gda").compiled("gpu")
        assert DiagCategory.CUDA_VECTOR_REDUCE not in \
               [d.category for d in c.diagnostics]


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------

def run_cli(*argv) -> str:
    buf = io.StringIO()
    with redirect_stdout(buf):
        rc = tools.main(list(argv))
    assert rc == 0
    return buf.getvalue()


@pytest.fixture(scope="module")
def kmeans_observed(tmp_path_factory):
    """One observed CLI run of kmeans: its stdout and its Chrome trace.
    The priced time does not depend on the engine, so it runs on the
    NumPy backend."""
    path = tmp_path_factory.mktemp("cli") / "km.json"
    out = run_cli("kmeans", "--profile", "--trace-out", str(path),
                  "--backend", "numpy")
    return out, path


class TestCli:
    def test_profile_prints_breakdown(self, kmeans_observed):
        out, _ = kmeans_observed
        assert "TOTAL" in out and "100.0%" in out
        assert "compute" in out and "comm" in out

    def test_profile_total_matches_sim(self, kmeans_observed):
        out, _ = kmeans_observed
        sim = get_bundle("kmeans").simulate(backend="numpy")
        assert f"{sim.total_seconds * 1e3:10.3f}".strip() in out

    def test_trace_out_writes_valid_trace(self, kmeans_observed):
        _, path = kmeans_observed
        assert validate_file(str(path)) == []

    def test_metrics_flag(self):
        out = run_cli("q1", "--metrics")
        assert "counters:" in out and "executor.loops_priced" in out

    def test_staged_rejects_report_and_profile_flags(self):
        """Regression: --stage staged used to silently ignore --report."""
        for flags in (["--report"], ["--profile"],
                      ["--trace-out", "/tmp/x.json"], ["--metrics"]):
            assert tools.main(["kmeans", "--stage", "staged"] + flags) == 2

    def test_profile_needs_a_bundle(self, capsys):
        assert tools.main(["knn", "--profile"]) == 2
        assert "bundled dataset" in capsys.readouterr().err

    def test_gpu_profile(self, tmp_path):
        path = tmp_path / "lr.json"
        out = run_cli("logreg", "--target", "gpu", "--profile",
                      "--trace-out", str(path))
        assert "GPU" in out
        assert validate_file(str(path)) == []
