"""Trace analytics (DESIGN.md §12): critical-path extraction, exact
per-request latency decomposition, differential trace diff, and the
regression root-cause reports the observatory emits on gate failure.

The synthetic-tree tests pin the algorithms where the right answer is
computable by hand; the end-to-end tests drive real priced runs and
seeded serving simulations and hold the two hard guarantees: the
decomposition identity is exact (tolerance 0.0), and same-seed
``analyze --json`` output is byte-identical.
"""

import io
import json
import math
from contextlib import redirect_stdout

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import tools
from repro.bench import get_bundle
from repro.obs import Tracer
from repro.obs.analyze import (COMPONENTS, LoopDelta, decompose_timeline,
                               decomposition_summary, diff_loop_rows,
                               request_decomposition,
                               root_cause_from_records, root_cause_json)
from repro.obs.critical import critical_path, fleet_attribution
from repro.obs.history import RunRecord
from repro.obs.spans import RequestContext, RequestTimeline
from repro.serve import ServeSim

from . import obs_reference as ref
from .test_serve_pins import chaos_run

TOL = 1e-9


def run_cli(*argv):
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = tools.main(list(argv))
    return code, buf.getvalue()


# ---------------------------------------------------------------------------
# critical path: synthetic trees
# ---------------------------------------------------------------------------

def make_run(children):
    """A run with (start, dur) loop children and a matching total."""
    total = max((s + d for s, d in children), default=0.0)
    return ref.table(("run", "run", 0.0, total, [
        (f"loop{i}", "loop", s, d) for i, (s, d) in enumerate(children)]))


@st.composite
def span_trees(draw, depth=0, name="run"):
    """A tree as nested tuples; siblings have distinct names."""
    kind = draw(st.sampled_from(["loop", "machine", "socket"])) \
        if depth else "run"
    node = (name, kind, draw(st.sampled_from([0.0, 1.0, 2.5])),
            draw(st.sampled_from([0.0, 1e-13, 1.0, 3.0])))
    if depth == 3:
        return node
    n = draw(st.integers(0, 3))
    return node + ([draw(span_trees(depth + 1, f"{name}/{i}"))
                    for i in range(n)],)


def permuted(tree, order):
    """``tree`` with every node's children put in ``order(children)``."""
    if len(tree) < 5:
        return tree
    return tree[:4] + (order([permuted(c, order) for c in tree[4]]),)


class TestCriticalPath:
    def test_sequential_children_all_on_path(self):
        root = make_run([(0.0, 1.0), (1.0, 2.0), (3.0, 1.0)])
        cp = critical_path(root)
        names = [s.name for s in cp.steps]
        assert names == ["run", "loop0", "loop1", "loop2"]
        # leaves own their full duration; the parent has no self time
        assert cp.steps[0].self_s == pytest.approx(0.0, abs=TOL)
        assert cp.attributed_s == pytest.approx(cp.total_s, abs=TOL)

    def test_gap_is_parent_self_time(self):
        root = make_run([(0.0, 1.0), (2.0, 2.0)])  # hole in [1, 2)
        cp = critical_path(root)
        run_step = next(s for s in cp.steps if s.kind == "run")
        assert run_step.self_s == pytest.approx(1.0, abs=TOL)
        assert cp.attributed_s == pytest.approx(4.0, abs=TOL)

    def test_overlapping_children_pick_bounding_chain(self):
        # loopB ends last and bounds the end; loopA is fully shadowed
        root = ref.table(("run", "run", 0.0, 4.0, [
            ("loopA", "loop", 0.0, 2.0), ("loopB", "loop", 0.0, 4.0)]))
        cp = critical_path(root)
        names = [s.name for s in cp.steps]
        assert names == ["run", "loopB"]
        assert cp.attributed_s == pytest.approx(4.0, abs=TOL)

    @settings(max_examples=200, deadline=None)
    @given(span_trees(), st.data())
    def test_deterministic_under_child_order(self, tree, data):
        # the same tree with its sibling rows in any order has the same
        # path, step for step
        want = critical_path(ref.table(tree)).to_json()
        for order in (lambda kids: kids[::-1],
                      lambda kids: data.draw(st.permutations(kids))):
            got = critical_path(ref.table(permuted(tree, order))).to_json()
            assert got == want

    def test_nested_self_time_attribution(self):
        # loop [0,4) with machine chunk [0,3): 1s of loop self time
        root = ref.table(("run", "run", 0.0, 4.0, [
            ("loop", "loop", 0.0, 4.0, [("loop/m0", "machine", 0.0, 3.0)])]))
        cp = critical_path(root)
        loop_step = next(s for s in cp.steps if s.name == "loop")
        assert loop_step.self_s == pytest.approx(1.0, abs=TOL)
        assert cp.attributed_s == pytest.approx(4.0, abs=TOL)

    def test_kind_filter(self):
        root = ref.table(("run", "run", 0.0, 4.0, [
            ("loop", "loop", 0.0, 4.0, [("loop/m0", "machine", 0.0, 4.0)])]))
        cp = critical_path(root, kinds=("loop",))
        assert [s.kind for s in cp.steps] == ["run", "loop"]
        # the machine child is excluded, so the loop owns its time
        assert cp.steps[-1].self_s == pytest.approx(4.0, abs=TOL)


class TestCriticalPathReal:
    def test_attribution_covers_total(self):
        tracer = Tracer()
        sim = get_bundle("kmeans").simulate(tracer=tracer)
        cp = critical_path(tracer.last_run)
        assert cp.total_s == pytest.approx(sim.total_seconds, abs=TOL)
        assert cp.attributed_s == pytest.approx(cp.total_s, rel=1e-9)
        # chronological and inside the run
        starts = [s.start_s for s in cp.steps]
        assert starts == sorted(starts)
        assert cp.render()  # renders without blowing up
        doc = cp.to_json()
        assert doc["steps"] and doc["total_s"] == cp.total_s

    def test_dominant_loop_is_most_expensive(self):
        tracer = Tracer()
        sim = get_bundle("kmeans").simulate(tracer=tracer)
        cp = critical_path(tracer.last_run)
        dom = cp.dominant(kind="loop")
        heaviest = max(sim.loops, key=lambda l: l.time_s)
        assert dom is not None and dom.name == heaviest.name


# ---------------------------------------------------------------------------
# exact latency decomposition
# ---------------------------------------------------------------------------

def timeline(**marks):
    return RequestTimeline(RequestContext.derive(0, 0), marks)


class TestDecomposition:
    def test_components_are_mark_intervals(self):
        tl = timeline(arrive=1.0, enqueue=1.0, seal=1.02, dispatch=1.02,
                      exec_start=1.025, complete=1.035)
        comps = decompose_timeline(tl)
        assert comps["admission_s"] == pytest.approx(0.0, abs=TOL)
        assert comps["batch_window_s"] == pytest.approx(0.02, abs=TOL)
        assert comps["stagger_s"] == pytest.approx(0.005, abs=TOL)
        assert comps["execution_s"] == pytest.approx(0.01, abs=TOL)
        assert comps["latency_s"] == tl.marks["complete"] - tl.marks["arrive"]

    def test_identity_exact_tol_zero(self):
        tl = timeline(arrive=0.0031, enqueue=0.0031, seal=0.0231,
                      dispatch=0.0231, exec_start=0.0231, complete=0.0268)
        comps = decompose_timeline(tl)
        assert sum(comps[c] for c in COMPONENTS) == comps["latency_s"]

    def test_identity_exact_adversarial_magnitudes(self):
        # remainder >> accumulated prefix: the regime where a naive
        # `latency - acc` remainder is not bit-exact without correction
        base = 1.0
        for eps in (2.0 ** -53, 2.0 ** -40, 1e-9):
            tl = timeline(arrive=base, enqueue=base + eps,
                          seal=base + eps, dispatch=base + eps,
                          exec_start=base + eps,
                          complete=base + math.pi / 3)
            comps = decompose_timeline(tl)
            assert sum(comps[c] for c in COMPONENTS) == comps["latency_s"]

    def test_missing_bounding_marks(self):
        assert decompose_timeline(timeline(arrive=0.0)) is None
        assert decompose_timeline(timeline(complete=1.0)) is None

    def test_missing_middle_marks_collapse_to_zero(self):
        comps = decompose_timeline(timeline(arrive=0.0, complete=0.5))
        assert comps["admission_s"] == 0.0
        assert comps["batch_window_s"] == 0.0
        assert comps["execution_s"] == 0.5
        assert sum(comps[c] for c in COMPONENTS) == comps["latency_s"]


class TestServeDecomposition:
    @pytest.fixture(scope="class")
    def served(self):
        tracer = Tracer()
        sim = ServeSim(["kmeans"], max_batch=4, max_wait_s=0.02,
                       backend="numpy", tracer=tracer)
        report = sim.run_closed(clients=4, requests=12, seed=3)
        return sim, report, tracer

    def test_every_request_decomposes_exactly(self, served):
        sim, report, _tracer = served
        rows = request_decomposition(sim.last_server)
        assert len(rows) == report.requests
        for r in rows:
            assert sum(r[c] for c in COMPONENTS) == r["latency_s"]
            assert all(r[c] >= 0.0 for c in COMPONENTS)

    def test_report_carries_decomposition_section(self, served):
        _sim, report, _tracer = served
        doc = report.to_json()
        assert doc["decomposition"]["requests"] == report.requests
        comps = doc["decomposition"]["components"]
        assert comps["latency_s"]["mean_s"] == pytest.approx(
            report.latency_mean_s, rel=1e-9)
        assert set(doc["decomposition"]["per_app"]) == {"kmeans"}
        assert doc["decomposition"]["per_machine"]
        # per-group counts partition the run
        assert sum(v["count"] for v in
                   doc["decomposition"]["per_machine"].values()) \
            == report.requests

    def test_untraced_run_has_no_decomposition(self):
        sim = ServeSim(["kmeans"], max_batch=4, max_wait_s=0.02,
                       backend="numpy")
        report = sim.run_closed(clients=4, requests=8, seed=3)
        assert report.decomposition is None
        assert decomposition_summary(sim.last_server) is None
        assert "decomposition" not in report.to_json()

    def test_fleet_attribution(self, served):
        _sim, report, tracer = served
        fleet = fleet_attribution(tracer.last_run)
        assert fleet.makespan_s == pytest.approx(report.makespan_s,
                                                 abs=TOL)
        # busy time matches the report's utilization accounting
        busy = {f"{m.name}[{m.machine}]": m.busy_s for m in fleet.machines}
        for name, util in report.machine_util.items():
            assert busy.get(name, 0.0) == pytest.approx(
                util * report.makespan_s, rel=1e-9)
        # the critical chain tiles the makespan: batch segments plus
        # arrival-bound waits
        on_path = sum(m.critical_s for m in fleet.machines)
        assert on_path + fleet.wait_s == pytest.approx(fleet.makespan_s,
                                                       rel=1e-9)
        assert all(m.critical_s <= m.busy_s + TOL for m in fleet.machines)
        assert fleet.render() and fleet.to_json()["machines"]

    def test_fleet_attribution_tiles_the_benchmark_chaos_run(self):
        # the chaos workload at its benchmark size: crashes, retries and
        # hedges leave overlapping batches and idle gaps on two replicas
        _, tracer, report = chaos_run(0, 2000, (0.3, 0.5), (0.8, 1.0))
        fleet = fleet_attribution(tracer.last_run)
        assert fleet.makespan_s >= report.makespan_s
        assert {seg.kind for seg in fleet.chain} == {"batch", "wait"}
        assert sum(m.critical_s for m in fleet.machines) + fleet.wait_s == \
            fleet.makespan_s


# ---------------------------------------------------------------------------
# differential diff
# ---------------------------------------------------------------------------

def rows(spec):
    """[(name, op, time, compute), ...] -> breakdown rows."""
    return [{"loop": n, "op": op, "workers": 4, "time_s": t,
             "compute_s": c, "memory_s": 0.0, "comm_s": t - c,
             "overhead_s": 0.0} for n, op, t, c in spec]


class TestDiff:
    def test_alignment_strips_symbol_ids(self):
        a = rows([("cs12", "MultiFold", 1.0, 0.8)])
        b = rows([("cs97", "MultiFold", 1.5, 1.3)])
        (d,) = diff_loop_rows(a, b)
        assert d.status == "both" and d.key == "cs#"
        assert d.delta_s == pytest.approx(0.5, abs=TOL)
        assert d.driver()[0] == "compute_s"

    def test_structural_change_reported_not_misaligned(self):
        a = rows([("cs1", "MultiFold", 1.0, 1.0),
                  ("xs2", "MultiCollect", 0.5, 0.5)])
        b = rows([("cs9", "MultiFold", 1.0, 1.0)])
        deltas = diff_loop_rows(a, b)
        by_status = {d.status: d for d in deltas}
        assert by_status["only_a"].key == "xs#"
        assert by_status["both"].delta_s == pytest.approx(0.0, abs=TOL)

    def test_repeated_stripped_names_pair_positionally(self):
        a = rows([("m1", "MultiCollect", 1.0, 1.0),
                  ("m2", "MultiCollect", 2.0, 2.0)])
        b = rows([("m7", "MultiCollect", 1.1, 1.1),
                  ("m8", "MultiCollect", 2.4, 2.4)])
        deltas = diff_loop_rows(a, b)
        assert sorted(round(d.delta_s, 6) for d in deltas) == [0.1, 0.4]

    def test_sorted_by_absolute_delta(self):
        a = rows([("a1", "F", 1.0, 1.0), ("b1", "F", 1.0, 1.0)])
        b = rows([("a2", "F", 1.1, 1.1), ("b2", "F", 3.0, 3.0)])
        deltas = diff_loop_rows(a, b)
        assert deltas[0].key == "b#"


# ---------------------------------------------------------------------------
# root cause from history records
# ---------------------------------------------------------------------------

def record(app="kmeans", wall=0.02, sim_s=0.004, cycles=1000, digest="aaaa",
           fallbacks=0, ts=1.0, per_loop=None, decisions=None):
    extra = {"cluster": "numa-4x12"}
    if per_loop is not None:
        extra["per_loop"] = per_loop
    if decisions is not None:
        extra["decisions"] = decisions
    return RunRecord(app=app, backend="numpy", git_sha="abc1234",
                     wall_s=wall, sim_s=sim_s, cycles=cycles,
                     fallbacks=fallbacks, digest=digest, timestamp=ts,
                     extra=extra)


class TestRootCause:
    def test_needs_two_records(self):
        assert root_cause_from_records("kmeans", [record()]) is None

    def test_dominant_loop_and_machine_named(self):
        base_loops = rows([("bktred", "MultiFold", 0.003, 0.003),
                           ("mapidx", "MultiCollect", 0.001, 0.001)])
        hot_loops = rows([("bktred", "MultiFold", 0.009, 0.009),
                          ("mapidx", "MultiCollect", 0.001, 0.001)])
        recs = [record(ts=1.0, per_loop=base_loops),
                record(ts=2.0, sim_s=0.010, per_loop=hot_loops)]
        rc = root_cause_from_records("kmeans", recs)
        dom = rc.dominant()
        assert dom.key == "bktred" and dom.driver()[0] == "compute_s"
        text = rc.render()
        assert "dominant contributor: loop bktred" in text
        assert "on numa-4x12" in text
        assert "digest stable" in text
        doc = json.loads(root_cause_json(rc))
        assert doc["dominant"]["loop"] == "bktred"
        assert doc["cluster"] == "numa-4x12"

    def test_ledger_cross_reference_on_digest_drift(self):
        keys_a = ["fusion-vertical|cs#|applied|fused producer|x1",
                  "transform|xs#|applied|Fig3a|x1"]
        keys_b = ["fusion-vertical|cs#|applied|fused producer|x1",
                  "transform|xs#|rejected|guard failed|x1"]
        recs = [record(ts=1.0, digest="aaaa", decisions=keys_a,
                       per_loop=rows([("cs1", "F", 1.0, 1.0)])),
                record(ts=2.0, digest="bbbb", decisions=keys_b,
                       per_loop=rows([("cs2", "F", 1.2, 1.2)]))]
        rc = root_cause_from_records("kmeans", recs)
        assert rc.digest_drifted
        assert rc.ledger_only_baseline == ["transform|xs#|applied|Fig3a|x1"]
        assert rc.ledger_only_latest == \
            ["transform|xs#|rejected|guard failed|x1"]
        text = rc.render()
        assert "digest drifted aaaa -> bbbb" in text
        assert "+ transform|xs#|rejected|guard failed|x1" in text
        assert "--explain-diff" in text

    def test_baseline_is_rolling_median_record(self):
        # walls 10/20/30 -> median 20 -> that record is the baseline
        recs = [record(ts=1.0, wall=0.010, digest="d1"),
                record(ts=2.0, wall=0.030, digest="d2"),
                record(ts=3.0, wall=0.020, digest="d3"),
                record(ts=4.0, wall=0.040, digest="d3")]
        rc = root_cause_from_records("kmeans", recs)
        assert rc.baseline.digest == "d3" and rc.baseline.wall_s == 0.020

    def test_degrades_without_per_loop_telemetry(self):
        recs = [record(ts=1.0), record(ts=2.0)]
        rc = root_cause_from_records("kmeans", recs)
        assert rc.dominant() is None
        assert any("per-loop breakdown missing" in n for n in rc.notes)
        assert rc.render()


# ---------------------------------------------------------------------------
# forced regression end to end: inflate one loop, gate fails, report
# names the loop and its machine
# ---------------------------------------------------------------------------

class TestForcedRegression:
    def _record_run(self, tmp_path, monkeypatch, inflate=None, ts=1.0):
        from repro.obs.history import append_record, git_sha
        from repro.obs.provenance import strip_ids
        from repro.runtime.executor import Simulator
        bundle = get_bundle("kmeans")
        with monkeypatch.context() as mp:
            if inflate is not None:
                # a real regression, forced: "loop:factor" multiplies every
                # priced cost component of that loop
                hot, _, factor = inflate.partition(":")
                price_loop = Simulator._price_loop

                def inflated(self, *args):
                    ls = price_loop(self, *args)
                    if ls.name == hot:
                        for part in ("compute_s", "memory_s", "comm_s",
                                     "overhead_s"):
                            setattr(ls, part, getattr(ls, part) * float(factor))
                    return ls
                mp.setattr(Simulator, "_price_loop", inflated)
            sim = bundle.simulate("opt")
        led = bundle.compiled("opt").provenance
        per_loop = [{"loop": ls.name, "key": strip_ids(ls.name),
                     "op": ls.op_name, "workers": ls.workers,
                     "time_s": ls.time_s, "compute_s": ls.compute_s,
                     "memory_s": ls.memory_s, "comm_s": ls.comm_s,
                     "overhead_s": ls.overhead_s} for ls in sim.loops]
        append_record(RunRecord(
            app="kmeans", backend="numpy", git_sha=git_sha(),
            wall_s=0.02, sim_s=sim.total_seconds, cycles=1000,
            fallbacks=0, digest=led.digest() if led else "",
            timestamp=ts,
            extra={"cluster": "numa-4x12", "per_loop": per_loop,
                   "decisions": led.normalized_keys() if led else []}),
            root=tmp_path)
        return sim

    def test_gate_fails_and_report_names_loop_and_machine(
            self, tmp_path, monkeypatch, capsys):
        from repro.obs import regress
        base = self._record_run(tmp_path, monkeypatch, ts=1.0)
        self._record_run(tmp_path, monkeypatch, ts=2.0)
        hot_name = max(base.loops, key=lambda l: l.time_s).name
        self._record_run(tmp_path, monkeypatch,
                         inflate=f"{hot_name}:3.0", ts=3.0)
        out_dir = tmp_path / "reports"
        code = regress.main(["--history", str(tmp_path),
                             "--report-out", str(out_dir)])
        out = capsys.readouterr().out
        assert code == regress.EXIT_FAIL
        assert "simulated-time regression" in out
        # the root-cause report names the loop and its machine
        assert f"dominant contributor: loop {hot_name}" in out
        assert "on numa-4x12" in out
        assert "digest stable" in out  # same compile, cost-only change
        report = json.loads(
            (out_dir / "root-cause-kmeans.json").read_text())
        assert report["dominant"]["loop"] == hot_name
        assert report["cluster"] == "numa-4x12"
        assert report["problems"]

    def test_pricing_is_deterministic(self):
        bundle = get_bundle("q1")
        a = bundle.simulate("opt")
        b = bundle.simulate("opt")
        assert a.total_seconds == b.total_seconds
        assert [l.time_s for l in a.loops] == [l.time_s for l in b.loops]


# ---------------------------------------------------------------------------
# the analyze CLI
# ---------------------------------------------------------------------------

class TestAnalyzeCli:
    def test_critical_path_mode(self):
        code, out = run_cli("analyze", "kmeans", "--critical-path")
        assert code == 0
        assert "critical path: kmeans" in out
        assert "dominant loop:" in out

    def test_requests_mode_exact(self):
        code, out = run_cli("analyze", "kmeans", "--requests",
                            "--count", "8", "--clients", "4")
        assert code == 0
        assert "decomposition exact" in out
        assert "fleet attribution" in out

    def test_same_seed_json_byte_identical(self):
        args = ("analyze", "kmeans", "--requests", "--json",
                "--count", "8", "--clients", "4", "--seed", "7",
                "--backend", "numpy")
        code1, out1 = run_cli(*args)
        code2, out2 = run_cli(*args)
        assert code1 == code2 == 0
        assert out1 == out2
        doc = json.loads(out1)
        assert doc["exact"] is True
        assert len(doc["requests"]) == 8
        for r in doc["requests"]:
            assert sum(r[c] for c in COMPONENTS) == r["latency_s"]

    def test_diff_mode_with_history(self, tmp_path):
        from repro.obs.history import append_record
        append_record(record(ts=1.0,
                             per_loop=rows([("cs1", "F", 1.0, 1.0)])),
                      root=tmp_path)
        append_record(record(ts=2.0, sim_s=0.006,
                             per_loop=rows([("cs2", "F", 1.5, 1.5)])),
                      root=tmp_path)
        code, out = run_cli("analyze", "kmeans", "--diff", "prev",
                            "latest", "--history", str(tmp_path))
        assert code == 0
        assert "root-cause report: kmeans" in out
        assert "cs#" in out

    def test_diff_mode_bootstrap_is_informational(self, tmp_path):
        code, out = run_cli("analyze", "kmeans", "--diff", "prev",
                            "latest", "--history", str(tmp_path))
        assert code == 0
        assert "nothing to report" in out

    def test_diff_mode_bad_refs(self, tmp_path):
        from repro.obs.history import append_record
        append_record(record(ts=1.0), root=tmp_path)
        append_record(record(ts=2.0), root=tmp_path)
        code, _ = run_cli("analyze", "kmeans", "--diff", "oops",
                          "latest", "--history", str(tmp_path))
        assert code == 2

    def test_usage_errors(self):
        code, _ = run_cli("analyze")
        assert code == 2
        code, _ = run_cli("analyze", "not-an-app")
        assert code == 2


# ---------------------------------------------------------------------------
# zero cost when disabled
# ---------------------------------------------------------------------------

class TestZeroCost:
    def test_plain_sim_allocates_no_analytics_state(self):
        sim = get_bundle("kmeans").simulate("opt")
        assert all(l.detail is None for l in sim.loops)

    def test_regress_checker_unchanged_without_extras(self):
        # records without per_loop/decisions still pass the gate logic
        from repro.obs.regress import check_records
        recs = [RunRecord(app="a", backend="numpy", git_sha="x",
                          wall_s=0.01, sim_s=0.001, cycles=100,
                          fallbacks=0, digest="d", timestamp=float(i + 1))
                for i in range(4)]
        v = check_records("a", recs)
        assert v.ok
