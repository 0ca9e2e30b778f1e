"""The SLO engine (DESIGN.md §10): declarative specs, error budgets,
sliding-window burn rates, and the ``slo-report`` CLI gate.

The engine consumes plain response-shaped records (``finish_s``,
``latency_s``, ``fallback_reason``), so most tests score synthetic
traffic where the right answer is computable by hand; the CLI tests
drive real simulated serving runs end to end.
"""

import io
import json
from contextlib import redirect_stdout
from dataclasses import dataclass
from typing import Optional

import pytest

from repro import tools
from repro.obs import (BurnWindow, SLOObjective, SLOReport, SLOSpec,
                       evaluate_slo)


@dataclass
class FakeResponse:
    finish_s: float
    latency_s: float
    fallback_reason: Optional[str] = None


def responses(latencies, spacing_s=0.01, fallbacks=()):
    out = []
    for i, lat in enumerate(latencies):
        out.append(FakeResponse(finish_s=(i + 1) * spacing_s, latency_s=lat,
                                fallback_reason=("x" if i in fallbacks
                                                 else None)))
    return out


def spec(target=0.9, threshold_ms=50.0, window_s=0.05, kind="latency"):
    objs = [{"name": "obj", "kind": kind, "target": target,
             "threshold_ms": threshold_ms}]
    return SLOSpec.from_json({"name": "t", "window_s": window_s,
                              "objectives": objs})


# ---------------------------------------------------------------------------
# spec parsing and validation
# ---------------------------------------------------------------------------

class TestSpec:
    def test_from_json_round_trip(self):
        s = SLOSpec.from_json({
            "name": "interactive", "window_s": 0.1,
            "objectives": [
                {"name": "p99", "kind": "latency", "target": 0.99,
                 "threshold_ms": 80},
                {"name": "avail", "kind": "availability", "target": 0.995},
            ]})
        assert s.name == "interactive" and s.window_s == 0.1
        p99, avail = s.objectives
        assert p99.threshold_s == pytest.approx(0.08)
        assert p99.budget == pytest.approx(0.01)
        assert avail.kind == "availability"
        assert avail.threshold_s is None

    def test_load(self):
        s = SLOSpec.load("examples/slo_serving.json")
        assert {o.kind for o in s.objectives} == {"latency", "availability"}

    def test_rejects_bad_specs(self):
        with pytest.raises(ValueError):
            SLOSpec.from_json({"name": "empty", "objectives": []})
        with pytest.raises(ValueError):
            spec(target=1.5)
        with pytest.raises(ValueError):
            spec(target=0.9, threshold_ms=None)  # latency needs threshold
        with pytest.raises(ValueError):
            SLOObjective("x", "throughput", 0.9)
        with pytest.raises(ValueError):
            spec(window_s=0.0)
        with pytest.raises(ValueError):
            SLOSpec.from_json([])

    @pytest.mark.parametrize("doc, field", [
        ({"objectives": [1]}, "objectives"),
        ({"objectives": 5}, "objectives"),
        ({"objectives": [{"kind": "availability", "target": None}]},
         "target"),
        ({"objectives": [{"kind": "latency", "threshold_ms": "fast"}]},
         "threshold_ms"),
        ({"window_s": None, "objectives": [{"kind": "availability"}]},
         "window_s"),
    ])
    def test_malformed_fields_are_named(self, doc, field):
        with pytest.raises(ValueError, match=field):
            SLOSpec.from_json(doc)

    def test_describe(self):
        s = spec(target=0.99, threshold_ms=80.0)
        assert "99%" in s.objectives[0].describe()
        assert "80 ms" in s.objectives[0].describe()


# ---------------------------------------------------------------------------
# evaluation: budgets and burn rates
# ---------------------------------------------------------------------------

class TestEvaluate:
    def test_all_good_within_budget(self):
        rep = evaluate_slo(spec(), responses([0.01] * 20))
        assert rep.ok
        (r,) = rep.results
        assert (r.total, r.bad) == (20, 0)
        assert r.error_rate == 0.0
        assert r.budget_consumed == 0.0
        assert r.max_burn_rate == 0.0

    def test_budget_exhaustion_violates(self):
        # 10% budget; 4/20 bad = 20% error rate = 2x the budget
        lats = [0.01] * 16 + [0.2] * 4
        rep = evaluate_slo(spec(target=0.9), responses(lats))
        assert not rep.ok
        (r,) = rep.results
        assert r.bad == 4
        assert r.budget_consumed == pytest.approx(2.0)
        assert r.to_json()["status"] == "violated"

    def test_availability_objective_counts_fallbacks(self):
        rep = evaluate_slo(spec(target=0.9, kind="availability"),
                           responses([0.01] * 10, fallbacks={0, 1, 2}))
        (r,) = rep.results
        assert r.bad == 3
        assert not rep.ok  # 30% fallback rate vs 10% budget

    def test_burn_rate_spike_detected_inside_budget(self):
        # 2/40 bad overall (5% < 10% budget: within budget) but both bad
        # responses land in one 50 ms window -> local burn >> 1x
        lats = [0.01] * 40
        lats[10] = lats[11] = 0.2
        rep = evaluate_slo(spec(target=0.9), responses(lats))
        (r,) = rep.results
        assert rep.ok
        assert r.max_burn_rate > 1.0
        worst = r.worst_window
        assert worst is not None and worst.bad == 2
        # the worst window actually contains the spike finish times
        assert worst.t0_s <= 0.11 <= worst.t1_s

    def test_burn_window_math(self):
        w = BurnWindow(0.0, 0.05, total=10, bad=2)
        assert w.burn_rate(0.1) == pytest.approx(2.0)
        assert BurnWindow(0, 1, 0, 0).burn_rate(0.1) == 0.0

    def test_empty_run_is_ok(self):
        rep = evaluate_slo(spec(), [])
        assert rep.ok
        (r,) = rep.results
        assert (r.total, r.bad) == (0, 0)
        assert r.windows == []

    def test_json_and_render(self):
        rep = evaluate_slo(spec(), responses([0.01] * 5))
        doc = rep.to_json()
        assert doc["status"] == "ok"
        assert doc["objectives"][0]["budget"] == pytest.approx(0.1)
        text = rep.render()
        assert "SLO report" in text and "ok" in text
        assert isinstance(rep, SLOReport)


# ---------------------------------------------------------------------------
# burn-rate edge cases: degenerate windows and single-sample runs
# ---------------------------------------------------------------------------

class TestBurnEdgeCases:
    def test_window_longer_than_run(self):
        # window 10 s over a 50 ms run: one window swallows the whole
        # timeline, so the local burn equals the global budget burn
        rep = evaluate_slo(spec(target=0.9, window_s=10.0),
                           responses([0.01, 0.01, 0.2, 0.01, 0.01]))
        (r,) = rep.results
        assert len(r.windows) == 1
        w = r.windows[0]
        assert (w.total, w.bad) == (5, 1)
        assert w.t1_s >= max(0.01 * (i + 1) for i in range(5))
        assert r.max_burn_rate == pytest.approx(r.budget_consumed)
        assert r.worst_window is w

    def test_zero_request_windows_skipped(self):
        # two bursts separated by a long silent gap: windows over the
        # gap hold zero requests and must be skipped, not scored as
        # zero-burn evidence (which would dilute max_burn_rate)
        rs = responses([0.01, 0.01], spacing_s=0.01)
        rs += [FakeResponse(finish_s=1.0 + i * 0.01, latency_s=0.2)
               for i in range(2)]
        rep = evaluate_slo(spec(target=0.9, window_s=0.05), rs)
        (r,) = rep.results
        assert r.windows and all(w.total > 0 for w in r.windows)
        # the silent second is not covered by any retained window
        assert not any(w.t0_s > 0.1 and w.t1_s < 1.0 for w in r.windows)
        # the late all-bad burst still dominates the burn signal
        assert r.max_burn_rate == pytest.approx(1.0 / r.objective.budget)
        assert r.worst_window.bad == 2

    def test_zero_total_window_burns_nothing(self):
        assert BurnWindow(0.0, 0.05, total=0, bad=0).burn_rate(0.01) == 0.0

    def test_single_sample_availability_ok(self):
        rep = evaluate_slo(spec(target=0.99, kind="availability"),
                           responses([0.01]))
        (r,) = rep.results
        assert (r.total, r.bad) == (1, 0)
        assert rep.ok and r.max_burn_rate == 0.0
        assert r.worst_window is not None and r.worst_window.total == 1

    def test_single_sample_availability_fallback_violates(self):
        rep = evaluate_slo(spec(target=0.99, kind="availability"),
                           responses([0.01], fallbacks={0}))
        (r,) = rep.results
        assert (r.total, r.bad) == (1, 1)
        assert not rep.ok
        assert r.error_rate == 1.0
        # one bad sample against a 1% budget: a 100x burn, finite
        assert r.max_burn_rate == pytest.approx(100.0)
        doc = r.to_json()
        assert doc["status"] == "violated"
        assert doc["worst_window"]["bad"] == 1

    def test_single_sample_latency_threshold_boundary(self):
        # exactly at threshold is good; strictly above is bad
        at = evaluate_slo(spec(threshold_ms=50.0), responses([0.05]))
        above = evaluate_slo(spec(threshold_ms=50.0), responses([0.0500001]))
        assert at.results[0].bad == 0
        assert above.results[0].bad == 1


# ---------------------------------------------------------------------------
# the slo-report CLI (the CI gate)
# ---------------------------------------------------------------------------

class TestSLOReportCLI:
    def run(self, *argv):
        buf = io.StringIO()
        with redirect_stdout(buf):
            code = tools.main(list(argv))
        return code, buf.getvalue()

    def test_passing_spec_exits_zero(self, tmp_path):
        out_json = tmp_path / "slo.json"
        code, out = self.run("slo-report", "q1", "--requests", "6",
                             "--clients", "2", "--seed", "1",
                             "--backend", "numpy",
                             "--spec", "examples/slo_serving.json",
                             "--out", str(out_json))
        assert code == 0
        assert "SLO report" in out
        doc = json.loads(out_json.read_text())
        assert doc["status"] == "ok"

    def test_violated_spec_exits_one(self, tmp_path):
        # a threshold no simulated request can meet exhausts the budget
        strict = tmp_path / "strict.json"
        strict.write_text(json.dumps({
            "name": "impossible",
            "objectives": [{"name": "p-tight", "kind": "latency",
                            "target": 0.99, "threshold_ms": 1e-6}]}))
        code, out = self.run("slo-report", "q1", "--requests", "6",
                             "--clients", "2", "--seed", "1",
                             "--spec", str(strict))
        assert code == 1
        assert "VIOLATED" in out

    def test_json_output(self):
        code, out = self.run("slo-report", "q1", "--requests", "4",
                             "--clients", "2", "--json", "--backend", "numpy",
                             "--spec", "examples/slo_serving.json")
        assert code == 0
        assert json.loads(out)["status"] == "ok"

    def test_usage_errors(self, tmp_path):
        assert self.run("slo-report",
                        "--spec", "examples/slo_serving.json")[0] == 2
        assert self.run("slo-report", "q1", "--spec", "nosuchfile.json")[0] \
            == 2
        bad = tmp_path / "bad.json"
        bad.write_text('{"name": "x", "objectives": []}')
        assert self.run("slo-report", "q1", "--spec", str(bad))[0] == 2

    @pytest.mark.parametrize("doc", [
        {"objectives": [1]}, {"objectives": 5},
        {"objectives": [{"kind": "availability", "target": None}]},
        {"window_s": None, "objectives": [{"kind": "availability"}]}])
    @pytest.mark.parametrize("cmd", ["slo-report", "serve-sim"])
    def test_malformed_spec_is_one_line_usage_error(self, tmp_path, capsys,
                                                   cmd, doc):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        flag = "--spec" if cmd == "slo-report" else "--slo"
        assert self.run(cmd, "q1", "--requests", "2", flag, str(bad))[0] == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "cannot load SLO spec" in err
