"""Tests of the benchmark harness itself: ``pytest benchmarks/e2e``.

Outside the tier-1 ``testpaths``: they check that the harness measures
and reports what ``BENCHMARK.json`` declares, not that the system under
test is right (the benchmark's own oracle does that on every run).
"""

from __future__ import annotations

import json
import pathlib
import re
import subprocess
import sys
import time

import pytest

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path.insert(0, str(HERE))

import metrics  # noqa: E402
import trace as e2e_trace  # noqa: E402

SPEC = metrics.load_spec()
E2E = [m["name"] for m in SPEC["end_to_end"]]
LAYER = [m["name"] for m in SPEC["per_layer"]]


def run_py(*argv: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(HERE / "run.py"), *argv],
                          cwd=ROOT, capture_output=True, text=True,
                          timeout=170)


def tree(*dirs: pathlib.Path) -> set:
    return {(str(p), p.stat().st_mtime_ns) for d in dirs
            for p in d.glob("*") if p.is_file()}


def test_smoke_emits_every_declared_metric_and_writes_only_to_out(tmp_path):
    watched = (ROOT, ROOT / "benchmarks" / "history",
               ROOT / "benchmarks" / "results")
    before = tree(*watched)
    t0 = time.perf_counter()
    proc = run_py("--smoke", "--seed", "0", "--out", str(tmp_path))
    elapsed = time.perf_counter() - t0
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    assert elapsed < 20.0
    assert tree(*watched) == before

    with open(tmp_path / "results-all-seed0.json") as fh:
        doc = json.load(fh)
    assert list(doc["workloads"]) == [w["name"] for w in SPEC["workloads"]]
    for name, entry in doc["workloads"].items():
        assert entry["failed"] == 0 and entry["attempted"] >= 1, name
        assert list(entry["end_to_end"]) == E2E, name
        assert list(entry["per_layer"]) == LAYER, name
        for metric in E2E:
            assert entry["end_to_end"][metric]["value"] > 0, (name, metric)
    # every per-layer metric is entered by at least one workload
    for metric in LAYER:
        assert any(e["per_layer"][metric] is not None
                   for e in doc["workloads"].values()), metric
        assert metric in proc.stdout
    for metric in E2E:
        assert metric in proc.stdout

    from repro.obs.check import validate_file
    assert validate_file(str(tmp_path / "trace-all-seed0.json")) == []


@pytest.mark.parametrize("trace,names", [("0", E2E), ("1", LAYER)])
def test_one_line_result_of_a_single_pass(trace, names):
    proc = run_py("--smoke", "--workload", "exec_lane_bound", "--seed", "1",
                  "--seconds", "0.2", "--trace", trace)
    assert proc.returncode == 0, proc.stderr[-2000:]
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    assert list(result["metrics"]) == names
    units = {m["name"]: m["unit"] for m in SPEC["end_to_end"]
             + SPEC["per_layer"]}
    for name, m in result["metrics"].items():
        assert set(m) == {"value", "unit"} and m["unit"] == units[name]
        assert isinstance(m["value"], (int, float))


def test_declarations_match_the_code_and_the_contract():
    import layers
    import workloads
    assert [(w["name"], w["why"]) for w in SPEC["workloads"]] == \
        [(w.name, w.why) for w in workloads.WORKLOADS.values()]
    assert LAYER == list(layers.NAMES)
    names = E2E + LAYER + [w["name"] for w in SPEC["workloads"]]
    assert len(set(names)) == len(names)
    for name in names:
        assert re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", name), name
    for m in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert re.fullmatch(r"[A-Za-z0-9_/%.-]{1,16}", m["unit"]), m
        assert m["better"] in ("lower", "higher")
    assert all(0 < m["bound"] <= 0.25 for m in SPEC["end_to_end"])
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])
    assert 2 <= len(SPEC["workloads"]) <= 8 and len(LAYER) <= 128
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"]
               for w in SPEC["workloads"])
    assert SPEC["paths"] == ["benchmarks/e2e"]


def test_self_time_is_duration_minus_covered_child_time():
    def span(name, start, end, parent):
        return {"name": name, "start": start, "end": end, "parent": parent,
                "workload": "w", "round": 0, "tags": {}}
    spans = [
        span("root", 0.0, 10.0, None),
        span("a", 1.0, 4.0, 0),
        span("b", 3.0, 6.0, 0),      # overlaps a: [1, 6] is covered once
        span("a.leaf", 1.5, 2.0, 1),
        span("c", 8.0, 12.0, 0),     # sticks out: clipped to the parent
    ]
    assert e2e_trace.self_times(spans) == \
        pytest.approx([10 - 5 - 2, 3 - 0.5, 3.0, 0.5, 4.0])


def test_recorder_nests_spans_and_is_free_when_off():
    rec = e2e_trace.Recorder(workload="w")
    with rec.span("outer", app="x"):
        with rec.span("inner"):
            pass
    outer, inner = rec.spans
    assert inner["parent"] == 0 and outer["parent"] is None
    assert outer["start"] <= inner["start"] <= inner["end"] <= outer["end"]
    assert rec.durations_ms("outer", app="x") and \
        not rec.durations_ms("outer", app="y")
    off = e2e_trace.Recorder(enabled=False)
    with off.span("outer"):
        pass
    assert off.spans == []


def test_a_wrong_oracle_fails_ops_and_the_exit_status():
    proc = run_py("--smoke", "--workload", "exec_dispatch_bound",
                  "--seconds", "0.1", "--trace", "0", "--break-oracle")
    assert proc.returncode != 0
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] is False and result["failed"] > 0
    assert "reference interpreter on the staged program" in proc.stdout


def test_compare_verdicts():
    import compare
    a = {0: 1.00, 1: 1.02, 2: 0.98, 3: 1.01}
    assert compare.verdict(a, a, "lower", 0.1) == "same"
    slow = {s: v * 1.3 for s, v in a.items()}
    assert compare.verdict(a, slow, "lower", 0.1) == "worse"
    assert compare.verdict(a, slow, "higher", 0.1) == "better"
    noisy = {0: 0.5, 1: 1.5, 2: 1.0, 3: 2.0}
    assert compare.verdict(noisy, noisy, "lower", 0.1) == "unresolved"
    # the simulated clock and counts: equal means equal
    off = {**a, 3: 1.0100001}
    assert compare.exact_verdict(a, a, "lower") == "same"
    assert compare.exact_verdict(a, off, "lower") == "worse"
    assert compare.exact_verdict(a, off, "higher") == "better"
