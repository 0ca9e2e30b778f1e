"""The repository's benchmark: one command, two clocks, six workloads.

    python benchmarks/e2e/run.py --seed 0

runs every workload of ``BENCHMARK.json`` in a fresh child process:
first with harness tracing **off** (set-up timed from outside over
several fresh processes, discarded warm-up rounds, then rounds for
``--seconds`` seconds), checks the outputs against an independent
oracle, and prints every end-to-end metric by name with unit, direction
and bound; then makes a shorter **traced** pass in the same child that
times the calls into each layer's public functions and prints the
per-layer metrics. Exit status is non-zero when any attempted operation
failed.

The acceptance driver calls it one workload and one pass at a time:

    python benchmarks/e2e/run.py --workload W --seed N --seconds S --trace 0|1

and reads the last line of standard output: one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics`` (every
``end_to_end`` metric with ``--trace 0``, every ``per_layer`` metric
with ``--trace 1``).

Nothing is written anywhere unless ``--out DIR`` is given (results JSON
for ``compare.py`` and the harness's own Chrome trace).
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import pathlib
import resource
import subprocess
import sys
import time
import traceback
from typing import Any, Dict, List, Optional

from metrics import (ROOT, declared, geomean, load_spec, quartiles, summary)
from trace import NO_ROUND, Recorder, chrome_events

#: the box has two cores: keep every numeric library on one thread, so
#: that a round is one client's closed loop and nothing else
ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
       "MKL_NUM_THREADS": "1"}

#: fresh processes whose spawn-to-READY time is a ``setup_s`` sample
SETUP_SAMPLES = 4

#: warm-up ends after this many rounds or this many seconds, whichever
#: comes first (but never before one round)
WARMUP_ROUNDS, WARMUP_SECONDS = 2, 1.5


# ---------------------------------------------------------------------------
# the child: one workload, one process
# ---------------------------------------------------------------------------

def timed_round(w, index: int, traced: bool):
    gc.collect()
    w.rec.enabled = traced
    w.rec.round = index if traced else NO_ROUND
    t0 = time.perf_counter()
    with w.rec.span("harness.round"):
        parts = w.round()
    return time.perf_counter() - t0, parts


def measure(w, seconds: float, passes: str) -> Dict[str, Any]:
    """Warm up, run the untraced rounds, then (traced pass) alternate
    untraced and traced rounds, then verify. ``passes`` is ``untraced``,
    ``traced`` or ``both``."""
    traced_pass = passes != "untraced"
    t0 = time.perf_counter()
    warm = 0
    while warm < 1 or (warm < WARMUP_ROUNDS
                       and time.perf_counter() - t0 < WARMUP_SECONDS):
        timed_round(w, warm, False)
        warm += 1

    host_s: List[float] = []
    parts: Dict[str, List[float]] = {}
    if passes != "traced":
        t0 = time.perf_counter()
        while (len(host_s) < w.sizes.min_rounds
               or time.perf_counter() - t0 < seconds):
            dt, p = timed_round(w, len(host_s), False)
            host_s.append(dt)
            for k, v in p.items():
                parts.setdefault(k, []).append(v)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    untraced_s: List[float] = []
    traced_s: List[float] = []
    if traced_pass:
        t0 = time.perf_counter()
        while (len(traced_s) < w.sizes.trace_rounds
               or (len(traced_s) < w.sizes.trace_rounds_max
                   and time.perf_counter() - t0 < w.sizes.trace_seconds)):
            untraced_s.append(timed_round(w, len(traced_s), False)[0])
            traced_s.append(timed_round(w, len(traced_s), True)[0])

    w.rec.enabled = traced_pass
    w.rec.round = NO_ROUND
    with w.rec.span("harness.oracle"):
        w.verify()
    per_layer = None
    if traced_pass:
        import layers
        from repro.obs.check import validate_events
        with w.rec.span("harness.replay"):
            per_layer = layers.collect(w, traced_s, untraced_s)
        errors = validate_events(chrome_events([w.rec.spans]))
        w.check(not errors, f"harness trace is invalid: {errors[:3]}")

    return {"host_s": host_s, "parts": parts, "rss_mb": rss_mb,
            "per_layer": per_layer, "spans": w.rec.spans,
            "counts": w.rec.counts}


def child_main(args) -> int:
    """Set up, say READY, measure, print one RESULT line. The parent
    times set-up from outside (spawn to READY), so imports count."""
    from workloads import FULL, SMOKE, WORKLOADS
    rec = Recorder(enabled=args.passes != "untraced", workload=args.workload)
    w = WORKLOADS[args.workload](args.seed, SMOKE if args.smoke else FULL,
                                 rec)
    if args.break_oracle:
        w.reference = lambda prog, inputs: (("not the answer",), None)
    with rec.span("harness.setup"):
        w.setup()
    print("READY", flush=True)
    if args.passes == "setup":
        return 0
    result: Dict[str, Any] = {}
    try:
        result = measure(w, args.seconds, args.passes)
    except Exception:
        # the boundary that must still report: an exception anywhere in
        # a round, the oracle or a replay is one failed operation
        traceback.print_exc()
        w.check(False, "exception: " + traceback.format_exc(limit=1)
                .strip().splitlines()[-1])
    result.update(attempted=w.attempted, failed=len(w.failures),
                  failures=w.failures[:20])
    print("RESULT " + json.dumps(result), flush=True)
    return 0


# ---------------------------------------------------------------------------
# the parent: spawn, time set-up, reduce, print
# ---------------------------------------------------------------------------

def spawn(args, workload: str, passes: str):
    """Start one child; returns (process, seconds from spawn to READY)."""
    cmd = [sys.executable, str(pathlib.Path(__file__).resolve()), "--child",
           "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--passes", passes]
    if args.smoke:
        cmd.append("--smoke")
    if args.break_oracle:
        cmd.append("--break-oracle")
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                            env={**os.environ, **ENV})
    line = proc.stdout.readline()
    setup_s = time.perf_counter() - t0
    if line.strip() != "READY":
        proc.stdout.read()
        proc.wait()
        raise RuntimeError(f"{workload}: child failed during set-up "
                           f"(exit {proc.returncode})")
    return proc, setup_s


def run_workload(args, workload: str, passes: str, setup_samples: int
                 ) -> Dict[str, Any]:
    """All child processes of one workload, one after another."""
    setups = []
    for _ in range(setup_samples - 1):
        proc, setup_s = spawn(args, workload, "setup")
        proc.stdout.read()
        if proc.wait() != 0:
            raise RuntimeError(f"{workload}: set-up child exited "
                               f"{proc.returncode}")
        setups.append(setup_s)
    proc, setup_s = spawn(args, workload, passes)
    setups.append(setup_s)
    tail = proc.stdout.read()
    rc = proc.wait()
    lines = [ln for ln in tail.splitlines() if ln.startswith("RESULT ")]
    if rc != 0 or not lines:
        raise RuntimeError(f"{workload}: child exited {rc} without a result")
    result = json.loads(lines[-1][len("RESULT "):])
    result["setup_s"] = setups
    return result


def end_to_end(result: Dict[str, Any]) -> Dict[str, dict]:
    """Reduce one child's raw samples to the end-to-end metrics."""
    parts = result["parts"]
    rounds = len(result["host_s"])
    per_round = [geomean([parts[k][i] for k in parts]) * 1e3
                 for i in range(rounds)]
    q1, _, q3 = quartiles(per_round)
    return {
        "setup_s": summary(result["setup_s"]),
        "host_s": summary(result["host_s"]),
        # equal weight per part: the geometric mean of each part's own
        # median, so that one slow part cannot hide the others
        "geomean_ms": {"value": geomean([quartiles(v)[1] for v in
                                         parts.values()]) * 1e3,
                       "q1": q1, "q3": q3, "n": len(parts)},
        "peak_rss_mb": {"value": result["rss_mb"], "n": 1},
    }


def require_declared(spec: Dict[str, dict], produced: Dict[str, Any],
                     section: str) -> None:
    """Produced and declared names must be the same set."""
    odd = set(spec) ^ set(produced)
    if odd:
        raise KeyError(f"{section} metrics out of step with BENCHMARK.json: "
                       f"{sorted(odd)}")


def fmt(x: Optional[float]) -> str:
    return "-" if x is None else f"{x:.6g}"


def print_end_to_end(workload: str, why: str, metrics: Dict[str, dict],
                     spec: Dict[str, dict], result: Dict[str, Any]) -> None:
    print(f"\n== {workload}: {why}")
    print(f"   ops attempted {result['attempted']}, failed "
          f"{result['failed']}; {len(result['host_s'])} rounds")
    print(f"   {'metric':<18}{'value':>12}{'q1':>12}{'q3':>12}{'n':>7}  "
          f"{'unit':<6}{'better':<8}bound")
    for name, m in metrics.items():
        d = spec[name]
        print(f"   {name:<18}{fmt(m['value']):>12}{fmt(m.get('q1')):>12}"
              f"{fmt(m.get('q3')):>12}{m['n']:>7}  {d['unit']:<6}"
              f"{d['better']:<8}{d['bound'] * 100:g}%")


def print_per_layer(results: Dict[str, Dict[str, Any]],
                    spec: Dict[str, dict]) -> None:
    names = list(results)
    print("\n== per-layer metrics (traced pass; value/samples, '-' = "
          "layer not entered; no bounds)")
    print(f"   {'metric':<34}{'unit':<7}"
          + "".join(f"{n[:19]:>21}" for n in names))
    for metric, d in spec.items():
        cells = []
        for n in names:
            v = results[n]["per_layer"][metric]
            cells.append("-" if v is None else f"{fmt(v[0])}/{v[1]}")
        print(f"   {metric:<34}{d['unit']:<7}"
              + "".join(f"{c:>21}" for c in cells))


def write_out(args, doc: Dict[str, Any], span_sets: List[list]) -> None:
    """The results document under ``--out`` and the harness's own Chrome
    trace (``--trace-out``, or under ``--out`` after a traced pass)."""
    tag = f"{args.workload or 'all'}-seed{args.seed}"
    trace_out = args.trace_out
    if args.out:
        out = pathlib.Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        with open(out / f"results-{tag}.json", "w") as fh:
            json.dump(doc, fh, indent=1)
        if span_sets and not trace_out:
            trace_out = out / f"trace-{tag}.json"
    if trace_out:
        with open(trace_out, "w") as fh:
            json.dump({"traceEvents": chrome_events(span_sets),
                       "displayTimeUnit": "ms"}, fh)


def main(argv=None) -> int:
    bench = load_spec()
    names = [w["name"] for w in bench["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=names,
                    help="one workload (default: all six)")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float,
                    help="how long the untraced rounds measure (default: "
                         "run_seconds of BENCHMARK.json; 0 with --smoke)")
    ap.add_argument("--trace", type=int, choices=(0, 1),
                    help="one pass only, and print the one-line JSON "
                         "result last (needs --workload)")
    ap.add_argument("--smoke", action="store_true",
                    help="tiny sizes, for the harness tests")
    ap.add_argument("--out", help="directory for the results JSON and the "
                                  "harness trace (default: write nothing)")
    ap.add_argument("--trace-out", help="harness Chrome trace path "
                                        "(default: under --out)")
    # for test_harness.py: a deliberately wrong oracle must fail the run
    ap.add_argument("--break-oracle", action="store_true",
                    help=argparse.SUPPRESS)
    ap.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    ap.add_argument("--passes", default="both", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.trace is not None and args.workload is None:
        ap.error("--trace needs --workload")
    if args.seconds is None:
        args.seconds = 0.0 if args.smoke else bench["run_seconds"]
    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: {ROOT / 'src' / 'repro'} not found: the benchmark "
              f"measures the repository it sits in", file=sys.stderr)
        return 2
    if args.child:
        return child_main(args)

    e2e_spec = declared(bench, "end_to_end")
    layer_spec = declared(bench, "per_layer")
    why = {w["name"]: w["why"] for w in bench["workloads"]}
    passes = {None: "both", 0: "untraced", 1: "traced"}[args.trace]
    setup_samples = 1 if args.smoke or passes == "traced" else SETUP_SAMPLES
    results: Dict[str, Dict[str, Any]] = {}
    doc: Dict[str, Any] = {"seed": args.seed, "seconds": args.seconds,
                           "smoke": args.smoke, "workloads": {}}
    failed = attempted = 0
    for workload in ([args.workload] if args.workload else names):
        try:
            result = run_workload(args, workload, passes, setup_samples)
        except RuntimeError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        results[workload] = result
        attempted += result["attempted"]
        failed += result["failed"]
        entry = {"attempted": result["attempted"],
                 "failed": result["failed"], "failures": result["failures"],
                 "counts": result.get("counts", {})}
        if result.get("host_s"):
            entry["end_to_end"] = end_to_end(result)
            require_declared(e2e_spec, entry["end_to_end"], "end_to_end")
            print_end_to_end(workload, why[workload], entry["end_to_end"],
                             e2e_spec, result)
        if result.get("per_layer"):
            require_declared(layer_spec, result["per_layer"], "per_layer")
            entry["per_layer"] = result["per_layer"]
        for failure in result["failures"]:
            print(f"   FAILED {failure}")
        doc["workloads"][workload] = entry
    traced = {n: r for n, r in results.items() if r.get("per_layer")}
    if traced:
        print_per_layer(traced, layer_spec)

    write_out(args, doc, [r["spans"] for r in traced.values()])
    print(f"\nops attempted {attempted}, failed {failed}, failed_share "
          f"{failed / max(attempted, 1):.6g}")
    if args.trace is not None:
        entry = doc["workloads"][args.workload]
        if args.trace == 0:
            metrics = {k: {"value": v["value"], "unit": e2e_spec[k]["unit"]}
                       for k, v in entry.get("end_to_end", {}).items()}
        else:
            metrics = {k: {"value": v[0] if v else 0.0,
                           "unit": layer_spec[k]["unit"]}
                       for k, v in entry.get("per_layer", {}).items()}
        print(json.dumps({"correct": failed == 0, "attempted": attempted,
                          "failed": failed, "metrics": metrics}))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
