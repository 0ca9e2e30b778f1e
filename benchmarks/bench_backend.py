"""Wall-clock benchmark: reference interpreter vs vectorized NumPy
backend on the eight bundled applications.

Unlike the figure benchmarks, which report *simulated* seconds on the
machine models, this one measures real host wall-clock of the functional
execution — the thing the vectorized backend exists to improve. The
simulated per-loop pricing is recorded alongside (it is backend-invariant
by construction, which the differential assertions below re-check).

Writes ``benchmarks/results/backend_wallclock.{txt,json}`` and the
top-level ``BENCH_backend.json`` consumed by CI.
"""

from statistics import median

from conftest import (emit, emit_json, measure_backends, once, profile_loops,
                      record_history, record_sim, write_bench_backend)

from repro.bench import get_bundle
from repro.report.tables import render_table

APPS = ["kmeans", "logreg", "gda", "q1", "gene", "pagerank", "triangle",
        "gibbs"]

#: lenient CI floor — the measured median is ~60-70x (BENCH_backend.json),
#: but wall-clock on shared runners is noisy, so a re-run is held only to
#: this floor
MIN_MEDIAN_SPEEDUP = 3.0


def run_measurements() -> dict:
    return {app: measure_backends(app, repeats=3) for app in APPS}


def test_backend_wallclock(benchmark):
    summary = once(benchmark, run_measurements)

    rows = []
    for app in APPS:
        s = summary[app]
        bundle = get_bundle(app)
        # per-loop host wall-clock attribution under both backends: the
        # aggregate speedup says *whether* vectorization paid off, the
        # attribution says *which loop* is responsible when it didn't
        # (cf. gibbs, DESIGN.md §8e)
        s["per_loop"] = {
            backend: profile_loops(bundle.compiled("opt"), bundle.inputs,
                                   backend)
            for backend in ("reference", "numpy")
        }
        sim = bundle.simulate("opt", backend="numpy")
        record_sim("backend_wallclock", f"{app}/numpy", sim, wall=s)
        record_history(app, s, sim=sim)
        rows.append([app, f"{s['reference_s'] * 1e3:9.2f}",
                     f"{s['numpy_s'] * 1e3:9.2f}",
                     f"{s['speedup']:6.1f}x",
                     "none" if not s["fallbacks"] else
                     "; ".join(f["reason"] for f in s["fallbacks"])])
    med = median(summary[a]["speedup"] for a in APPS)
    rows.append(["MEDIAN", "", "", f"{med:6.1f}x", ""])
    emit("backend_wallclock", render_table(
        ["app", "reference ms", "numpy ms", "speedup", "fallbacks"], rows,
        title="host wall-clock: reference interpreter vs numpy backend "
              "(best of 3)"))
    emit_json("backend_wallclock")
    write_bench_backend(summary)

    for app in APPS:
        s = summary[app]
        assert s["identical_results"], f"{app}: results diverged"
        assert s["identical_cycles"], f"{app}: cycle accounting diverged"
        assert s["fallbacks"] == [], (
            f"{app} fell back to the interpreter: {s['fallbacks']}")
    assert med >= MIN_MEDIAN_SPEEDUP, (
        f"median speedup {med:.1f}x below floor {MIN_MEDIAN_SPEEDUP}x")
