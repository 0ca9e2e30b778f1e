"""Shared helpers for the benchmark suite.

Each benchmark regenerates one table or figure of the paper: it prints the
same rows/series the paper reports, writes them under
``benchmarks/results/``, and asserts the qualitative *shape* (who wins, by
roughly what factor, where crossovers fall). Absolute numbers are
simulated times on the machine models — see EXPERIMENTS.md.
"""

from __future__ import annotations

import json
import pathlib
import time

RESULTS_DIR = pathlib.Path(__file__).parent / "results"
REPO_ROOT = pathlib.Path(__file__).parent.parent

#: per-loop breakdowns accumulated by ``record_sim`` during a sweep,
#: keyed by results-file name; ``emit_json`` flushes one file's worth
_BREAKDOWNS: dict = {}


def emit(name: str, text: str) -> None:
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / f"{name}.txt").write_text(text + "\n")
    print("\n" + text)


def sim_breakdown(sim) -> dict:
    """JSON-able per-loop time split of one priced run."""
    return {
        "total_seconds": sim.total_seconds,
        "backend": getattr(sim, "backend", "reference"),
        "loops": [
            {"loop": ls.name, "op": ls.op_name, "iters": ls.iters,
             "workers": ls.workers, "time_s": ls.time_s,
             "compute_s": ls.compute_s, "memory_s": ls.memory_s,
             "comm_s": ls.comm_s, "overhead_s": ls.overhead_s}
            for ls in sim.loops
        ],
    }


def record_sim(name: str, label: str, sim, wall: dict = None) -> float:
    """Stash ``sim``'s per-loop breakdown under ``label`` for the results
    file ``name`` and return the headline time (seconds).

    ``wall``, when given, is a per-backend host wall-clock dict (see
    ``measure_backends``) recorded alongside the simulated seconds —
    simulated time is the paper's metric, host wall-clock is ours."""
    bd = sim_breakdown(sim)
    if wall is not None:
        bd["host_wallclock"] = wall
    _BREAKDOWNS.setdefault(name, {})[label] = bd
    return sim.total_seconds


# ---------------------------------------------------------------------------
# Host wall-clock measurement (reference interpreter vs numpy backend)
# ---------------------------------------------------------------------------

def time_backend(compiled, inputs, backend: str, repeats: int = 3):
    """Best-of-``repeats`` host wall-clock seconds of one functional
    execution of ``compiled`` on ``backend``; returns
    ``(seconds, results, stats, fallbacks)``."""
    from repro.backend import run_program_numpy
    from repro.core.interp import run_program
    prepared = compiled.prepare_inputs(inputs)
    best = None
    out = None
    for _ in range(max(1, repeats)):
        t0 = time.perf_counter()
        if backend == "numpy":
            results, stats, fallbacks = run_program_numpy(
                compiled.program, prepared)
        else:
            results, stats = run_program(compiled.program, prepared)
            fallbacks = []
        dt = time.perf_counter() - t0
        if best is None or dt < best:
            best, out = dt, (results, stats, fallbacks)
    return (best,) + out


def measure_backends(app: str, repeats: int = 3) -> dict:
    """Time the ``opt`` variant of a bundled app under both backends and
    differentially check results/cycles while at it."""
    from repro.bench import get_bundle
    from repro.core.values import deep_eq
    b = get_bundle(app)
    compiled = b.compiled("opt")
    ref_s, ref_res, ref_stats, _ = time_backend(
        compiled, b.inputs, "reference", repeats)
    np_s, np_res, np_stats, fallbacks = time_backend(
        compiled, b.inputs, "numpy", repeats)
    return {
        "reference_s": ref_s,
        "numpy_s": np_s,
        "speedup": ref_s / np_s if np_s > 0 else float("inf"),
        "identical_results": deep_eq(ref_res, np_res),
        "identical_cycles": ref_stats.total_cycles == np_stats.total_cycles,
        "cycles": ref_stats.total_cycles,
        "fallbacks": [{"loop": str(f.loop), "op": f.op, "reason": f.reason}
                      for f in fallbacks],
    }


# ---------------------------------------------------------------------------
# Per-loop host wall-clock attribution
# ---------------------------------------------------------------------------
#
# The numpy backend stages a vectorized loop's accounting until the loop
# is known not to fall back (a mid-loop failure leaves it untouched), so
# nothing it records marks when a loop started. Timing therefore wraps
# ``_eval_loop`` itself in interpreter subclasses; only top-level loops
# are attributed — time spent in loops nested inside a fallback rolls up
# into their parent, matching how the simulator's per-loop breakdown
# reports them.

def _timed_interp(base):
    class Timed(base):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            self.loop_wall = {}
            self.loop_ops = {}
            self._timing_depth = 0

        def _eval_loop(self, d, loop):
            if self._timing_depth:
                return super()._eval_loop(d, loop)
            self._timing_depth += 1
            t0 = time.perf_counter()
            try:
                return super()._eval_loop(d, loop)
            finally:
                self._timing_depth -= 1
                dt = time.perf_counter() - t0
                key = str(d.syms[0])
                self.loop_wall[key] = self.loop_wall.get(key, 0.0) + dt
                self.loop_ops.setdefault(key, loop.op_name())
    return Timed


def profile_loops(compiled, inputs, backend: str) -> list:
    """One instrumented functional execution; returns the per-loop host
    wall-clock attribution as ``[{loop, op, wall_s, share}, ...]`` sorted
    by descending time."""
    if backend == "numpy":
        from repro.backend.executor import NumpyInterp
        interp = _timed_interp(NumpyInterp)()
    else:
        from repro.core.interp import Interp
        interp = _timed_interp(Interp)()
    interp.eval_program(compiled.program, compiled.prepare_inputs(inputs))
    total = sum(interp.loop_wall.values()) or 1.0
    return [{"loop": k, "op": interp.loop_ops[k], "wall_s": v,
             "share": v / total}
            for k, v in sorted(interp.loop_wall.items(),
                               key=lambda kv: -kv[1])]


def record_history(app: str, summary: dict, sim=None) -> None:
    """Append one observatory record for ``app`` from a
    ``measure_backends`` summary (see ``repro.obs.history``).

    Besides the headline gate metrics the record carries the inputs the
    root-cause analyzer (``repro.obs.analyze``) diffs when a gate
    fails: the per-loop pricing breakdown (id-stripped keys so two
    processes' records align) and the compile's normalized
    decision-ledger keys (so digest drift can be resolved to the exact
    decisions that changed)."""
    from repro.bench import get_bundle
    from repro.obs.history import RunRecord, append_record, git_sha
    from repro.obs.provenance import strip_ids
    from repro.runtime import NUMA_BOX
    bundle = get_bundle(app)
    if sim is None:
        sim = bundle.simulate("opt", backend="numpy")
    led = bundle.compiled("opt").provenance
    per_loop = [{"loop": ls.name, "key": strip_ids(ls.name),
                 "op": ls.op_name, "workers": ls.workers,
                 "time_s": ls.time_s, "compute_s": ls.compute_s,
                 "memory_s": ls.memory_s, "comm_s": ls.comm_s,
                 "overhead_s": ls.overhead_s} for ls in sim.loops]
    append_record(RunRecord(
        app=app, backend="numpy", git_sha=git_sha(),
        wall_s=summary["numpy_s"], sim_s=sim.total_seconds,
        cycles=summary["cycles"], fallbacks=len(summary["fallbacks"]),
        digest=led.digest() if led is not None else "",
        extra={"reference_s": summary["reference_s"],
               "speedup": summary["speedup"],
               "cluster": NUMA_BOX.name,
               "per_loop": per_loop,
               "decisions": (led.normalized_keys()
                             if led is not None else [])}))


def write_bench_backend(summary: dict) -> None:
    """Write the top-level reference-vs-numpy wall-clock summary the CI
    perf trajectory reads (``BENCH_backend.json`` at the repo root)."""
    from statistics import median
    doc = {
        "metric": "host wall-clock seconds of functional execution "
                  "(best of repeats), opt variant",
        "apps": summary,
        "median_speedup": median(s["speedup"] for s in summary.values()),
        "generated_by": "benchmarks/bench_backend.py",
    }
    (REPO_ROOT / "BENCH_backend.json").write_text(
        json.dumps(doc, indent=2, sort_keys=True) + "\n")


def emit_json(name: str) -> None:
    """Write every breakdown recorded so far for ``name`` next to the
    headline ``.txt`` results file."""
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / f"{name}.json").write_text(
        json.dumps(_BREAKDOWNS.get(name, {}), indent=2, sort_keys=True)
        + "\n")


def once(benchmark, fn):
    """Run a harness function exactly once under pytest-benchmark timing."""
    return benchmark.pedantic(fn, rounds=1, iterations=1, warmup_rounds=0)
