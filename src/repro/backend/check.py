"""CI gate: every bundled app must execute fully vectorized.

Runs 16 programs — the ``opt`` and ``gpu`` compiles of the 8 bundled apps
(gda, gene, gibbs, kmeans, logreg, pagerank, q1, triangle) — on the numpy
backend and exits non-zero if any loop fell back to the reference
interpreter, or results (to the bit), ``ExecStats`` or the per-iteration
costs of the top-level loops (``per_iter``) diverge from it — a fallback
is correct but silent in results, so only this gate (and the
``backend.fallback`` metric) keeps vectorization coverage from rotting,
and a cost charged to the wrong iteration leaves every sum intact, so
only ``per_iter`` shows it.

Usage::

    python -m repro.backend.check            # all bundled apps
    python -m repro.backend.check kmeans q1  # a subset
"""

from __future__ import annotations

import sys

from .executor import NumpyInterp

#: compiled variants every bundled app must run without fallback
VARIANTS = ("opt", "gpu")


def check_apps(names=None) -> int:
    from ..bench import BUNDLES, get_bundle
    from ..core.interp import Interp
    from ..core.values import deep_eq
    names = list(names) if names else sorted(BUNDLES)
    bad = 0
    for name in names:
        if name not in BUNDLES:
            print(f"unknown app {name!r}; bundled: "
                  f"{', '.join(sorted(BUNDLES))}", file=sys.stderr)
            return 2
        bundle = get_bundle(name)
        for variant in VARIANTS:
            compiled = bundle.compiled(variant)
            prepared = compiled.prepare_inputs(bundle.inputs)
            vec, ref = NumpyInterp(per_iter=True), Interp(per_iter=True)
            results = vec.eval_program(compiled.program, prepared)
            ref_results = ref.eval_program(compiled.program, prepared)
            stats, ref_stats = vec.stats, ref.stats
            problems = []
            for fb in vec.fallbacks:
                problems.append(f"fallback {fb.loop} ({fb.op}): {fb.reason}")
            if not deep_eq(results, ref_results, tol=0.0):
                problems.append("results diverge from reference interpreter")
            if stats != ref_stats:
                problems.append(
                    f"ExecStats diverge (cycles {stats.total_cycles} vs "
                    f"{ref_stats.total_cycles})")
            if vec.per_iter != ref.per_iter:
                problems.append("per-iteration costs diverge")
            if problems:
                bad += 1
                print(f"FAIL {name}/{variant}")
                for p in problems:
                    print(f"  {p}")
            else:
                print(f"ok   {name}/{variant}: {stats.loops_executed} loop "
                      f"executions vectorized, ExecStats and per-iteration "
                      f"costs identical, results bit-identical")
    if bad:
        print(f"{bad}/{len(names) * len(VARIANTS)} programs not fully "
              f"vectorized or not identical to the interpreter",
              file=sys.stderr)
    return 1 if bad else 0


def main(argv=None) -> int:
    return check_apps(sys.argv[1:] if argv is None else argv)


if __name__ == "__main__":
    raise SystemExit(main())
