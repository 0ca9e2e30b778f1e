"""Compare two sets of benchmark runs: ``compare.py A B``.

``A`` (the parent) and ``B`` (the change) are each a results file
written by ``run.py --out DIR`` or a directory of them — one file per
run, so ten seeds are ten files. For every workload x end-to-end metric
it prints each side's median and quartiles over its runs and a verdict
against the metric's bound in ``BENCHMARK.json``:

``better`` / ``worse``  B's median differs from A's by more than the bound
``same``                it does not
``unresolved``          the run-to-run spread of either side (quartile
                        distance over median) is wider than the bound, so
                        the bound cannot be checked — unless every run of
                        one side beats every run of the other

Per-layer metrics on the simulated clock (``sim_*``, ``runtime.sim_s.*``,
batch and utilisation profiles) and per-layer counts are deterministic
for a fixed seed, so when both sides ran the same seeds (traced pass)
they are compared seed by seed and must be *exactly* equal to be
``same``; any difference is ``better`` or ``worse`` by its sign, however
small — a host-side optimisation that moves one changed the model, not
the speed. Only the rows that moved are printed.

Exit status 1 when any row is ``worse``.
"""

from __future__ import annotations

import json
import math
import pathlib
import sys
from typing import Dict, List, Optional, Tuple

from metrics import declared, load_spec, quartiles, spread

Run = dict

#: per-layer metrics that repeat exactly for a fixed seed, besides the
#: ones whose unit is ``count``
EXACT = ("sim_", "runtime.sim_s.", "serve.batching.batch_mean",
         "serve.batching.lane_packed_share", "serve.scheduler.util_mean")


def load_runs(path: str) -> List[Run]:
    """Results documents under ``path`` (a file, or a directory whose
    other JSON files — traces — are skipped)."""
    p = pathlib.Path(path)
    files = sorted(p.glob("*.json")) if p.is_dir() else [p]
    runs = []
    for f in files:
        with open(f) as fh:
            doc = json.load(fh)
        if isinstance(doc, dict) and "workloads" in doc:
            runs.append(doc)
    if not runs:
        raise ValueError(f"{path}: no results files")
    return runs


def values_by_seed(runs: List[Run], workload: str, section: str,
                   metric: str) -> Dict[int, float]:
    out = {}
    for run in runs:
        entry = run["workloads"].get(workload, {}).get(section, {})
        if entry.get(metric) is None:
            continue
        m = entry[metric]
        out[run["seed"]] = m["value"] if isinstance(m, dict) else m[0]
    return out


def worse_by(a: float, b: float, better: str) -> float:
    """How much worse ``b`` is than ``a`` as a share of ``a`` (negative:
    better)."""
    if a == 0:
        rel = 0.0 if b == 0 else math.copysign(math.inf, b)
    else:
        rel = (b - a) / abs(a)
    return rel if better == "lower" else -rel


def exact_verdict(a: Dict[int, float], b: Dict[int, float],
                  better: str) -> str:
    """Seed by seed (``a`` and ``b`` hold the same seeds)."""
    diffs = [worse_by(a[s], b[s], better) for s in sorted(a)]
    if all(d == 0 for d in diffs):
        return "same"
    return "worse" if max(diffs, key=abs) > 0 else "better"


def verdict(a: Dict[int, float], b: Dict[int, float], better: str,
            bound: float) -> str:
    va, vb = list(a.values()), list(b.values())
    rel = worse_by(quartiles(va)[1], quartiles(vb)[1], better)
    if max(spread(va), spread(vb)) > bound:
        # too noisy to check the bound, unless the two sides do not
        # overlap at all
        if better == "higher":
            va, vb = [-x for x in va], [-x for x in vb]
        if max(vb) < min(va):
            return "better"
        if min(vb) > max(va) and rel > bound:
            return "worse"
        return "unresolved"
    if rel > bound:
        return "worse"
    return "better" if rel < -bound else "same"


def fmt_side(vals: Dict[int, float]) -> str:
    q1, med, q3 = quartiles(list(vals.values()))
    return f"{med:>11.6g} [{q1:.6g}, {q3:.6g}] n={len(vals)}"


def compare(runs_a: List[Run], runs_b: List[Run], spec: dict
            ) -> List[Tuple[str, str, str]]:
    """Print the table; returns ``(workload, metric, verdict)`` rows."""
    rows = []
    e2e = declared(spec, "end_to_end")
    layer = declared(spec, "per_layer")
    for w in (x["name"] for x in spec["workloads"]):
        printed = False
        for name, d in e2e.items():
            a = values_by_seed(runs_a, w, "end_to_end", name)
            b = values_by_seed(runs_b, w, "end_to_end", name)
            if not a or not b:
                continue
            if not printed:
                print(f"\n== {w}")
                printed = True
            v = verdict(a, b, d["better"], d["bound"])
            rows.append((w, name, v))
            print(f"   {name:<18}{d['unit']:<6} A {fmt_side(a):<46} "
                  f"B {fmt_side(b):<46} bound {d['bound'] * 100:g}%  {v}")
        checked = 0
        for name, d in layer.items():
            if d["unit"] != "count" and not name.startswith(EXACT):
                continue
            a = values_by_seed(runs_a, w, "per_layer", name)
            b = values_by_seed(runs_b, w, "per_layer", name)
            if not a or set(a) != set(b):
                continue
            checked += 1
            v = exact_verdict(a, b, d["better"])
            if v != "same":
                rows.append((w, name, v))
                print(f"   {name:<34} (exact) A {fmt_side(a)}  "
                      f"B {fmt_side(b)}  {v}")
        if checked:
            if not printed:
                print(f"\n== {w}")
            print(f"   {checked} simulated-clock metrics and counts "
                  f"compared seed by seed")
    return rows


def main(argv: Optional[List[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if len(argv) != 2:
        print("usage: compare.py A.json|DIR B.json|DIR", file=sys.stderr)
        return 2
    try:
        runs_a, runs_b = load_runs(argv[0]), load_runs(argv[1])
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    rows = compare(runs_a, runs_b, load_spec())
    tally: Dict[str, int] = {}
    for _, _, v in rows:
        tally[v] = tally.get(v, 0) + 1
    print("\n" + ", ".join(f"{k}: {n}" for k, n in sorted(tally.items())))
    return 1 if tally.get("worse") else 0


if __name__ == "__main__":
    sys.exit(main())
