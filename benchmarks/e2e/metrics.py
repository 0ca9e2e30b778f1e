"""The benchmark's declared metrics and the statistics every report uses.

``BENCHMARK.json`` at the repository root is the only place a metric's
unit, direction and bound are written down; the code in this directory
produces values *by name* and looks the rest up here, so a produced
metric the file does not declare is an error, not a silent extra.
"""

from __future__ import annotations

import json
import math
import pathlib
import statistics
import sys
from typing import Dict, List, Sequence, Tuple

ROOT = pathlib.Path(__file__).resolve().parents[2]
SPEC_PATH = ROOT / "BENCHMARK.json"

# the benchmark measures the repository it sits in: make ``repro``
# importable for the modules that import this one first
if str(ROOT / "src") not in sys.path:
    sys.path.insert(0, str(ROOT / "src"))


def load_spec() -> dict:
    with open(SPEC_PATH) as fh:
        return json.load(fh)


def declared(spec: dict, section: str) -> Dict[str, dict]:
    """``name -> declaration`` for ``end_to_end`` or ``per_layer``."""
    return {m["name"]: m for m in spec[section]}


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """(first quartile, median, third quartile); a single value is all
    three. Quartiles are ``statistics.quantiles(values, n=4)`` — the
    same rule the acceptance check of the benchmark applies."""
    vals = list(values)
    if len(vals) < 2:
        return vals[0], vals[0], vals[0]
    q1, _, q3 = statistics.quantiles(vals, n=4)
    return q1, statistics.median(vals), q3


def spread(values: Sequence[float]) -> float:
    """Inter-quartile distance as a share of the median."""
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / med if med else 0.0


def geomean(values: Sequence[float]) -> float:
    return math.exp(sum(math.log(v) for v in values) / len(values))


def summary(values: List[float]) -> dict:
    """What a timing is reported as: median, quartiles, sample count."""
    q1, med, q3 = quartiles(values)
    return {"value": med, "q1": q1, "q3": q3, "n": len(values)}
