"""Deterministic fault injection for the serving layer.

A :class:`FaultPlan` is a typed, seeded chaos script over *simulated*
time: machine crash/recover windows, slow replicas (a service-time
multiplier), transient vectorized-kernel failures (a forced
``ServeFallback`` or a hard error the retry machinery must absorb), and
compile-cache invalidation. Every probabilistic draw derives from
``(seed, kind, target, attempt)`` through sha256 — no ``random`` module
state — so the same seed and plan reproduce byte-identical reports and
traces, which is the repo's standing determinism invariant.

An **empty plan is falsy** and every injection hook guards on
truthiness, so ``FaultPlan([])`` behaves bit-identically to passing no
plan at all — the serving mirror of the tracer's zero-cost-when-disabled
contract.

JSON schema (see ``examples/faults_outage.json``)::

    {"seed": 0, "faults": [
      {"kind": "crash",  "target": "numa[1]", "t0_ms": 2, "t1_ms": 12},
      {"kind": "slow",   "target": "numa[0]", "factor": 2.0,
       "t0_ms": 0, "t1_ms": 6},
      {"kind": "kernel", "target": "*", "mode": "error", "rate": 1.0,
       "t0_ms": 0, "t1_ms": 1},
      {"kind": "cache",  "target": "*", "t0_ms": 5}
    ]}

``target`` is a machine label (``"numa[1]"``), a machine model name
(``"numa"`` — every replica of that model), an app name for ``kernel``
/ ``cache`` faults, or ``"*"`` for all. Windows accept ``t0_s``/``t1_s``
or the ``*_ms`` variants; an omitted ``t1`` leaves the fault active for
the rest of the run.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

from ..obs.slo import spec_number

FAULT_KINDS = ("crash", "slow", "kernel", "cache")
KERNEL_MODES = ("fallback", "error")


def derive_unit(seed: int, kind: str, target: str, attempt: int) -> float:
    """Deterministic uniform draw in ``[0, 1)`` from the fault identity.

    This is the plan's *only* randomness source: sha256 over the
    ``(seed, kind, target, attempt)`` tuple, so a draw never depends on
    host state, dict order, or how many other faults fired before it.
    """
    h = hashlib.sha256(
        f"{seed}:{kind}:{target}:{attempt}".encode()).digest()
    return int.from_bytes(h[:8], "big") / float(1 << 64)


@dataclass(frozen=True)
class FaultSpec:
    """One scripted fault.

    ``kind``:

    - ``crash``  — the target machine is down on ``[t0_s, t1_s)``; an
      in-flight batch at ``t0_s`` is cancelled and re-enqueued.
    - ``slow``   — service times on the target machine multiply by
      ``factor`` while the window is active.
    - ``kernel`` — vectorized executions of the target app inside the
      window fail with probability ``rate`` (seeded): ``mode="fallback"``
      forces the recorded reference-path :class:`ServeFallback`;
      ``mode="error"`` is a hard failure the retry policy must absorb.
    - ``cache``  — at ``t0_s`` the compile cache and the server's
      host-side memos for the target app are invalidated (recompiles
      surface as cache misses).
    """

    kind: str
    target: str
    t0_s: float = 0.0
    t1_s: float = math.inf
    factor: float = 1.0
    mode: str = "fallback"
    rate: float = 1.0

    def __post_init__(self) -> None:
        # each check is written so that NaN fails it
        if self.kind not in FAULT_KINDS:
            raise ValueError(f"unknown fault kind {self.kind!r}; expected "
                             f"one of {FAULT_KINDS}")
        if not (isinstance(self.target, str) and self.target):
            raise ValueError(f"fault target must be a non-empty string, "
                             f"got {self.target!r}")
        if not 0 <= self.t0_s < math.inf:
            raise ValueError(f"fault t0_s must be finite and >= 0, "
                             f"got {self.t0_s}")
        if not self.t0_s <= self.t1_s:
            raise ValueError(f"fault window is inverted: t1_s={self.t1_s} "
                             f"< t0_s={self.t0_s}")
        if not 0 < self.factor < math.inf:
            raise ValueError(f"fault factor must be finite and > 0, "
                             f"got {self.factor}")
        if self.kind == "kernel":
            if self.mode not in KERNEL_MODES:
                raise ValueError(f"unknown kernel fault mode {self.mode!r}; "
                                 f"expected one of {KERNEL_MODES}")
            if not 0.0 <= self.rate <= 1.0:
                raise ValueError(f"kernel fault rate must be in [0, 1], "
                                 f"got {self.rate}")

    def active(self, t: float) -> bool:
        return self.t0_s <= t < self.t1_s

    def matches(self, label: str, name: str) -> bool:
        """Does this fault target the machine ``name[index]`` / app?"""
        return self.target in ("*", label, name)


def _window(doc: Dict[str, Any], part: str) -> Tuple[float, bool]:
    if f"{part}_s" in doc and f"{part}_ms" in doc:
        raise ValueError(f"fault spec gives both {part}_s and {part}_ms")
    # a default makes a null value an error
    if f"{part}_ms" in doc:
        return spec_number(doc, f"{part}_ms", 0.0) * 1e-3, True
    if f"{part}_s" in doc:
        return spec_number(doc, f"{part}_s", 0.0), True
    return 0.0, False


@dataclass(frozen=True)
class FaultPlan:
    """A seeded set of :class:`FaultSpec` — the run's chaos script.

    Falsy when it holds no specs, and every scheduler hook checks
    truthiness first, so an empty plan is indistinguishable from no
    plan (the zero-cost invariant the tests pin byte-for-byte).
    """

    specs: Tuple[FaultSpec, ...] = ()
    seed: int = 0

    def __bool__(self) -> bool:
        return bool(self.specs)

    # -- machine faults ---------------------------------------------------

    def crash_windows(self, label: str,
                      name: str) -> List[Tuple[float, float]]:
        """Sorted crash windows targeting the machine ``name[index]``."""
        return sorted((s.t0_s, s.t1_s) for s in self.specs
                      if s.kind == "crash" and s.matches(label, name))

    def slow_factor(self, label: str, name: str, t: float) -> float:
        """Product of the active slow multipliers on this machine."""
        factor = 1.0
        for s in self.specs:
            if s.kind == "slow" and s.matches(label, name) and s.active(t):
                factor *= s.factor
        return factor

    # -- kernel faults ----------------------------------------------------

    def kernel_fault(self, app: str, t: float,
                     attempt: int) -> Optional[FaultSpec]:
        """The kernel fault (if any) striking this execution attempt.

        ``attempt`` is the server's per-app execution counter; the draw
        depends only on ``(seed, "kernel", app, attempt)`` so injection
        is independent of machine choice and event interleaving.
        """
        for s in self.specs:
            if s.kind != "kernel" or not s.active(t):
                continue
            if s.target not in ("*", app):
                continue
            if derive_unit(self.seed, "kernel", app, attempt) < s.rate:
                return s
        return None

    # -- cache faults -----------------------------------------------------

    def cache_events(self) -> List[Tuple[float, str]]:
        """``(at_s, target_app)`` invalidation instants, sorted."""
        return sorted((s.t0_s, s.target) for s in self.specs
                      if s.kind == "cache")

    # -- bookkeeping ------------------------------------------------------

    def last_disruption_s(self) -> float:
        """When the scripted chaos ends (recovery-gate boundary): the
        latest finite window end, falling back to the latest start."""
        ends = [s.t1_s for s in self.specs if math.isfinite(s.t1_s)]
        ends += [s.t0_s for s in self.specs]
        return max(ends, default=0.0)

    # -- construction -----------------------------------------------------

    @classmethod
    def from_json(cls, doc: Dict[str, Any]) -> "FaultPlan":
        if not isinstance(doc, dict):
            raise ValueError("fault plan must be a JSON object")
        unknown = set(doc) - {"seed", "faults"}
        if unknown:
            raise ValueError(f"unknown fault-plan keys: {sorted(unknown)}")
        faults, seed = doc.get("faults", []), doc.get("seed", 0)
        if not isinstance(faults, list):
            raise ValueError(f"faults must be a list, got {faults!r}")
        if type(seed) is not int:
            raise ValueError(f"seed must be an integer, got {seed!r}")
        specs: List[FaultSpec] = []
        for i, f in enumerate(faults):
            if not isinstance(f, dict):
                raise ValueError(f"faults[{i}] must be an object")
            extra = set(f) - {"kind", "target", "t0_s", "t1_s", "t0_ms",
                              "t1_ms", "factor", "mode", "rate"}
            if extra:
                raise ValueError(f"faults[{i}] has unknown keys: "
                                 f"{sorted(extra)}")
            t0, _ = _window(f, "t0")
            t1, has_t1 = _window(f, "t1")
            specs.append(FaultSpec(
                kind=f.get("kind", ""), target=f.get("target", ""),
                t0_s=t0, t1_s=t1 if has_t1 else math.inf,
                factor=spec_number(f, "factor", 1.0),
                mode=f.get("mode", "fallback"),
                rate=spec_number(f, "rate", 1.0)))
        return cls(tuple(specs), seed=seed)

    @classmethod
    def load(cls, path: str) -> "FaultPlan":
        with open(path) as fh:
            return cls.from_json(json.load(fh))
