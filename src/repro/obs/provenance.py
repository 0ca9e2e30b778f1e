"""Compiler decision provenance (DESIGN.md §8).

Every decision point in the compiler and backend — pipeline/horizontal
fusion applied or rejected, each Fig. 3 transform fired or found
not-applicable, per-access stencil classification, partition layout
choices, DCE/CSE/SoA/code-motion hits, and the NumPy backend's
plan-vs-fallback — emits a typed :class:`Decision` into the ledger that
is active for the current compilation (or observed run). The ledger is
attached to ``CompiledProgram.provenance`` and rendered by
``python -m repro.tools explain <app>``.

The instrumentation contract is *zero overhead when disabled*: decision
sites call :func:`emit`, which returns immediately when no ledger scope
is active (one module-global ``None`` check), mutates no interpreter or
executor state either way, and therefore leaves ``ExecStats``
byte-identical (tested).

Each ledger has a stable :meth:`DecisionLedger.digest` — a hash of the
normalized decision sequence (symbol ids stripped, so it is reproducible
across processes) — which the benchmark history store records per run;
``repro.obs.regress`` fails CI when the digest drifts, i.e. when a
transform that used to fire no longer does.
"""

from __future__ import annotations

import enum
import hashlib
import re
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

#: canonical outcome vocabulary; ``outcome`` is free-form but these cover
#: almost every site (stencil decisions use the Stencil value instead)
APPLIED = "applied"
REJECTED = "rejected"
VECTORIZED = "vectorized"
FALLBACK = "fallback"


class DecisionKind(enum.Enum):
    """Stable decision taxonomy (DESIGN.md §8a)."""

    #: §3.1 pipeline fusion of a Collect producer into its consumer
    FUSION_VERTICAL = "fusion-vertical"
    #: §3.1 merge of independent same-range loops into one traversal
    FUSION_HORIZONTAL = "fusion-horizontal"
    #: one of the four Fig. 3 nested-pattern rewrites
    TRANSFORM = "transform"
    #: §4.2 per-access read-stencil classification of a collection
    STENCIL = "stencil"
    #: Algorithm 1 layout choice (Local/Partitioned) for one collection
    PARTITION = "partition"
    #: Algorithm 1 per-loop placement (distributed or single-location)
    LOOP_PLACEMENT = "loop-placement"
    #: AoS→SoA split / kept-AoS decision for a struct collection
    SOA = "soa"
    #: common-subexpression merge
    CSE = "cse"
    #: dead statement / dead generator / dead field elimination
    DCE = "dce"
    #: loop-invariant statements hoisted out of a generator block
    CODE_MOTION = "code-motion"
    #: len(Collect) rewritten to a size or a conditional count
    LENGTH_REWRITE = "length-rewrite"
    #: NumPy backend static plan or recorded fallback for one loop
    BACKEND_PLAN = "backend-plan"
    #: a typed Diagnostic routed through the ledger (warnings included)
    DIAGNOSTIC = "diagnostic"
    #: serving layer: an app degraded to the reference-interpreter path
    #: after repeated kernel faults (``serve.scheduler``)
    SERVE_DEGRADE = "serve-degrade"


@dataclass
class Decision:
    """One compiler/backend decision, with its site and justification.

    ``site`` is the symbol the decision concerns (usually a loop's first
    output sym, ``repr(sym)`` so ids disambiguate same-named loops);
    ``outcome`` says which way the decision went; ``reason`` is the
    human-readable justification (for rejections: the failed precondition
    or the blocking dependency); ``evidence`` carries structured data.
    ``pass_name``/``phase``/``snapshot`` are stamped by the PassManager:
    ``snapshot`` is the ordinal of the executed pass, i.e. the id of the
    IR snapshot the decision was taken on.
    """

    kind: DecisionKind
    site: str
    outcome: str
    reason: str
    evidence: Dict[str, Any] = field(default_factory=dict)
    pass_name: str = ""
    phase: str = ""
    snapshot: int = -1
    #: identical non-applied decisions are folded into one record
    count: int = 1

    def dedup_key(self) -> Tuple:
        return (self.kind, self.site, self.outcome, self.reason)

    def render(self) -> str:
        where = f"{self.phase}/{self.pass_name}" if self.pass_name else "-"
        times = f" (x{self.count})" if self.count > 1 else ""
        return (f"[{where}] {self.kind.value} {self.outcome}: "
                f"{self.reason}{times}")

    def to_dict(self) -> Dict[str, Any]:
        return {
            "kind": self.kind.value, "site": self.site,
            "outcome": self.outcome, "reason": self.reason,
            "evidence": self.evidence, "pass": self.pass_name,
            "phase": self.phase, "snapshot": self.snapshot,
            "count": self.count,
        }


_ID_RE = re.compile(r"\d+")


def strip_ids(s: str) -> str:
    """Replace symbol-id digits with ``#`` so decision text is comparable
    across processes (the global Sym counter is process-dependent)."""
    return _ID_RE.sub("#", s)


class DecisionLedger:
    """Ordered, deduplicating store of one compilation's decisions."""

    def __init__(self) -> None:
        self.decisions: List[Decision] = []
        self._dedup: Dict[Tuple, Decision] = {}
        # current pass context, maintained by the PassManager
        self.pass_name = ""
        self.phase = ""
        self.snapshot = -1
        self._emitted: Optional[List[Tuple]] = None

    # -- recording ---------------------------------------------------------

    def begin_pass(self, name: str, phase: str) -> List[Tuple]:
        """Called by the PassManager before each pass; bumps the IR
        snapshot ordinal that subsequent decisions are stamped with.

        Returns the list that collects the arguments of every ``record``
        call until the next ``begin_pass`` — folded repeats included,
        which ``decisions`` cannot show. ``replay`` of that list records
        exactly what running the pass again on the same IR would."""
        self.pass_name = name
        self.phase = phase
        self.snapshot += 1
        self._emitted = []
        return self._emitted

    def replay(self, emitted: Sequence[Tuple]) -> None:
        for kind, site, outcome, reason, evidence in emitted:
            self.record(kind, site, outcome, reason, **evidence)

    def record(self, kind: DecisionKind, site: str, outcome: str,
               reason: str, /, **evidence: Any) -> None:
        # core params are positional-only so evidence may legitimately
        # carry keys like "kind" (e.g. a diagnostic's payload)
        if self._emitted is not None:
            self._emitted.append((kind, site, outcome, reason, evidence))
        d = Decision(kind, site, outcome, reason, evidence,
                     self.pass_name, self.phase, self.snapshot)
        if outcome != APPLIED:
            # rejections/classifications repeat across fixpoint rounds and
            # re-analysis passes; fold exact repeats into a count
            prev = self._dedup.get(d.dedup_key())
            if prev is not None:
                prev.count += 1
                return
            self._dedup[d.dedup_key()] = d
        self.decisions.append(d)

    # -- accessors ---------------------------------------------------------

    def __len__(self) -> int:
        return len(self.decisions)

    def for_loop(self, loop: str) -> List[Decision]:
        """Decisions whose site matches ``loop`` — exact, id-stripped, or
        prefix match, so users can say ``cs`` for site ``cs42``."""
        out = []
        for d in self.decisions:
            if (d.site == loop or strip_ids(d.site).rstrip("#") == loop
                    or d.site.startswith(loop)):
                out.append(d)
        return out

    # -- digest & diff -----------------------------------------------------

    def digest(self) -> str:
        """Stable hash of the normalized decision sequence.

        Symbol ids are stripped, so the digest is reproducible across
        processes for a deterministic compile; any decision that flips
        (a fusion that stops firing, a stencil that degrades to Unknown)
        changes it.
        """
        h = hashlib.sha256()
        for d in self.decisions:
            h.update(f"{d.kind.value}|{strip_ids(d.site)}|{d.outcome}|"
                     f"{strip_ids(d.reason)}|{d.count}\n".encode())
        return h.hexdigest()[:16]

    def normalized_keys(self, max_reason: int = 120) -> List[str]:
        """Sorted, id-stripped decision keys — the multiset the digest
        hashes, rendered as strings so run records can carry it and
        ``repro.obs.analyze`` can diff two records' key sets when their
        digests drift (``reason`` is truncated to keep records small)."""
        return sorted(
            f"{d.kind.value}|{strip_ids(d.site)}|{d.outcome}|"
            f"{strip_ids(d.reason)[:max_reason]}|x{d.count}"
            for d in self.decisions)

    def to_json(self) -> Dict[str, Any]:
        return {"digest": self.digest(),
                "decisions": [d.to_dict() for d in self.decisions]}

    # -- rendering ---------------------------------------------------------

    def render(self, loop: Optional[str] = None,
               title: Optional[str] = None) -> str:
        """Per-site "why" report (the ``repro explain`` body)."""
        chosen = self.decisions if loop is None else self.for_loop(loop)
        lines: List[str] = []
        if title:
            lines.append(title)
        lines.append(f"digest: {self.digest()}   "
                     f"({len(self.decisions)} decisions"
                     + (f", filtered to {len(chosen)}" if loop else "")
                     + ")")
        groups: Dict[str, List[Decision]] = {}
        for d in chosen:
            groups.setdefault(d.site, []).append(d)
        for site, ds in groups.items():
            lines.append(f"{site}:")
            for d in ds:
                lines.append(f"  {d.render()}")
        if not groups:
            lines.append("  (no matching decisions)")
        return "\n".join(lines)


def diff_ledgers(a: DecisionLedger, b: DecisionLedger,
                 label_a: str = "A", label_b: str = "B") -> str:
    """Show exactly which decisions diverge between two ledgers.

    Decisions are keyed on normalized (kind, site, reason); a divergence
    is a key present on one side only or with a different outcome —
    e.g. a fusion ``applied`` under the default pipeline that is simply
    absent under ``--no-fusion``.
    """

    def index(led: DecisionLedger) -> Dict[Tuple, List[str]]:
        out: Dict[Tuple, List[str]] = {}
        for d in led.decisions:
            k = (d.kind.value, strip_ids(d.site), strip_ids(d.reason))
            out.setdefault(k, []).append(d.outcome)
        return out

    ia, ib = index(a), index(b)
    only_a = [k for k in ia if k not in ib]
    only_b = [k for k in ib if k not in ia]
    # a *flip* means the outcome set itself changed; the same outcome
    # merely firing a different number of times (two producers fused vs
    # one) is reported separately so it doesn't read as a reversal
    flipped = [k for k in ia if k in ib and set(ia[k]) != set(ib[k])]
    recount = [k for k in ia
               if k in ib and set(ia[k]) == set(ib[k])
               and len(ia[k]) != len(ib[k])]
    lines = [f"ledger diff: {label_a} (digest {a.digest()}) vs "
             f"{label_b} (digest {b.digest()})"]
    if not (only_a or only_b or flipped or recount):
        lines.append("  identical decision sets")
        return "\n".join(lines)

    def fmt(k: Tuple, outcomes: List[str]) -> str:
        kind, site, reason = k
        return f"  {site}: {kind} {'/'.join(sorted(set(outcomes)))} — {reason}"

    if only_a:
        lines.append(f"only in {label_a} ({len(only_a)}):")
        lines.extend(fmt(k, ia[k]) for k in only_a)
    if only_b:
        lines.append(f"only in {label_b} ({len(only_b)}):")
        lines.extend(fmt(k, ib[k]) for k in only_b)
    if flipped:
        lines.append(f"outcome flipped ({len(flipped)}):")
        lines.extend(f"  {k[1]}: {k[0]} {label_a}={sorted(set(ia[k]))} "
                     f"{label_b}={sorted(set(ib[k]))} — {k[2]}"
                     for k in flipped)
    if recount:
        lines.append(f"same outcome, different multiplicity ({len(recount)}):")
        lines.extend(f"  {k[1]}: {k[0]} {'/'.join(sorted(set(ia[k])))} "
                     f"{label_a}×{len(ia[k])} {label_b}×{len(ib[k])} — {k[2]}"
                     for k in recount)
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# The active-ledger scope
# ---------------------------------------------------------------------------

_ACTIVE: Optional[DecisionLedger] = None


def active() -> Optional[DecisionLedger]:
    return _ACTIVE


@contextmanager
def ledger_scope(ledger: Optional[DecisionLedger]):
    """Make ``ledger`` the emission target for the dynamic extent.

    ``ledger_scope(None)`` explicitly disables provenance (used by the
    zero-overhead tests)."""
    global _ACTIVE
    prev = _ACTIVE
    _ACTIVE = ledger
    try:
        yield ledger
    finally:
        _ACTIVE = prev


def emit(kind: DecisionKind, site: str, outcome: str, reason: str, /,
         **evidence: Any) -> None:
    """Record one decision into the active ledger; no-op when none is."""
    led = _ACTIVE
    if led is None:
        return
    led.record(kind, site, outcome, reason, **evidence)
