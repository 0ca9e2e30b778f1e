"""Partitioning analysis — Algorithm 1 of the paper (§4.1) plus the
stencil-triggered rewriting of §4.2.

A forward dataflow over the top-level statements decides, for every
collection, whether it is ``LOCAL`` (one memory region) or ``PARTITIONED``
(spread across regions), starting from user annotations on data sources
and following "move the computation to the data". When a parallel pattern
reads partitioned data through an ``Unknown`` stencil, the Fig. 3 rules
are tried one at a time; if any rewrite removes the Unknown access, the
pattern is replaced, otherwise the analysis falls back to runtime data
movement and records a warning.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

from ..core import types as T
from ..core.ir import (Block, Def, Program, Sym, def_index, op_used_syms,
                       rebuild_program)
from ..core.multiloop import GenKind, MultiLoop
from ..core.ops import ArrayLength, BucketKeys, InputSource
from ..obs.diagnostics import (DiagCategory, Diagnostic, Severity,
                               emit_diagnostic, iteration_cap)
from ..obs.provenance import APPLIED, REJECTED, DecisionKind, emit
from ..transforms import DISTRIBUTION_RULES, Rule
from .stencil import LoopStencils, Stencil, analyze_loop


class DataLayout(enum.Enum):
    LOCAL = "Local"
    PARTITIONED = "Partitioned"


#: non-parallel ops that may safely consume partitioned collections
#: (§4.3: e.g. reading a size field never dereferences the data)
_WHITELIST = (ArrayLength, BucketKeys, InputSource)


@dataclass
class LoopDistInfo:
    """How one top-level loop executes on distributed hardware."""

    loop_sym: Sym
    distributed: bool
    driving: Optional[Sym]              # Interval-aligned partitioned input
    stencils: Dict[Sym, Stencil]
    broadcasts: List[Sym] = field(default_factory=list)   # replicate fully
    remote_random: List[Sym] = field(default_factory=list)  # dynamic fetches
    co_partitioned: List[Sym] = field(default_factory=list)


@dataclass
class PartitionReport:
    layouts: Dict[Sym, DataLayout] = field(default_factory=dict)
    loops: Dict[int, LoopDistInfo] = field(default_factory=dict)
    #: typed, loop-attributed events (repro.obs.diagnostics); the historical
    #: ``warnings`` string list is derived from these
    diagnostics: List[Diagnostic] = field(default_factory=list)
    applied_rules: List[str] = field(default_factory=list)

    @property
    def warnings(self) -> List[str]:
        """Backward-compatible view: the messages of warning-severity
        diagnostics, verbatim."""
        return [d.message for d in self.diagnostics
                if d.severity is Severity.WARNING]

    def diagnose(self, category: DiagCategory, message: str,
                 loop: Optional[str] = None,
                 severity=Severity.WARNING, **data) -> None:
        self.diagnostics.append(emit_diagnostic(
            Diagnostic(category, message, loop=loop, severity=severity,
                       data=data)))

    def layout(self, s: Sym) -> DataLayout:
        return self.layouts.get(s, DataLayout.LOCAL)


def _const_index_read(d: Def) -> bool:
    """``coll(const)`` at top level — the runtime broadcasts the single
    element, like a Const stencil inside a loop (§4.2)."""
    from ..core.ir import Const
    from ..core.ops import ArrayApply
    return isinstance(d.op, ArrayApply) and isinstance(d.op.idx, Const)


def _collection_inputs(d: Def) -> List[Sym]:
    seen: List[Sym] = []
    for s in op_used_syms(d.op):
        if T.is_collection(s.tpe) and s not in seen:
            seen.append(s)
    return seen


def partition_and_transform(
        prog: Program,
        rules: Sequence[Rule] = DISTRIBUTION_RULES,
        max_rewrites: int = 20) -> Tuple[Program, PartitionReport]:
    """Run Algorithm 1, rewriting Unknown-stencil patterns along the way."""
    report = PartitionReport()
    body = prog.body

    # user annotations on data sources
    for d in body.stmts:
        if isinstance(d.op, InputSource):
            layout = (DataLayout.PARTITIONED
                      if d.op.partitioned else DataLayout.LOCAL)
            report.layouts[d.syms[0]] = layout
            emit(DecisionKind.PARTITION, repr(d.syms[0]), layout.value,
                 f"user annotation on data source {d.op.label!r}",
                 source=d.op.label)

    pos = 0
    rewrites = 0
    capped = False
    while pos < len(body.stmts):
        d = body.stmts[pos]
        if not isinstance(d.op, MultiLoop):
            _visit_sequential(d, report)
            pos += 1
            continue

        part_inputs = [s for s in _collection_inputs(d)
                       if report.layout(s) is DataLayout.PARTITIONED]
        if not part_inputs:
            for s in d.syms:
                report.layouts[s] = DataLayout.LOCAL
            emit(DecisionKind.LOOP_PLACEMENT, repr(d.syms[0]), "local",
                 "loop consumes no partitioned collection; runs at a "
                 "single location")
            pos += 1
            continue

        scope_idx = def_index(body)
        ls = analyze_loop(d, scope_idx)
        blocked = not _loop_access_ok(ls, part_inputs)
        if blocked and rewrites < max_rewrites:
            new_body = _try_rules(body, pos, rules, report)
            if new_body is not None:
                body = new_body
                rewrites += 1
                continue  # re-analyze from the same position
            bad = [s for s in part_inputs
                   if ls.reads.get(s, Stencil.ALL) in (Stencil.UNKNOWN,
                                                       Stencil.ALL)]
            report.diagnose(
                DiagCategory.UNKNOWN_STENCIL_FALLBACK,
                f"loop {d.syms[0]!r}: partitioned {', '.join(map(repr, bad))} "
                f"accessed with stencil "
                f"{[ls.reads.get(s, Stencil.ALL).value for s in bad]}; "
                f"falling back to runtime data movement / replication",
                loop=d.syms[0].name,
                collections=[str(s) for s in bad],
                stencils=[ls.reads.get(s, Stencil.ALL).value for s in bad])
        elif blocked and not capped:
            capped = True
            report.diagnostics.append(emit_diagnostic(
                iteration_cap("partition", max_rewrites)))

        _record_loop(d, ls, part_inputs, report)
        pos += 1

    return rebuild_program(prog, body), report


def _loop_access_ok(ls: LoopStencils, part_inputs: Sequence[Sym]) -> bool:
    """A loop's access pattern is distribution-friendly when no partitioned
    input is touched data-dependently (Unknown) and the loop either ranges
    over a partitioned input (Interval driver) or broadcasts nothing big
    (no partitioned All)."""
    stencils = [ls.reads.get(s, Stencil.ALL) for s in part_inputs]
    if Stencil.UNKNOWN in stencils:
        return False
    if Stencil.INTERVAL in stencils:
        return True
    return Stencil.ALL not in stencils


def _try_rules(body: Block, pos: int, rules: Sequence[Rule],
               report: PartitionReport) -> Optional[Block]:
    """§4.2: try a single rule at a time; accept the first rewrite whose
    new statements all have distribution-friendly access patterns."""
    from ..transforms.common import replace_stmt
    site = repr(body.stmts[pos].syms[0])
    for rule in rules:
        replacement = rule.apply_to(body, pos)
        if replacement is None:
            continue
        candidate = replace_stmt(body, pos, replacement)
        idx = def_index(candidate)
        improved = True
        for nd in replacement:
            if isinstance(nd.op, MultiLoop):
                nls = analyze_loop(nd, idx)
                part = [s for s in nls.reads
                        if report.layout(s) is DataLayout.PARTITIONED]
                if not _loop_access_ok(nls, part):
                    improved = False
                    break
        if not improved:
            emit(DecisionKind.TRANSFORM, site, REJECTED,
                 f"rule {rule.name} matched but its rewrite still "
                 f"accesses partitioned data through an Unknown/All "
                 f"stencil; rewrite discarded", rule=rule.name)
            continue
        report.applied_rules.append(rule.name)
        emit(DecisionKind.TRANSFORM, site, APPLIED,
             f"rule {rule.name} removed the distribution-blocking access "
             f"pattern (stencil-triggered, Alg. 1)", rule=rule.name,
             trigger="unknown-stencil")
        return candidate
    return None


def _record_loop(d: Def, ls: LoopStencils, part_inputs: List[Sym],
                 report: PartitionReport) -> None:
    stencils = {s: ls.reads.get(s, Stencil.ALL) for s in part_inputs}
    interval = [s for s in part_inputs if stencils[s] is Stencil.INTERVAL]
    unknown = [s for s in part_inputs if stencils[s] is Stencil.UNKNOWN]
    broadcast = [s for s in part_inputs
                 if stencils[s] in (Stencil.ALL, Stencil.CONST)]
    distributed = bool(interval) or bool(unknown)
    driving = interval[0] if interval else (unknown[0] if unknown else None)
    info = LoopDistInfo(
        loop_sym=d.syms[0], distributed=distributed, driving=driving,
        stencils=stencils, broadcasts=broadcast, remote_random=unknown,
        co_partitioned=interval if len(interval) > 1 else [])
    report.loops[d.syms[0].id] = info

    if distributed:
        why = (f"ranges Interval-aligned over partitioned {driving!r}"
               if interval else
               f"partitioned {driving!r} fetched remotely (Unknown stencil)")
    else:
        why = ("partitioned inputs are only broadcast "
               "(All/Const stencils); no interval driver")
    emit(DecisionKind.LOOP_PLACEMENT, repr(d.syms[0]),
         "distributed" if distributed else "local", why,
         driving=repr(driving) if driving else None,
         broadcasts=[repr(s) for s in broadcast],
         remote_random=[repr(s) for s in unknown])

    for s, g in zip(d.syms, d.op.gens):
        if distributed and g.kind in (GenKind.COLLECT, GenKind.BUCKET_COLLECT):
            report.layouts[s] = DataLayout.PARTITIONED
            emit(DecisionKind.PARTITION, repr(s), DataLayout.PARTITIONED.value,
                 f"{g.kind.value} output of distributed loop "
                 f"{d.syms[0]!r} stays partitioned with its producer",
                 loop=repr(d.syms[0]))
        else:
            report.layouts[s] = DataLayout.LOCAL
            emit(DecisionKind.PARTITION, repr(s), DataLayout.LOCAL.value,
                 ("reduction result is materialized locally"
                  if g.kind in (GenKind.REDUCE, GenKind.BUCKET_REDUCE)
                  else f"output of non-distributed loop {d.syms[0]!r}"),
                 loop=repr(d.syms[0]))


def _visit_sequential(d: Def, report: PartitionReport) -> None:
    if isinstance(d.op, InputSource):
        return  # layout comes from the user's annotation
    part = [s for s in _collection_inputs(d)
            if report.layout(s) is DataLayout.PARTITIONED]
    if _const_index_read(d):
        part = []  # a Const-stencil element read: broadcast one element
    if part and not isinstance(d.op, _WHITELIST):
        report.diagnose(
            DiagCategory.SEQUENTIAL_PARTITIONED,
            f"sequential op {d.op.op_name()} consumes partitioned "
            f"{', '.join(map(repr, part))}; it must run at a single location",
            op=d.op.op_name(), collections=[str(s) for s in part])
    for s in d.syms:
        report.layouts[s] = DataLayout.LOCAL
