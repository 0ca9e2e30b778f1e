"""Read stencil analysis (§4.2).

For every multiloop and every collection it consumes, statically classify
the range of the collection each iteration may access:

- ``INTERVAL`` — iteration ``i`` reads element ``i`` (one dimension). The
  runtime partitions on interval boundaries; all accesses stay local.
- ``CONST``    — a loop-invariant index; the element is broadcast.
- ``ALL``      — the whole collection is consumed per iteration (e.g. a
  nested loop over its full range); the collection is broadcast.
- ``UNKNOWN``  — a data-dependent index; triggers the Fig. 3 rewrites, and
  failing those, runtime data movement with a warning.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, Optional, Set, Tuple

from ..core.ir import Block, Const, Def, Exp, Program, Sym, def_index
from ..core.multiloop import MultiLoop
from ..core.ops import ArrayApply, ArrayLength, BucketLookup
from ..obs.provenance import DecisionKind, emit


class Stencil(enum.Enum):
    INTERVAL = "Interval"
    CONST = "Const"
    ALL = "All"
    UNKNOWN = "Unknown"


def join_stencil(a: Stencil, b: Stencil) -> Stencil:
    if a == b:
        return a
    if Stencil.UNKNOWN in (a, b):
        return Stencil.UNKNOWN
    if Stencil.ALL in (a, b):
        return Stencil.ALL
    # Interval + Const: conservatively broadcast the whole collection
    return Stencil.ALL


@dataclass
class LoopStencils:
    """Stencils of one top-level loop, keyed by consumed collection sym."""

    loop_sym: Sym
    reads: Dict[Sym, Stencil] = field(default_factory=dict)
    #: why each collection got its stencil — the passed affine test for
    #: Interval/Const/All, the failed one for Unknown (provenance, §8)
    reasons: Dict[Sym, str] = field(default_factory=dict)

    def add(self, coll: Sym, s: Stencil, reason: str = "") -> None:
        cur = self.reads.get(coll)
        joined = s if cur is None else join_stencil(cur, s)
        if cur is None:
            self.reasons[coll] = reason
        elif joined is not cur:
            # the new access degraded the classification; explain the join
            old = self.reasons.get(coll, cur.value)
            self.reasons[coll] = (reason if joined is s
                                  else f"conflicting accesses: {old}; {reason}")
        self.reads[coll] = joined


def analyze_loop(d: Def, scope_index: Dict[Sym, Def]) -> LoopStencils:
    """Compute read stencils of one top-level multiloop."""
    assert isinstance(d.op, MultiLoop)
    out = LoopStencils(d.syms[0])
    loop = d.op
    for g in loop.gens:
        for b in g.blocks():
            if b is g.reducer:
                # reducer args are loop outputs, not input collections;
                # reads of free collections inside are invariant indices
                _walk(b, None, {}, out, scope_index, set())
            else:
                _walk(b, b.params[0], {}, out, scope_index, set())
    for coll, s in out.reads.items():
        emit(DecisionKind.STENCIL, repr(d.syms[0]), s.value,
             f"{coll!r}: {out.reasons.get(coll) or s.value}",
             collection=repr(coll))
    return out


def _walk(block: Block, loop_index: Optional[Sym],
          inner_loops: Dict[Sym, Exp],  # nested loop param -> size exp
          out: LoopStencils, scope_index: Dict[Sym, Def],
          local_syms: Set[Sym]) -> None:
    local_syms = set(local_syms) | set(block.params)
    scope_index = dict(scope_index)
    for d in block.stmts:
        op = d.op
        if isinstance(op, ArrayApply):
            arr = op.arr
            if isinstance(arr, Sym) and arr not in local_syms:
                s, why = _classify(op.idx, arr, loop_index, inner_loops,
                                   local_syms, scope_index)
                out.add(arr, s, why)
        elif isinstance(op, BucketLookup):
            coll = op.coll
            if isinstance(coll, Sym) and coll not in local_syms:
                # keyed lookup: data-dependent unless the key is invariant
                if _is_invariant(op.key, local_syms):
                    out.add(coll, Stencil.CONST, "loop-invariant bucket key")
                else:
                    out.add(coll, Stencil.UNKNOWN,
                            "data-dependent bucket key")
        if isinstance(op, MultiLoop):
            for g in op.gens:
                for b in g.blocks():
                    nested = dict(inner_loops)
                    if b is not g.reducer and b.params:
                        nested[b.params[0]] = op.size
                    _walk(b, loop_index, nested, out, scope_index, local_syms)
        else:
            for b in op.blocks():
                _walk(b, loop_index, inner_loops, out, scope_index, local_syms)
        # defs seen so far extend the size-resolution environment
        for s in d.syms:
            scope_index[s] = d
        local_syms.update(d.syms)


def _classify(idx: Exp, arr: Sym, loop_index: Optional[Sym],
              inner_loops: Dict[Sym, Exp], local_syms: Set[Sym],
              scope_index: Dict[Sym, Def]) -> Tuple[Stencil, str]:
    """Classify one indexed access and say which affine test decided it."""
    if isinstance(idx, Const):
        return Stencil.CONST, "literal index"
    if isinstance(idx, Sym):
        if loop_index is not None and idx == loop_index:
            return Stencil.INTERVAL, "index is the loop index (identity map)"
        if idx in inner_loops:
            # an inner loop's index: covers the whole collection when the
            # inner loop ranges over len(arr)
            size = inner_loops[idx]
            if _is_length_of(size, arr, scope_index):
                return Stencil.ALL, "inner loop ranges over len(collection)"
            return (Stencil.UNKNOWN,
                    "inner-loop index whose range is not len(collection); "
                    "cannot bound the accessed region")
        if idx not in local_syms:
            return Stencil.CONST, "loop-invariant index"
    return (Stencil.UNKNOWN,
            "data-dependent index expression (no affine test matched)")


def _is_invariant(e: Exp, local_syms: Set[Sym]) -> bool:
    if isinstance(e, Const):
        return True
    return isinstance(e, Sym) and e not in local_syms


def _is_length_of(size: Exp, arr: Sym, scope_index: Dict[Sym, Def]) -> bool:
    if isinstance(size, Sym):
        d = scope_index.get(size)
        return d is not None and isinstance(d.op, ArrayLength) and d.op.arr == arr
    return False


def analyze_program(prog: Program) -> Dict[int, LoopStencils]:
    """Stencils for every top-level loop, keyed by the loop's first sym id."""
    idx = def_index(prog.body)
    out: Dict[int, LoopStencils] = {}
    for d in prog.body.stmts:
        if isinstance(d.op, MultiLoop):
            out[d.syms[0].id] = analyze_loop(d, idx)
    return out
