"""Common subexpression elimination.

Structural, per-scope: two statements with equal ops (same class, same
operands after prior remappings) are merged. Ops carrying nested blocks are
only merged when literally equal, which fresh bound symbols make rare —
loop-level deduplication is horizontal fusion's job, not CSE's.
"""

from __future__ import annotations

from typing import Dict, List

from ..core.ir import (Block, Def, Exp, Op, Program, Sym, map_blocks,
                       rebuild_block, rebuild_def, rebuild_program, subst_exp,
                       subst_op)
from ..obs.provenance import APPLIED, DecisionKind, emit


def cse_block(block: Block) -> Block:
    seen: Dict[Op, Def] = {}
    env: Dict[Sym, Exp] = {}
    out: List[Def] = []
    for d in block.stmts:
        op = map_blocks(subst_op(d.op, env), cse_block)
        prev = _lookup(seen, op)
        if prev is not None and len(prev.syms) == len(d.syms):
            emit(DecisionKind.CSE, repr(d.syms[0]), APPLIED,
                 f"merged duplicate {op.op_name()} into earlier "
                 f"{prev.syms[0]!r}", kept=repr(prev.syms[0]))
            for old, new in zip(d.syms, prev.syms):
                env[old] = new
            continue
        nd = rebuild_def(d, op)
        _insert(seen, op, nd)
        out.append(nd)
    return rebuild_block(block, out, [subst_exp(r, env) for r in block.results])


def _lookup(seen: Dict[Op, Def], op: Op):
    try:
        return seen.get(op)
    except TypeError:  # unhashable op contents
        return None


def _insert(seen: Dict[Op, Def], op: Op, d: Def) -> None:
    try:
        seen[op] = d
    except TypeError:
        pass


def cse(prog: Program) -> Program:
    return rebuild_program(prog, cse_block(prog.body))


cse.pass_name = "cse"
