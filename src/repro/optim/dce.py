"""Dead code elimination.

All DMLL ops are pure, so any statement whose outputs are never referenced
(transitively from the block results) can be dropped. Runs recursively
through nested generator blocks. Fusion relies on DCE to clean up
materializations that rewrites made redundant.
"""

from __future__ import annotations

from typing import List, Set

from ..core.ir import (Block, Def, Program, Sym, map_blocks, op_used_syms,
                       rebuild_block, rebuild_def, rebuild_program)
from ..core.multiloop import MultiLoop
from ..obs.provenance import APPLIED, DecisionKind, emit


def dce_block(block: Block) -> Block:
    live: Set[Sym] = set()
    for r in block.results:
        if isinstance(r, Sym):
            live.add(r)
    kept: List[Def] = []
    for d in reversed(block.stmts):
        if not any(s in live for s in d.syms):
            emit(DecisionKind.DCE, repr(d.syms[0]), APPLIED,
                 f"dropped {d.op.op_name()}: outputs never referenced "
                 f"(transitively) from the scope results")
            continue
        op = d.op
        if isinstance(op, MultiLoop) and len(op.gens) > 1:
            # dead generator elimination: drop outputs nobody reads
            pairs = [(s, g) for s, g in zip(d.syms, op.gens) if s in live]
            if pairs and len(pairs) < len(op.gens):
                dead = [s for s in d.syms if s not in live]
                emit(DecisionKind.DCE, repr(d.syms[0]), APPLIED,
                     f"dead generator elimination: dropped "
                     f"{', '.join(map(repr, dead))} from a "
                     f"{len(op.gens)}-generator loop",
                     dead=[repr(s) for s in dead])
                d = Def(tuple(s for s, _ in pairs),
                        MultiLoop(op.size, tuple(g for _, g in pairs)))
        d = rebuild_def(d, map_blocks(d.op, dce_block))
        kept.append(d)
        live.update(op_used_syms(d.op))
    kept.reverse()
    return rebuild_block(block, kept)


def dce(prog: Program) -> Program:
    body = dce_block(prog.body)
    # program inputs are always retained: re-attach their defs if dropped
    present = {s for d in body.stmts for s in d.syms}
    missing = {s for s in prog.inputs if s not in present}
    if not missing:
        return rebuild_program(prog, body)

    # Dependency slice of the *original* body that computes the dropped
    # input syms. Re-attached defs are narrowed to the outputs that are
    # still absent (a multi-output loop may have partially survived via
    # dead generator elimination) and merged back at their original
    # statement positions so def-before-use order holds.
    orig = prog.body.stmts
    pos_of = {s: i for i, d in enumerate(orig) for s in d.syms}
    wanted: dict = {}  # original position -> syms to resurrect there
    work = sorted(missing, key=lambda s: s.id)
    queued = set(work)
    while work:
        s = work.pop()
        i = pos_of.get(s)
        if i is None:
            continue
        wanted.setdefault(i, []).append(s)
        for u in op_used_syms(orig[i].op):
            if u not in present and u not in queued and u in pos_of:
                queued.add(u)
                work.append(u)

    def narrowed(d: Def, keep: List[Sym]) -> Def:
        if len(keep) == len(d.syms):
            return d
        if isinstance(d.op, MultiLoop):
            pairs = [(s, g) for s, g in zip(d.syms, d.op.gens) if s in keep]
            return Def(tuple(s for s, _ in pairs),
                       MultiLoop(d.op.size, tuple(g for _, g in pairs)))
        raise AssertionError(
            f"program input(s) {keep!r} bound by a partially-live "
            f"non-loop multi-sym def; cannot re-attach")

    extras = sorted(wanted.items())
    merged: List[Def] = []
    ei = 0
    for d in body.stmts:
        p = pos_of.get(d.syms[0], len(orig))
        while ei < len(extras) and extras[ei][0] <= p:
            i, keep = extras[ei]
            merged.append(narrowed(orig[i], keep))
            ei += 1
        merged.append(d)
    for i, keep in extras[ei:]:
        merged.append(narrowed(orig[i], keep))
    return Program(prog.inputs, Block(body.params, tuple(merged),
                                      body.results))


dce.pass_name = "dce"
