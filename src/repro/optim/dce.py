"""Dead code elimination.

All DMLL ops are pure, so any statement whose outputs are never referenced
(transitively from the block results) can be dropped. A program's inputs
are live roots of its top-level block, so the defs that bind them stay,
with what they read. Runs recursively through nested generator blocks.
Fusion relies on DCE to clean up materializations that rewrites made
redundant.
"""

from __future__ import annotations

from typing import Iterable, List, Set

from ..core.ir import (Block, Def, Program, Sym, map_blocks, op_used_syms,
                       rebuild_block, rebuild_def, rebuild_program)
from ..core.multiloop import MultiLoop
from ..obs.provenance import APPLIED, DecisionKind, emit


def dce_block(block: Block, roots: Iterable[Sym] = ()) -> Block:
    """Drop the statements of ``block`` that nothing live reads; ``roots``
    are live from the start, beside the block's results."""
    live: Set[Sym] = set(roots)
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
    return rebuild_program(prog, dce_block(prog.body, roots=prog.inputs))


dce.pass_name = "dce"
