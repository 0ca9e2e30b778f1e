"""Loop-invariant code motion.

Hoists statements out of generator blocks when they do not depend on the
block's parameters. Besides its usual performance role, hoisting is what
lets the Conditional Reduce rule (§3.2) lift a reduction whose support
computation is loop-invariant out of the enclosing Collect.
"""

from __future__ import annotations

from typing import List, Set, Tuple

from ..core.ir import (Block, Def, Program, Sym, map_blocks, op_used_syms,
                       rebuild_block, rebuild_def, rebuild_op, rebuild_program)
from ..core.multiloop import MultiLoop
from ..obs.provenance import APPLIED, DecisionKind, emit


def split_invariant(block: Block) -> Tuple[List[Def], Block]:
    """Partition a generator block's statements into (hoistable, residual).

    A statement is hoistable when none of its (transitive) dependencies
    reach the block parameters. Relative order is preserved on both sides.
    """
    dependent: Set[Sym] = set(block.params)
    hoisted: List[Def] = []
    residual: List[Def] = []
    for d in block.stmts:
        if any(s in dependent for s in op_used_syms(d.op)):
            dependent.update(d.syms)
            residual.append(d)
        else:
            hoisted.append(d)
    return hoisted, rebuild_block(block, residual)


def hoist_block(block: Block) -> Block:
    """Recursively hoist invariant statements of any nested loop's generator
    blocks into this block's statement list."""
    out: List[Def] = []
    for d in block.stmts:
        if isinstance(d.op, MultiLoop):
            new_blocks = []
            for b in d.op.blocks():
                lifted, residual = split_invariant(hoist_block(b))
                if lifted:
                    emit(DecisionKind.CODE_MOTION, repr(d.syms[0]), APPLIED,
                         f"hoisted {len(lifted)} loop-invariant "
                         f"statement(s) "
                         f"({', '.join(repr(h.syms[0]) for h in lifted)}) "
                         f"out of a generator block",
                         hoisted=[repr(h.syms[0]) for h in lifted])
                out.extend(lifted)
                new_blocks.append(residual)
            op = rebuild_op(d.op, d.op.inputs(), new_blocks)
            out.append(rebuild_def(d, op))
        else:
            out.append(rebuild_def(d, map_blocks(d.op, hoist_block)))
    return rebuild_block(block, out)


def code_motion(prog: Program) -> Program:
    return rebuild_program(prog, hoist_block(prog.body))


code_motion.pass_name = "code-motion"
