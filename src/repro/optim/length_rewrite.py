"""Length rewrites.

``len(C)`` where ``C`` is a scope-local Collect is either the producer's
size (unconditional Collect) or a count of passing elements (filtering
Collect). Rewriting lengths this way lets DCE remove collections that were
only materialized to be counted — in k-means it is what turns
``as.count`` into a conditional count that the Conditional Reduce rule and
horizontal fusion then lower into the ``cs`` bucket-reduce of Fig. 5.
"""

from __future__ import annotations

from typing import Dict, List

from ..core import types as T
from ..core.ir import (Block, Const, Def, Exp, Program, Sym, fresh,
                       map_blocks, rebuild_block, rebuild_def,
                       rebuild_program, refresh_block, subst_exp, subst_op)
from ..core.multiloop import GenKind, Generator, MultiLoop, loop_def, reduce_gen
from ..core.ops import ArrayLength, Prim
from ..obs.provenance import APPLIED, DecisionKind, emit


def _count_reducer() -> Block:
    a = fresh(T.INT, "a")
    b = fresh(T.INT, "b")
    s = fresh(T.INT, "s")
    return Block((a, b), (Def((s,), Prim("add", (a, b))),), (s,))


def _rewrite_block(block: Block) -> Block:
    producers: Dict[Sym, Generator] = {}
    sizes: Dict[Sym, Exp] = {}
    env: Dict[Sym, Exp] = {}
    out: List[Def] = []
    for d in block.stmts:
        op = map_blocks(subst_op(d.op, env) if env else d.op, _rewrite_block)
        if isinstance(op, MultiLoop):
            for s, g in zip(d.syms, op.gens):
                if g.kind is GenKind.COLLECT and not g.flatten:
                    producers[s] = g
                    sizes[s] = op.size
        if isinstance(op, ArrayLength) and isinstance(op.arr, Sym) \
                and op.arr in producers:
            g = producers[op.arr]
            if g.cond is None:
                # len(map(...)) == size of the producer's range
                emit(DecisionKind.LENGTH_REWRITE, repr(d.syms[0]), APPLIED,
                     f"len({op.arr!r}) of an unconditional Collect replaced "
                     f"by the producer's range size",
                     collection=repr(op.arr))
                env[d.sym] = sizes[op.arr]
                continue
            # len(filter(...)) == conditional count over the range
            emit(DecisionKind.LENGTH_REWRITE, repr(d.syms[0]), APPLIED,
                 f"len({op.arr!r}) of a filtering Collect rewritten to a "
                 f"conditional count over the producer's range",
                 collection=repr(op.arr))
            j = fresh(T.INT, "j")
            ones = Block((j,), (), (Const(1),))
            cnt = loop_def(sizes[op.arr],
                           [reduce_gen(ones, _count_reducer(),
                                       cond=refresh_block(g.cond))],
                           ["count"])
            out.append(cnt)
            env[d.sym] = cnt.syms[0]
            continue
        out.append(rebuild_def(d, op))
    return rebuild_block(block, out, [subst_exp(r, env) for r in block.results])


def rewrite_lengths(prog: Program) -> Program:
    return rebuild_program(prog, _rewrite_block(prog.body))


rewrite_lengths.pass_name = "rewrite-lengths"
