"""Multiloop fusion (§3.1).

*Pipeline (vertical) fusion* implements the paper's generalized rule::

    C = Collect_s(c1)(f1)
    G_C(c2)(i => k(C(i)))(i => f2(C(i)))(r)
      -->  G_s(c1 && c2∘f1)(k∘f1)(f2∘f1)(r)

for any generator ``G`` consuming a ``Collect`` — this one rule covers
map-map, map-reduce, filter-groupBy, and every other pipeline combination.

*Horizontal fusion* merges independent loops over the same range into a
single multi-generator traversal, which is how the two ``bucketReduce``
loops of transformed k-means (Fig. 5) become one pass over the matrix.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from ..core import types as T
from ..core.ir import (Block, Const, Def, Exp, Program, Sym, def_index,
                       fresh, inline_block, map_blocks, op_used_syms,
                       rebuild_block, rebuild_def, rebuild_program,
                       refresh_block, subst_exp, subst_op)
from ..core.multiloop import GenKind, Generator, MultiLoop
from ..core.ops import FALSE, ArrayApply, ArrayLength, IfThenElse
from ..obs.diagnostics import emit_diagnostic, iteration_cap
from ..obs.provenance import APPLIED, REJECTED, DecisionKind, emit


# ---------------------------------------------------------------------------
# Pipeline (vertical) fusion
# ---------------------------------------------------------------------------

def _producer_lookup(block: Block) -> Dict[Sym, Tuple[Def, Generator]]:
    """Collection syms produced by fusable Collects in this scope."""
    out: Dict[Sym, Tuple[Def, Generator]] = {}
    for d in block.stmts:
        if isinstance(d.op, MultiLoop):
            for s, g in zip(d.syms, d.op.gens):
                if g.kind is GenKind.COLLECT and not g.flatten and not g.no_fuse:
                    out[s] = (d, g)
    return out


def _block_reads(block: Block, c: Sym) -> bool:
    for d in block.stmts:
        if any(s == c for s in op_used_syms(d.op)):
            return True
    return any(r == c for r in block.results)


def _refs_canonical(block: Block, c: Sym, idx: Sym) -> bool:
    """True if every use of ``c`` in ``block`` is ``c(idx)`` or ``len(c)``."""
    for d in block.stmts:
        op = d.op
        if isinstance(op, ArrayApply) and op.arr == c:
            if op.idx != idx:
                return False
        elif isinstance(op, ArrayLength) and op.arr == c:
            pass
        elif any(s == c for e in op.inputs() for s in _syms_of(e)):
            return False
        for b in op.blocks():
            if not _refs_canonical(b, c, idx):
                return False
    return not any(r == c for r in block.results)


def _syms_of(e: Exp):
    if isinstance(e, Sym):
        yield e


def _replace_reads(block: Block, c: Sym, idx: Sym, v: Exp) -> Block:
    """Rewrite ``t = c(idx)`` defs into an alias ``t -> v`` (recursively)."""
    env: Dict[Sym, Exp] = {}
    new_stmts: List[Def] = []
    for d in block.stmts:
        op = d.op
        if isinstance(op, ArrayApply) and op.arr == c and op.idx == idx:
            env[d.sym] = v
            continue
        if env:
            op = subst_op(op, env)
        op = map_blocks(op, lambda b: _replace_reads(b, c, idx, v))
        new_stmts.append(rebuild_def(d, op))
    return rebuild_block(block, new_stmts,
                         [subst_exp(r, env) for r in block.results])


def _rebind(gblock: Block, j: Sym) -> Block:
    """Fresh copy of ``gblock`` with its index parameter renamed to ``j``."""
    inner = refresh_block(
        Block(gblock.params[1:], gblock.stmts, gblock.results),
        {gblock.params[0]: j})
    return Block((j,) + inner.params, inner.stmts, inner.results)


class _Plan:
    """A chosen fusion: a producer loop def plus the subset of its Collect
    outputs the consumer reads. Multi-output producers (e.g. the column
    collections an AoS→SoA split creates) fuse as a unit so that every
    read moves to the producer's index space together."""

    __slots__ = ("p_def", "targets", "cond", "size")

    def __init__(self, p_def: Def, targets: Dict[Sym, Generator],
                 cond: Optional[Block]):
        self.p_def = p_def
        self.targets = targets
        self.cond = cond            # representative producer condition
        self.size = p_def.op.size


def _compose_at(block: Block, plan: _Plan, j: Sym) -> Block:
    """``i => g(C1(i), C2(i), ...)`` composed to the producers' index space."""
    b = _rebind(block, j)
    for c, gen in plan.targets.items():
        if _block_reads(b, c) or _nested_reads(b, c):
            pre: List[Def] = []
            v1 = inline_block(gen.value, [j], pre)
            b = _replace_reads(b, c, j, v1)
            b = Block(b.params, tuple(pre) + b.stmts, b.results)
    return b


def _nested_reads(block: Block, c: Sym) -> bool:
    for d in block.stmts:
        for b in d.op.blocks():
            if _block_reads(b, c) or _nested_reads(b, c):
                return True
    return False


def _fuse_generator(g: Generator, plan: _Plan) -> Generator:
    """The paper's rule: ``G_s(c1 && c2∘f1)(k∘f1)(f2∘f1)(r)``."""
    c1 = plan.cond

    def comp(block: Optional[Block]) -> Optional[Block]:
        if block is None:
            return None
        return _compose_at(block, plan, fresh(T.INT, "j"))

    new_key = comp(g.key)
    new_value = comp(g.value)

    if c1 is None:
        new_cond = comp(g.cond)
    elif g.cond is None:
        j = fresh(T.INT, "j")
        stmts: List[Def] = []
        res = inline_block(c1, [j], stmts)
        new_cond = Block((j,), tuple(stmts), (res,))
    else:
        # short-circuit: c1(j) && c2(f1(j))
        j = fresh(T.INT, "j")
        stmts = []
        c1_res = inline_block(c1, [j], stmts)
        c2b = _compose_at(g.cond, plan, j)
        ite = fresh(T.BOOL, "c")
        stmts.append(Def((ite,), IfThenElse(
            c1_res, Block((), c2b.stmts, c2b.results), Block((), (), (FALSE,)))))
        new_cond = Block((j,), tuple(stmts), (ite,))

    return Generator(g.kind, new_value, cond=new_cond, key=new_key,
                     reducer=g.reducer, init=g.init, flatten=g.flatten)


def _index_only_via_targets(block: Block, targets: set, param: Sym) -> bool:
    """When fusing with a *filtering* producer the consumer's index space
    changes from compacted to raw, so the index may only be used to read
    the producer's outputs (those reads are rewritten); any other use —
    arithmetic, reads of unrelated collections — would silently change
    meaning and blocks the fusion."""
    for d in block.stmts:
        op = d.op
        if isinstance(op, ArrayApply) and op.arr in targets and op.idx == param:
            continue
        if any(e == param for e in op.inputs() if isinstance(e, Sym)):
            return False
        for b in op.blocks():
            if not _index_only_via_targets(b, targets, param):
                return False
    return not any(r == param for r in block.results)


def _find_size_producer(size: Exp, idx: Dict[Sym, Def],
                        producers: Dict[Sym, Tuple[Def, Generator]]) -> Optional[Sym]:
    """Case A: loop size is ``len(C)`` for a scope-local Collect ``C``."""
    if isinstance(size, Sym):
        d = idx.get(size)
        if d is not None and isinstance(d.op, ArrayLength):
            arr = d.op.arr
            if isinstance(arr, Sym) and arr in producers:
                return arr
    return None


def _loop_reads(loop: MultiLoop, c: Sym) -> bool:
    return any(_block_reads(b, c) or _nested_reads(b, c)
               for g in loop.gens for b in g.blocks())


def _choose_fusion_target(loop: MultiLoop, idx, producers, own: set,
                          site: str = ""):
    from ..core.ir import alpha_equal

    def reject(reason: str, **ev) -> None:
        if site:
            emit(DecisionKind.FUSION_VERTICAL, site, REJECTED, reason, **ev)

    cands: List[Sym] = []
    c = _find_size_producer(loop.size, idx, producers)
    if c is not None and c not in own:
        cands.append(c)
    # Case B: unconditional producer with the identical size expression,
    # read directly by this loop.
    for sym, (p_def, p_gen) in producers.items():
        if sym in own or sym in cands:
            continue
        if p_gen.cond is None and p_def.op.size == loop.size and _loop_reads(loop, sym):
            cands.append(sym)

    for seed in cands:
        p_def, seed_gen = producers[seed]
        # every output of this producer loop that the consumer reads must
        # itself be a fusable Collect with an alpha-equivalent condition
        targets: Dict[Sym, Generator] = {}
        ok = True
        for s, g in zip(p_def.syms, p_def.op.gens):
            if not _loop_reads(loop, s):
                continue
            if s in own:
                ok = False
                break
            if g.kind is not GenKind.COLLECT or g.flatten:
                reject(f"producer output {s!r} is not a fusable Collect "
                       f"({g.kind.value}{', flatten' if g.flatten else ''}); "
                       f"the generalized rule only inlines Collects",
                       producer=repr(seed))
                ok = False
                break
            if not alpha_equal(g.cond, seed_gen.cond):
                reject(f"producer outputs {seed!r} and {s!r} have differing "
                       f"filter conditions; fusing as a unit would change "
                       f"which elements survive", producer=repr(seed))
                ok = False
                break
            targets[s] = g
        if not ok:
            continue
        if not targets:
            if seed_gen.cond is not None:
                # a filtering producer that is only used for its size: the
                # consumer's work is unrelated to the raw index space
                reject(f"filtering producer {seed!r} is read only through "
                       f"len(); the consumer's index space is unrelated to "
                       f"the producer's raw range", producer=repr(seed))
                continue
            targets = {seed: seed_gen}
        target_set = set(targets)

        for g in loop.gens:
            if g.reducer is not None:
                for t in target_set:
                    if (_block_reads(g.reducer, t)
                            or _nested_reads(g.reducer, t)):
                        reject(f"reducer reads producer output {t!r} "
                               f"(blocking dependency: the combine function "
                               f"needs the materialized collection)",
                               producer=repr(seed))
                        ok = False
                        break
            if not ok:
                break
            for b in g.blocks():
                if b is g.reducer:
                    continue
                for t in target_set:
                    if not _refs_canonical(b, t, b.params[0]):
                        reject(f"non-canonical access: {t!r} is indexed by "
                               f"something other than the loop index (or "
                               f"escapes whole); inlining the producer "
                               f"element would change meaning",
                               producer=repr(seed))
                        ok = False
                        break
                if not ok:
                    break
                if seed_gen.cond is not None and not _index_only_via_targets(
                        b, target_set, b.params[0]):
                    reject(f"filtering producer {seed!r}: the consumer uses "
                           f"the raw loop index beyond reading producer "
                           f"outputs, but fusion re-indexes from compacted "
                           f"to raw space", producer=repr(seed))
                    ok = False
                    break
            if not ok:
                break
        if ok:
            return _Plan(p_def, targets, seed_gen.cond)
    return None


def fuse_block_once(block: Block) -> Block:
    """One pass of pipeline fusion over a scope (recursing into bodies);
    returns ``block`` itself when no loop in it fused."""
    producers = _producer_lookup(block)
    idx = def_index(block)
    new_stmts: List[Def] = []
    for d in block.stmts:
        op = map_blocks(d.op, fuse_block_once)
        d = rebuild_def(d, op)

        if isinstance(op, MultiLoop):
            plan = _choose_fusion_target(op, idx, producers, set(d.syms),
                                         site=repr(d.syms[0]))
            if plan is not None:
                emit(DecisionKind.FUSION_VERTICAL, repr(d.syms[0]), APPLIED,
                     f"pipeline-fused producer {plan.p_def.syms[0]!r} into "
                     f"this loop (generalized rule "
                     f"G_s(c1 && c2∘f1)(k∘f1)(f2∘f1)(r), §3.1)",
                     producer=repr(plan.p_def.syms[0]),
                     targets=[repr(t) for t in plan.targets])
                new_gens = tuple(_fuse_generator(g, plan) for g in op.gens)
                d = Def(d.syms, MultiLoop(plan.size, new_gens))
        new_stmts.append(d)
        for s in d.syms:
            idx[s] = d
        if isinstance(d.op, MultiLoop):
            for s, g in zip(d.syms, d.op.gens):
                if g.kind is GenKind.COLLECT and not g.flatten and not g.no_fuse:
                    producers[s] = (d, g)
    return rebuild_block(block, new_stmts)


def fuse_vertical(prog: Program, max_iters: int = 20) -> Program:
    body = prog.body
    for _ in range(max_iters):
        fused = fuse_block_once(body)
        if fused is body:
            break
        body = fused
    else:
        emit_diagnostic(iteration_cap("fuse-vertical", max_iters))
    return rebuild_program(prog, body)


# ---------------------------------------------------------------------------
# Horizontal fusion
# ---------------------------------------------------------------------------

def _size_key(e: Exp):
    if isinstance(e, Sym):
        return ("sym", e.id)
    if isinstance(e, Const):
        return ("const", e.value)
    return ("exp", id(e))


class _Group:
    __slots__ = ("first_pos", "members")

    def __init__(self, first_pos: int, d: Def):
        self.first_pos = first_pos
        self.members: List[Def] = [d]


def horizontal_block(block: Block) -> Block:
    stmts = [rebuild_def(d, map_blocks(d.op, horizontal_block))
             for d in block.stmts]

    pos_of: Dict[Sym, int] = {}
    for p, d in enumerate(stmts):
        for s in d.syms:
            pos_of[s] = p

    open_group: Dict[object, _Group] = {}   # latest group per size key
    group_at: Dict[int, _Group] = {}        # stmt position -> its group
    for p, d in enumerate(stmts):
        if not isinstance(d.op, MultiLoop):
            continue
        key = _size_key(d.op.size)
        g = open_group.get(key)
        if g is not None:
            blocking = [s for s in op_used_syms(d.op)
                        if pos_of.get(s, -1) >= g.first_pos]
            if not blocking:
                g.members.append(d)
                group_at[p] = g
                continue
            emit(DecisionKind.FUSION_HORIZONTAL, repr(d.syms[0]), REJECTED,
                 f"same range as loop {g.members[0].syms[0]!r} but depends "
                 f"on {', '.join(map(repr, blocking))} defined inside or "
                 f"after that group (blocking dependency)",
                 group=repr(g.members[0].syms[0]),
                 blocking=[repr(s) for s in blocking])
        g = _Group(p, d)
        open_group[key] = g
        group_at[p] = g

    out: List[Def] = []
    for p, d in enumerate(stmts):
        g = group_at.get(p)
        if g is None or len(g.members) == 1:
            out.append(d)
            continue
        if p != g.first_pos:
            continue  # merged into the group's first position
        gens: List[Generator] = []
        syms: List[Sym] = []
        for m in g.members:
            gens.extend(m.op.gens)
            syms.extend(m.syms)
        emit(DecisionKind.FUSION_HORIZONTAL, repr(d.syms[0]), APPLIED,
             f"merged {len(g.members)} independent same-range loops "
             f"({', '.join(repr(m.syms[0]) for m in g.members)}) into one "
             f"traversal (§3.1, Fig. 5)",
             members=[repr(m.syms[0]) for m in g.members])
        out.append(Def(tuple(syms), MultiLoop(g.members[0].op.size, tuple(gens))))
    return rebuild_block(block, out)


def fuse_horizontal(prog: Program) -> Program:
    return rebuild_program(prog, horizontal_block(prog.body))


fuse_vertical.pass_name = "fuse-vertical"
fuse_horizontal.pass_name = "fuse-horizontal"
