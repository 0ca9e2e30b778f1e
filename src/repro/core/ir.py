"""Core IR node definitions for DMLL.

The IR is a nested, SSA-like representation:

- ``Exp``        — an atom: a constant or a symbol.
- ``Def``        — a statement binding the result(s) of an ``Op`` to symbols.
  Multiloops with several generators bind one symbol per generator, which is
  how horizontal fusion produces multi-output loops.
- ``Block``      — a function body: bound parameters, an ordered statement
  list, and result expressions. Generator component functions (condition,
  key, value, reduction — Fig. 2a) are all blocks.
- ``Program``    — a top-level block plus its input symbols.

Nodes are immutable, and rewrites share structure: a rewrite returns the
node it was given when nothing under it changed (the ``rebuild_*`` helpers
below are the one place that rule lives), so an unchanged region keeps its
identity across passes. That is what makes it sound to cache a derived
fact on a node (``free_syms``) and to recognise "this pass changed
nothing" by ``is``. Symbol identity is the integer ``Sym.id``.
"""

from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass, field
from typing import (Callable, Dict, Iterator, List, Optional, Sequence,
                    Tuple)

from .types import Type, BOOL, DOUBLE, INT, STRING, UNIT

_sym_ids = itertools.count(1)


def _next_id() -> int:
    return next(_sym_ids)


class Exp:
    """An atomic expression: either a ``Const`` or a ``Sym``."""

    tpe: Type


@dataclass(frozen=True)
class Const(Exp):
    value: object
    tpe: Type = field(default=None)  # type: ignore[assignment]

    def __post_init__(self):
        if self.tpe is None:
            object.__setattr__(self, "tpe", infer_const_type(self.value))

    def __repr__(self) -> str:
        return f"Const({self.value!r})"


def infer_const_type(value: object) -> Type:
    if isinstance(value, bool):
        return BOOL
    if isinstance(value, int):
        return INT
    if isinstance(value, float):
        return DOUBLE
    if isinstance(value, str):
        return STRING
    if value is None:
        return UNIT
    raise TypeError(f"cannot infer DMLL type for constant {value!r}")


@dataclass(frozen=True, eq=False)
class Sym(Exp):
    id: int
    tpe: Type
    name: str = "x"

    def __eq__(self, other) -> bool:
        return isinstance(other, Sym) and other.id == self.id

    def __hash__(self) -> int:
        return hash(self.id)

    def __repr__(self) -> str:
        return f"{self.name}{self.id}"


def fresh(tpe: Type, name: str = "x") -> Sym:
    return Sym(_next_id(), tpe, name)


class Op:
    """Base class of all IR operations.

    Subclasses expose their direct expression operands through ``inputs()``
    and any nested function bodies through ``blocks()``; rewrites use these
    to traverse the IR generically.
    """

    def inputs(self) -> Tuple[Exp, ...]:
        return ()

    def blocks(self) -> Tuple["Block", ...]:
        return ()

    def result_types(self) -> Tuple[Type, ...]:
        raise NotImplementedError

    def with_children(self, inputs: Sequence[Exp], blocks: Sequence["Block"]) -> "Op":
        """Rebuild this op with replaced operands/blocks (same shapes)."""
        raise NotImplementedError

    def op_name(self) -> str:
        return self.__class__.__name__


@dataclass(frozen=True)
class Def:
    """A statement: ``syms = op``. Most defs bind exactly one symbol."""

    syms: Tuple[Sym, ...]
    op: Op

    @property
    def sym(self) -> Sym:
        if len(self.syms) != 1:
            raise ValueError(f"def binds {len(self.syms)} syms, expected 1")
        return self.syms[0]

    def __repr__(self) -> str:
        lhs = ",".join(map(repr, self.syms))
        return f"{lhs} = {self.op!r}"


@dataclass(frozen=True)
class Block:
    """A function body: ``params => { stmts; results }``."""

    params: Tuple[Sym, ...]
    stmts: Tuple[Def, ...]
    results: Tuple[Exp, ...]

    @property
    def result(self) -> Exp:
        if len(self.results) != 1:
            raise ValueError("block has multiple results")
        return self.results[0]

    @property
    def result_type(self) -> Type:
        return self.result.tpe

    def __repr__(self) -> str:
        ps = ",".join(map(repr, self.params))
        body = "; ".join(map(repr, self.stmts))
        res = ",".join(map(repr, self.results))
        return f"({ps}) => {{ {body}; {res} }}"


@dataclass(frozen=True)
class Program:
    """A whole staged program: named inputs feeding a top-level block."""

    inputs: Tuple[Sym, ...]
    body: Block


# ---------------------------------------------------------------------------
# Traversal utilities
# ---------------------------------------------------------------------------

def iter_defs(block: Block, recursive: bool = False) -> Iterator[Def]:
    """Iterate statements of a block, optionally descending into nested blocks."""
    for d in block.stmts:
        yield d
        if recursive:
            for b in d.op.blocks():
                yield from iter_defs(b, recursive=True)


def op_used_syms(op: Op, recursive: bool = True) -> Iterator[Sym]:
    """All symbols an op references, including free refs inside nested blocks."""
    for e in op.inputs():
        if isinstance(e, Sym):
            yield e
    if recursive:
        for b in op.blocks():
            yield from free_syms(b)


def free_syms(block: Block) -> Tuple[Sym, ...]:
    """Symbols referenced in ``block`` but neither bound nor defined in it,
    in reference order, one entry per reference.

    Computed once per node: a ``Block`` is immutable, so the answer is kept
    on it — in the instance ``__dict__``, not in a dataclass field, which
    leaves ``==``/``hash``/``repr``/``replace`` exactly as they were. A
    sub-block shared between program versions answers in O(1) for all of
    them."""
    cached = block.__dict__.get("_free_syms")
    if cached is not None:
        return cached
    bound = set(block.params)
    out: List[Sym] = []
    for d in block.stmts:
        for s in op_used_syms(d.op):
            if s not in bound:
                out.append(s)
        bound.update(d.syms)
    for r in block.results:
        if isinstance(r, Sym) and r not in bound:
            out.append(r)
    cached = tuple(out)
    object.__setattr__(block, "_free_syms", cached)
    return cached


def free_sym_set(block: Block) -> set:
    return set(free_syms(block))


# ---------------------------------------------------------------------------
# Structure-sharing rebuilds
# ---------------------------------------------------------------------------
# Every rewrite rebuilds through these. Each returns the node it was given
# when all the children it is handed are (``is``, never ``==``: structural
# equality would walk the subtree the helper exists to skip) the ones the
# node already has.

def _same(new: Sequence, old: Sequence) -> bool:
    return len(new) == len(old) and all(map(operator.is_, new, old))


def rebuild_op(op: Op, inputs: Sequence[Exp], blocks: Sequence[Block]) -> Op:
    """``op`` over these operands and nested blocks."""
    if _same(blocks, op.blocks()) and _same(inputs, op.inputs()):
        return op
    return op.with_children(inputs, blocks)


def map_blocks(op: Op, fn: Callable[[Block], Block]) -> Op:
    """``op`` with ``fn`` applied to each of its nested blocks."""
    old = op.blocks()
    if not old:
        return op
    new = [fn(b) for b in old]
    if _same(new, old):
        return op
    return op.with_children(op.inputs(), new)


def rebuild_def(d: Def, op: Op) -> Def:
    """``d`` binding ``op`` to the same symbols."""
    return d if op is d.op else Def(d.syms, op)


def rebuild_block(block: Block, stmts: Sequence[Def],
                  results: Optional[Sequence[Exp]] = None) -> Block:
    """``block`` with these statements (and results), same parameters."""
    if results is None:
        results = block.results
    if _same(stmts, block.stmts) and _same(results, block.results):
        return block
    return Block(block.params, tuple(stmts), tuple(results))


def rebuild_program(prog: Program, body: Block) -> Program:
    """``prog`` around ``body``, same inputs."""
    return prog if body is prog.body else Program(prog.inputs, body)


def subst_exp(exp: Exp, env: Dict[Sym, Exp]) -> Exp:
    if isinstance(exp, Sym) and exp in env:
        return env[exp]
    return exp


def subst_op(op: Op, env: Dict[Sym, Exp]) -> Op:
    return rebuild_op(op, [subst_exp(e, env) for e in op.inputs()],
                      [subst_block(b, env) for b in op.blocks()])


def subst_block(block: Block, env: Dict[Sym, Exp]) -> Block:
    """Substitute free symbols in a block. Bound/defined syms shadow ``env``."""
    env = {k: v for k, v in env.items() if k not in block.params}
    if not env:
        return block
    new_stmts = []
    for d in block.stmts:
        new_stmts.append(rebuild_def(d, subst_op(d.op, env)))
        env = {k: v for k, v in env.items() if k not in d.syms}
    return rebuild_block(block, new_stmts,
                         [subst_exp(r, env) for r in block.results])


def refresh_block(block: Block, outer_env: Optional[Dict[Sym, Exp]] = None) -> Block:
    """Deep-copy a block with fresh ids for every bound/defined symbol.

    Free symbols are remapped through ``outer_env`` when given. Used when a
    rewrite duplicates a function body (e.g. fusion inlines a producer's
    value function into several consumer blocks).
    """
    env: Dict[Sym, Exp] = dict(outer_env or {})
    new_params = []
    for p in block.params:
        np = fresh(p.tpe, p.name)
        env[p] = np
        new_params.append(np)
    new_stmts = []
    for d in block.stmts:
        new_op = _refresh_op(d.op, env)
        new_syms = []
        for s in d.syms:
            ns = fresh(_op_sym_type(new_op, d, s), s.name)
            env[s] = ns
            new_syms.append(ns)
        new_stmts.append(Def(tuple(new_syms), new_op))
    new_results = tuple(subst_exp(r, env) for r in block.results)
    return Block(tuple(new_params), tuple(new_stmts), new_results)


def _op_sym_type(new_op: Op, old_def: Def, old_sym: Sym) -> Type:
    try:
        idx = old_def.syms.index(old_sym)
        return new_op.result_types()[idx]
    except Exception:
        return old_sym.tpe


def _refresh_op(op: Op, env: Dict[Sym, Exp]) -> Op:
    new_inputs = [subst_exp(e, env) for e in op.inputs()]
    new_blocks = [refresh_block(b, env) for b in op.blocks()]
    return op.with_children(new_inputs, new_blocks)


def inline_block(block: Block, args: Sequence[Exp], into: List[Def]) -> Exp:
    """Inline a single-result block at the given arguments.

    A refreshed copy of the block's statements is appended to ``into`` and
    the (substituted) result expression is returned.
    """
    if len(args) != len(block.params):
        raise ValueError("arity mismatch in inline_block")
    env: Dict[Sym, Exp] = dict(zip(block.params, args))
    refreshed = refresh_block(Block((), block.stmts, block.results), env)
    into.extend(refreshed.stmts)
    return refreshed.result


def def_index(block: Block) -> Dict[Sym, Def]:
    """Map each defined symbol of ``block`` (non-recursive) to its def."""
    out: Dict[Sym, Def] = {}
    for d in block.stmts:
        for s in d.syms:
            out[s] = d
    return out


def alpha_key(block: Block) -> object:
    """A hashable canonical form of a block: bound symbols are renumbered in
    traversal order, free symbols keep their identity. Two blocks are
    alpha-equivalent iff their keys are equal."""
    env: Dict[Sym, int] = {}
    counter = [0]

    def bind(s: Sym) -> None:
        env[s] = counter[0]
        counter[0] += 1

    def ce(e: Exp) -> object:
        if isinstance(e, Const):
            return ("c", e.value, repr(e.tpe))
        if isinstance(e, Sym):
            if e in env:
                return ("b", env[e])
            return ("f", e.id)
        return ("?", repr(e))

    def static_key(op: Op) -> object:
        # the op fields that are neither operands nor blocks
        parts: List[object] = [op.op_name()]
        for attr in ("fname", "label", "partitioned", "elem_type",
                     "struct_type"):
            if hasattr(op, attr):
                parts.append(repr(getattr(op, attr)))
        gens = getattr(op, "gens", None)
        if gens is not None:
            parts.append(tuple((g.kind.value, g.flatten) for g in gens))
        return tuple(parts)

    def cb(b: Block) -> object:
        for p in b.params:
            bind(p)
        stmts = []
        for d in b.stmts:
            entry = (static_key(d.op),
                     tuple(ce(x) for x in d.op.inputs()),
                     tuple(cb(x) for x in d.op.blocks()))
            for s in d.syms:
                bind(s)
            stmts.append(entry)
        return (len(b.params), tuple(stmts), tuple(ce(r) for r in b.results))

    return cb(block)


def alpha_equal(a: Optional[Block], b: Optional[Block]) -> bool:
    if a is None or b is None:
        return a is b
    return alpha_key(a) == alpha_key(b)

