"""The multiloop: DMLL's core parallel-pattern abstraction (Fig. 2).

A multiloop is a single-dimensional traversal of ``0 until size`` carrying
one or more *generators*. Each generator holds the separated user functions
of the pattern — condition ``c``, key ``k``, value ``f``, reduction ``r`` —
and accumulates one loop output. Loops start with one generator; horizontal
fusion merges generators of loops sharing a range into one traversal.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, replace
from typing import List, Optional, Sequence, Tuple

from . import types as T
from .ir import Block, Const, Def, Exp, Op, fresh


class GenKind(enum.Enum):
    COLLECT = "Collect"
    REDUCE = "Reduce"
    BUCKET_COLLECT = "BucketCollect"
    BUCKET_REDUCE = "BucketReduce"


@dataclass(frozen=True)
class Generator:
    """One output pattern of a multiloop.

    ``cond``    — ``i => Bool`` or ``None`` for the always-true condition
                  (written ``_`` in the paper).
    ``key``     — ``i => K``; bucket generators only.
    ``value``   — ``i => V``; always present.
    ``reducer`` — ``(V, V) => V``; reducing generators only.
    ``init``    — explicit reduction identity; defaults to the type's zero.
    """

    kind: GenKind
    value: Block
    cond: Optional[Block] = None
    key: Optional[Block] = None
    reducer: Optional[Block] = None
    init: Optional[Exp] = None
    #: flatMap support: the value function yields a whole collection per
    #: iteration and the generator concatenates them (COLLECT only).
    flatten: bool = False
    #: set by transformations that deliberately *materialize* (e.g. the
    #: loop-fission step of Row-to-Column Reduce): pipeline fusion must not
    #: inline this producer back into its consumers.
    no_fuse: bool = False

    def __post_init__(self):
        reducing = self.kind in (GenKind.REDUCE, GenKind.BUCKET_REDUCE)
        if reducing and self.reducer is None:
            raise ValueError(f"{self.kind.value} requires a reducer")
        keyed = self.kind in (GenKind.BUCKET_COLLECT, GenKind.BUCKET_REDUCE)
        if keyed and self.key is None:
            raise ValueError(f"{self.kind.value} requires a key function")
        if not keyed and self.key is not None:
            raise ValueError(f"{self.kind.value} cannot have a key function")
        if self.flatten:
            if self.kind is not GenKind.COLLECT:
                raise ValueError("flatten is only meaningful for Collect")
            if not isinstance(self.value.result_type, T.Coll):
                raise ValueError("flatten requires a collection-valued body")

    @property
    def value_type(self) -> T.Type:
        return self.value.result_type

    @property
    def key_type(self) -> T.Type:
        assert self.key is not None
        return self.key.result_type

    def result_type(self) -> T.Type:
        v = self.value_type
        if self.kind is GenKind.COLLECT:
            if self.flatten:
                return v  # already Coll[V]
            return T.Coll(v)
        if self.kind is GenKind.REDUCE:
            return v
        if self.kind is GenKind.BUCKET_COLLECT:
            return T.KeyedColl(self.key_type, T.Coll(v))
        return T.KeyedColl(self.key_type, v)

    def blocks(self) -> Tuple[Block, ...]:
        out: List[Block] = []
        if self.cond is not None:
            out.append(self.cond)
        if self.key is not None:
            out.append(self.key)
        out.append(self.value)
        if self.reducer is not None:
            out.append(self.reducer)
        return tuple(out)

    def with_blocks(self, blocks: Sequence[Block]) -> "Generator":
        blocks = list(blocks)
        cond = blocks.pop(0) if self.cond is not None else None
        key = blocks.pop(0) if self.key is not None else None
        value = blocks.pop(0)
        reducer = blocks.pop(0) if self.reducer is not None else None
        assert not blocks
        return Generator(self.kind, value, cond, key, reducer, self.init,
                         self.flatten, self.no_fuse)

    def init_exps(self) -> Tuple[Exp, ...]:
        return (self.init,) if self.init is not None else ()

    def with_init(self, init_exps: Sequence[Exp]) -> "Generator":
        if self.init is None:
            return self
        return replace(self, init=init_exps[0])

    def identity_value(self):
        """Runtime identity value for reducing generators."""
        if self.init is not None and isinstance(self.init, Const):
            return self.init.value
        return T.zero_value(self.value_type)

    def __repr__(self) -> str:
        parts = [self.kind.value]
        if self.cond is not None:
            parts.append(f"c={self.cond!r}")
        if self.key is not None:
            parts.append(f"k={self.key!r}")
        parts.append(f"f={self.value!r}")
        if self.reducer is not None:
            parts.append(f"r={self.reducer!r}")
        return "<" + " ".join(parts) + ">"


@dataclass(frozen=True)
class MultiLoop(Op):
    """``MultiLoop(size, gens)`` — one traversal, ``len(gens)`` outputs."""

    size: Exp
    gens: Tuple[Generator, ...]

    def __post_init__(self):
        if not self.gens:
            raise ValueError("multiloop needs at least one generator")

    def inputs(self) -> Tuple[Exp, ...]:
        out: List[Exp] = [self.size]
        for g in self.gens:
            out.extend(g.init_exps())
        return tuple(out)

    def blocks(self) -> Tuple[Block, ...]:
        out: List[Block] = []
        for g in self.gens:
            out.extend(g.blocks())
        return tuple(out)

    def result_types(self) -> Tuple[T.Type, ...]:
        return tuple(g.result_type() for g in self.gens)

    def with_children(self, inputs, blocks) -> "MultiLoop":
        inputs = list(inputs)
        blocks = list(blocks)
        size = inputs.pop(0)
        new_gens = []
        for g in self.gens:
            n_init = len(g.init_exps())
            g = g.with_init([inputs.pop(0) for _ in range(n_init)])
            n_blocks = len(g.blocks())
            g = g.with_blocks([blocks.pop(0) for _ in range(n_blocks)])
            new_gens.append(g)
        assert not inputs and not blocks
        return MultiLoop(size, tuple(new_gens))

    def op_name(self) -> str:
        return "loop." + "+".join(g.kind.value for g in self.gens)

    def __repr__(self) -> str:
        gens = ", ".join(map(repr, self.gens))
        return f"MultiLoop(s={self.size!r})[{gens}]"


# ---------------------------------------------------------------------------
# Construction helpers (used by the frontend and by rewrites)
# ---------------------------------------------------------------------------

def loop_def(size: Exp, gens: Sequence[Generator],
             names: Optional[Sequence[str]] = None) -> Def:
    """Build a ``Def`` binding one fresh symbol per generator."""
    loop = MultiLoop(size, tuple(gens))
    tps = loop.result_types()
    names = names or ["l"] * len(tps)
    syms = tuple(fresh(t, n) for t, n in zip(tps, names))
    return Def(syms, loop)


def collect(value: Block, cond: Optional[Block] = None,
            flatten: bool = False, no_fuse: bool = False) -> Generator:
    return Generator(GenKind.COLLECT, value, cond=cond, flatten=flatten,
                     no_fuse=no_fuse)


def reduce_gen(value: Block, reducer: Block, cond: Optional[Block] = None,
               init: Optional[Exp] = None) -> Generator:
    return Generator(GenKind.REDUCE, value, cond=cond, reducer=reducer, init=init)


def bucket_collect(key: Block, value: Block, cond: Optional[Block] = None) -> Generator:
    return Generator(GenKind.BUCKET_COLLECT, value, cond=cond, key=key)


def bucket_reduce(key: Block, value: Block, reducer: Block,
                  cond: Optional[Block] = None, init: Optional[Exp] = None) -> Generator:
    return Generator(GenKind.BUCKET_REDUCE, value, cond=cond, key=key,
                     reducer=reducer, init=init)


def single_gen(d: Def) -> Optional[Generator]:
    """The generator of a single-output loop def, else ``None``."""
    if isinstance(d.op, MultiLoop) and len(d.op.gens) == 1:
        return d.op.gens[0]
    return None
