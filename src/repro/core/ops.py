"""Primitive and structured operations of the DMLL IR.

Everything that is not a multiloop lives here: scalar primitives
(arithmetic, comparison, math), array access, struct construction and
projection, bucket lookup, and conditionals. Each primitive carries its
Python evaluator and an abstract cycle cost used by the machine model.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Dict, Optional, Sequence, Tuple

from . import types as T
from .ir import Block, Const, Exp, Op


# ---------------------------------------------------------------------------
# Primitive registry
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PrimSpec:
    name: str
    arity: int
    type_fn: Callable[..., T.Type]
    eval_fn: Callable
    cost: float  # abstract cycles per evaluation


def _numeric2(a: T.Type, b: T.Type) -> T.Type:
    return T.join_numeric(a, b)


def _bool2(a: T.Type, b: T.Type) -> T.Type:
    return T.BOOL


def _same(a: T.Type) -> T.Type:
    return a


def _double1(a: T.Type) -> T.Type:
    return T.DOUBLE


PRIMS: Dict[str, PrimSpec] = {}


def _register(name: str, arity: int, type_fn, eval_fn, cost: float = 1.0) -> None:
    PRIMS[name] = PrimSpec(name, arity, type_fn, eval_fn, cost)


_register("add", 2, _numeric2, lambda a, b: a + b)
_register("sub", 2, _numeric2, lambda a, b: a - b)
_register("mul", 2, _numeric2, lambda a, b: a * b)
_register("div", 2, lambda a, b: T.DOUBLE, lambda a, b: a / b if b != 0 else 0.0, 4.0)
_register("idiv", 2, _numeric2, lambda a, b: a // b if b != 0 else 0, 4.0)
_register("mod", 2, _numeric2, lambda a, b: a % b if b != 0 else 0, 4.0)
_register("neg", 1, _same, lambda a: -a)
_register("min", 2, _numeric2, lambda a, b: min(a, b))
_register("max", 2, _numeric2, lambda a, b: max(a, b))
_register("eq", 2, _bool2, lambda a, b: a == b)
_register("ne", 2, _bool2, lambda a, b: a != b)
_register("lt", 2, _bool2, lambda a, b: a < b)
_register("le", 2, _bool2, lambda a, b: a <= b)
_register("gt", 2, _bool2, lambda a, b: a > b)
_register("ge", 2, _bool2, lambda a, b: a >= b)
_register("and", 2, _bool2, lambda a, b: a and b)
_register("or", 2, _bool2, lambda a, b: a or b)
_register("not", 1, lambda a: T.BOOL, lambda a: not a)
_register("exp", 1, _double1, math.exp, 20.0)
_register("log", 1, _double1, lambda a: math.log(a) if a > 0 else float("-inf"), 20.0)
_register("sqrt", 1, _double1, lambda a: math.sqrt(a) if a >= 0 else 0.0, 10.0)
_register("abs", 1, _same, abs)
_register("pow", 2, lambda a, b: T.DOUBLE, lambda a, b: float(a) ** b, 25.0)
_register("sigmoid", 1, _double1,
          lambda a: 1.0 / (1.0 + math.exp(-a)) if a > -700 else 0.0, 25.0)
_register("to_double", 1, _double1, float)
_register("to_int", 1, lambda a: T.INT, int)
_register("to_long", 1, lambda a: T.LONG, int)
_register("str_concat", 2, lambda a, b: T.STRING, lambda a, b: a + b, 8.0)
_register("str_len", 1, lambda a: T.INT, len, 2.0)
_register("str_char_at", 2, lambda a, b: T.STRING, lambda s, i: s[i] if 0 <= i < len(s) else "", 2.0)
_register("hash", 1, lambda a: T.LONG, lambda a: hash(a) & 0x7FFFFFFFFFFFFFFF, 4.0)


@dataclass(frozen=True)
class Prim(Op):
    """A scalar primitive: ``name(args...)``."""

    name: str
    args: Tuple[Exp, ...]

    def __post_init__(self):
        spec = PRIMS.get(self.name)
        if spec is None:
            raise ValueError(f"unknown primitive {self.name!r}")
        if len(self.args) != spec.arity:
            raise ValueError(f"{self.name} expects {spec.arity} args, got {len(self.args)}")

    def inputs(self) -> Tuple[Exp, ...]:
        return self.args

    def result_types(self) -> Tuple[T.Type, ...]:
        spec = PRIMS[self.name]
        return (spec.type_fn(*(a.tpe for a in self.args)),)

    def with_children(self, inputs: Sequence[Exp], blocks: Sequence[Block]) -> "Prim":
        return Prim(self.name, tuple(inputs))

    def op_name(self) -> str:
        return f"prim.{self.name}"

    def __repr__(self) -> str:
        return f"{self.name}({', '.join(map(repr, self.args))})"


# ---------------------------------------------------------------------------
# Array / collection ops
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ArrayApply(Op):
    """Positional read: ``arr(idx)``. Works on ``Coll`` and ``KeyedColl``
    (dense position order for the latter)."""

    arr: Exp
    idx: Exp

    def inputs(self) -> Tuple[Exp, ...]:
        return (self.arr, self.idx)

    def result_types(self) -> Tuple[T.Type, ...]:
        return (T.element_type(self.arr.tpe),)

    def with_children(self, inputs, blocks) -> "ArrayApply":
        return ArrayApply(inputs[0], inputs[1])

    def __repr__(self) -> str:
        return f"{self.arr!r}({self.idx!r})"


@dataclass(frozen=True)
class ArrayLength(Op):
    arr: Exp

    def inputs(self) -> Tuple[Exp, ...]:
        return (self.arr,)

    def result_types(self) -> Tuple[T.Type, ...]:
        return (T.INT,)

    def with_children(self, inputs, blocks) -> "ArrayLength":
        return ArrayLength(inputs[0])

    def __repr__(self) -> str:
        return f"len({self.arr!r})"


@dataclass(frozen=True)
class ArrayLit(Op):
    """A small literal collection built from scalar expressions."""

    elems: Tuple[Exp, ...]
    elem_type: T.Type

    def inputs(self) -> Tuple[Exp, ...]:
        return self.elems

    def result_types(self) -> Tuple[T.Type, ...]:
        return (T.Coll(self.elem_type),)

    def with_children(self, inputs, blocks) -> "ArrayLit":
        return ArrayLit(tuple(inputs), self.elem_type)

    def __repr__(self) -> str:
        return f"array({', '.join(map(repr, self.elems))})"


@dataclass(frozen=True)
class BucketLookup(Op):
    """Key-indexed read of a ``KeyedColl``: ``coll[key]``.

    Returns the zero value of the element type for missing keys (a bucket
    that received no elements)."""

    coll: Exp
    key: Exp

    def inputs(self) -> Tuple[Exp, ...]:
        return (self.coll, self.key)

    def result_types(self) -> Tuple[T.Type, ...]:
        return (T.element_type(self.coll.tpe),)

    def with_children(self, inputs, blocks) -> "BucketLookup":
        return BucketLookup(inputs[0], inputs[1])

    def __repr__(self) -> str:
        return f"{self.coll!r}[{self.key!r}]"


@dataclass(frozen=True)
class BucketKeys(Op):
    """The key directory of a ``KeyedColl``, in dense position order."""

    coll: Exp

    def inputs(self) -> Tuple[Exp, ...]:
        return (self.coll,)

    def result_types(self) -> Tuple[T.Type, ...]:
        kc = self.coll.tpe
        if not isinstance(kc, T.KeyedColl):
            raise TypeError("BucketKeys requires a KeyedColl")
        return (T.Coll(kc.key),)

    def with_children(self, inputs, blocks) -> "BucketKeys":
        return BucketKeys(inputs[0])

    def __repr__(self) -> str:
        return f"keys({self.coll!r})"


@dataclass(frozen=True)
class CollPrimSpec:
    """A DSL-author-provided collection primitive (§3.2 Discussion: the
    transformation/op facility is 'extensible by DSL authors'). OptiGraph
    contributes ``sorted_intersect_count`` for triangle counting."""

    name: str
    arity: int
    type_fn: Callable[..., T.Type]
    eval_fn: Callable
    #: (arg values) -> (abstract cycles, elements read)
    cost_fn: Callable
    #: optional evaluator of many calls at once, for the vectorized
    #: backend. Each collection argument arrives as two int64 arrays: all
    #: calls' rows back to back, and each row's length. Returns per-call
    #: (values, cycles) arrays and the total elements read — the same
    #: tallies ``eval_fn``/``cost_fn`` give call by call — or ``None`` to
    #: decline a batch it cannot evaluate exactly.
    batch_fn: Optional[Callable] = None


def _sorted_intersect_count(a, b) -> int:
    i = j = n = 0
    la, lb = len(a), len(b)
    while i < la and j < lb:
        if a[i] == b[j]:
            n += 1
            i += 1
            j += 1
        elif a[i] < b[j]:
            i += 1
        else:
            j += 1
    return n


def _sorted_intersect_count_batch(a, a_lens, b, b_lens):
    """All calls' merges in one pass. Tagging every element with its call
    number (``call * span + value - lo``) turns per-call sorted rows into
    two globally sorted key arrays. On an unsorted row the scalar merge is
    order-dependent, so the batch is declined.

    On sorted rows the merge counts, per call, the minimum multiplicity of
    every common value. Where a call's ``b`` row repeats no value, that is
    how many of its ``b`` keys occur among its ``a`` keys: ``a`` marks a
    ``bool`` table of ``n * span`` cells, ``b`` probes it, and a bincount
    of the hits by call gives the counts.

    The table is bounded by 128 cells per element of the batch. The
    vectorized backend cuts batches into strips of ``PRIM_ELEMS`` (64 Ki)
    elements to bound their memory, so a strip's table stays within 8 Mi
    one-byte cells; triangle's strips need at most 80 cells per element
    (1200 vertex ids over its short last strip). Calls whose ``b`` row
    repeats a value, and batches past the bound (wide spans, such as
    64-bit ids), match the run-length encodings of both key arrays
    instead."""
    import numpy as np
    n = len(a_lens)
    counts = np.zeros(n, dtype=np.int64)
    if a.size and b.size:
        lo = int(min(a.min(), b.min()))
        span = int(max(a.max(), b.max())) - lo + 1
        if n * span >= 1 << 62:
            return None  # tags would overflow int64
        tag = np.arange(n, dtype=np.int64) * span - lo
        ka = a + np.repeat(tag, a_lens)
        kb = b + np.repeat(tag, b_lens)
        if (ka[1:] < ka[:-1]).any() or (kb[1:] < kb[:-1]).any():
            return None
        if n * span <= 128 * (a.size + b.size):  # the table's bound
            seen = np.zeros(n * span, dtype=np.bool_)
            seen[ka] = True
            probe, dup = kb, kb[1:][kb[1:] == kb[:-1]] // span
            if dup.size:  # calls whose b row repeats a value
                rep = np.zeros(n, dtype=np.bool_)
                rep[dup] = True
                in_rep = rep[kb // span]
                probe, ka, kb = kb[~in_rep], ka[rep[ka // span]], kb[in_rep]
            else:  # nothing left to match by runs
                ka = kb = kb[:0]
            counts = np.bincount(probe[seen[probe]] // span, minlength=n)
        if ka.size and kb.size:
            ua, ca = _run_lengths(ka)
            ub, cb = _run_lengths(kb)
            at = np.minimum(np.searchsorted(ub, ua), len(ub) - 1)
            hit = ub[at] == ua
            np.add.at(counts, ua[hit] // span,
                      np.minimum(ca[hit], cb[at[hit]]))
    reads = a_lens + b_lens
    return counts, 2.0 * reads, int(reads.sum())


def _run_lengths(keys):
    """The distinct values of a sorted non-empty array and how often each
    occurs: a first-of-run mask, no sort."""
    import numpy as np
    head = np.empty(len(keys), dtype=np.bool_)
    head[0] = True
    np.not_equal(keys[1:], keys[:-1], out=head[1:])
    starts = np.flatnonzero(head)
    return keys[starts], np.diff(starts, append=len(keys))


COLL_PRIMS: Dict[str, CollPrimSpec] = {
    "sorted_intersect_count": CollPrimSpec(
        "sorted_intersect_count", 2, lambda a, b: T.INT,
        _sorted_intersect_count,
        lambda a, b: (2.0 * (len(a) + len(b)), len(a) + len(b)),
        _sorted_intersect_count_batch),
    "coll_contains": CollPrimSpec(
        "coll_contains", 2, lambda a, b: T.BOOL,
        lambda coll, x: x in coll,
        lambda coll, x: (2.0 * len(coll), len(coll))),
}


@dataclass(frozen=True)
class CollPrim(Op):
    """Collection-level primitive: ``name(args...)``."""

    name: str
    args: Tuple[Exp, ...]

    def __post_init__(self):
        spec = COLL_PRIMS.get(self.name)
        if spec is None:
            raise ValueError(f"unknown collection primitive {self.name!r}")
        if len(self.args) != spec.arity:
            raise ValueError(f"{self.name} expects {spec.arity} args")

    def inputs(self) -> Tuple[Exp, ...]:
        return self.args

    def result_types(self) -> Tuple[T.Type, ...]:
        spec = COLL_PRIMS[self.name]
        return (spec.type_fn(*(a.tpe for a in self.args)),)

    def with_children(self, inputs, blocks) -> "CollPrim":
        return CollPrim(self.name, tuple(inputs))

    def op_name(self) -> str:
        return f"collprim.{self.name}"

    def __repr__(self) -> str:
        return f"{self.name}({', '.join(map(repr, self.args))})"


@dataclass(frozen=True)
class MakeKeyed(Op):
    """Assemble a ``KeyedColl`` from parallel key/value collections.

    Introduced by the bucket variant of Row-to-Column Reduce, which
    transposes a vector-valued ``BucketReduce`` into per-column scalar
    reductions and then reassembles the keyed result."""

    keys: Exp
    values: Exp

    def inputs(self) -> Tuple[Exp, ...]:
        return (self.keys, self.values)

    def result_types(self) -> Tuple[T.Type, ...]:
        kt = T.element_type(self.keys.tpe)
        vt = T.element_type(self.values.tpe)
        return (T.KeyedColl(kt, vt),)

    def with_children(self, inputs, blocks) -> "MakeKeyed":
        return MakeKeyed(inputs[0], inputs[1])

    def __repr__(self) -> str:
        return f"keyed({self.keys!r}, {self.values!r})"


# ---------------------------------------------------------------------------
# Struct ops
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class StructNew(Op):
    struct_type: T.Struct
    values: Tuple[Exp, ...]

    def __post_init__(self):
        if len(self.values) != len(self.struct_type.fields):
            raise ValueError("field/value arity mismatch")

    def inputs(self) -> Tuple[Exp, ...]:
        return self.values

    def result_types(self) -> Tuple[T.Type, ...]:
        return (self.struct_type,)

    def with_children(self, inputs, blocks) -> "StructNew":
        return StructNew(self.struct_type, tuple(inputs))

    def __repr__(self) -> str:
        pairs = ", ".join(
            f"{n}={v!r}" for (n, _), v in zip(self.struct_type.fields, self.values))
        return f"{self.struct_type.name}({pairs})"


@dataclass(frozen=True)
class StructField(Op):
    struct: Exp
    fname: str

    def inputs(self) -> Tuple[Exp, ...]:
        return (self.struct,)

    def result_types(self) -> Tuple[T.Type, ...]:
        st = self.struct.tpe
        if not isinstance(st, T.Struct):
            raise TypeError(f"field access on non-struct {st!r}")
        return (st.field_type(self.fname),)

    def with_children(self, inputs, blocks) -> "StructField":
        return StructField(inputs[0], self.fname)

    def __repr__(self) -> str:
        return f"{self.struct!r}.{self.fname}"


# ---------------------------------------------------------------------------
# Control flow
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class IfThenElse(Op):
    cond: Exp
    then_block: Block
    else_block: Block

    def inputs(self) -> Tuple[Exp, ...]:
        return (self.cond,)

    def blocks(self) -> Tuple[Block, ...]:
        return (self.then_block, self.else_block)

    def result_types(self) -> Tuple[T.Type, ...]:
        return (self.then_block.result_type,)

    def with_children(self, inputs, blocks) -> "IfThenElse":
        return IfThenElse(inputs[0], blocks[0], blocks[1])

    def __repr__(self) -> str:
        return f"if({self.cond!r}) {self.then_block!r} else {self.else_block!r}"


# ---------------------------------------------------------------------------
# Program inputs / data sources
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class InputSource(Op):
    """Marks a program input (e.g. a file reader). Carries the user's
    partitioning annotation consumed by Algorithm 1 (§4.1)."""

    tpe: T.Type
    label: str
    partitioned: bool = False

    def result_types(self) -> Tuple[T.Type, ...]:
        return (self.tpe,)

    def with_children(self, inputs, blocks) -> "InputSource":
        return self

    def __repr__(self) -> str:
        tag = "Partitioned" if self.partitioned else "Local"
        return f"input[{tag}]({self.label})"


TRUE = Const(True)
FALSE = Const(False)
ZERO = Const(0)
ONE = Const(1)
