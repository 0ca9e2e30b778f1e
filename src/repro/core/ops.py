"""Primitive and structured operations of the DMLL IR.

Everything that is not a multiloop lives here: scalar primitives
(arithmetic, comparison, math), array access, struct construction and
projection, bucket lookup, and conditionals. Each primitive carries its
Python evaluator and an abstract cycle cost used by the machine model.
"""

from __future__ import annotations

import math
from collections import namedtuple
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


#: A collection argument of a batched call: its CSR rows (row ``r`` is
#: ``flat[off[r]: off[r] + lens[r]]``), the row each call reads, and a memo
#: dict per collection and run (``None`` for a temporary collection).
CsrArg = namedtuple("CsrArg", "flat off lens rows memo")


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
    #: backend: ``batch_fn(budget, *args)``, each collection argument an
    #: integer ``CsrArg``, and no temporary longer than ``budget``
    #: elements. Returns per-call (values, cycles) arrays and the total
    #: elements read — the same tallies ``eval_fn``/``cost_fn`` give call
    #: by call — or ``None`` to decline a batch it cannot evaluate exactly.
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


def _sorted_intersect_count_batch(budget, a, b):
    """All calls' merges at once; a batch that reads an unsorted row is
    declined (the merge's count depends on order there). On sorted rows
    the merge counts the minimum multiplicity of every common value: where
    one of a call's rows repeats no value, the popcount of the two rows'
    bitsets ANDed (built once per collection and run, offset by one
    ``lo``), ``budget // words`` calls at a time. Calls whose rows both
    repeat a value, and all calls when the bitsets would pass 4 times the
    words of the CSR they pack (wide spans), match run-length encodings of
    their rows, gathered ``budget`` elements at a time and tagged ``call *
    span + value - lo`` into one sorted key array; tags that would overflow
    int64 decline the batch."""
    import numpy as np
    ma, mb = _row_data(a), _row_data(b)
    ra, rb = a.rows, b.rows
    if ma["unsorted"][ra].any() or mb["unsorted"][rb].any():
        return None
    reads = a.lens[ra] + b.lens[rb]
    counts = np.zeros(len(ra), dtype=np.int64)
    if ma["vals"].size and mb["vals"].size:  # else no call shares a value
        lo = min(int(ma["vals"].min()), int(mb["vals"].min()))
        span = max(int(ma["vals"].max()), int(mb["vals"].max())) - lo + 1
        words = (span + 63) // 64
        key = "bits", lo, words
        for m in (ma, mb):  # a row holds v where bit v - lo of it is set
            n = len(m["lens"])
            if key not in m and words * n <= 4 * (len(m["vals"]) + 2 * n):
                v = m["vals"] - lo
                bits = np.zeros((n, words), dtype=np.uint64)
                np.bitwise_or.at(bits.reshape(-1), (v >> 6) + np.repeat(
                    np.arange(n) * words, m["lens"]), np.left_shift(
                        np.uint64(1), (v & 63).astype(np.uint64)))
                m[key] = bits
        by_runs = ma["repeats"][ra] & mb["repeats"][rb] \
            if key in ma and key in mb else np.ones(len(ra), dtype=np.bool_)
        calls, step = np.flatnonzero(~by_runs), max(1, budget // words)
        for s in range(0, len(calls), step):
            c = calls[s: s + step]
            counts[c] = np.bitwise_count(
                ma[key][ra[c]] & mb[key][rb[c]]).sum(axis=1)
        calls = np.flatnonzero(by_runs)
        if len(calls) and (int(calls[-1]) + 1) * span >= 1 << 62:
            return None  # tags would overflow int64
        # a strip ends where the element count passes a budget multiple
        strips = np.split(calls, np.flatnonzero(np.diff(
            np.cumsum(reads[calls]) // budget)) + 1) if len(calls) else ()
        for c in strips:
            tag = c * span - lo
            ka = _gather_rows(ma, ra[c]) + np.repeat(tag, a.lens[ra[c]])
            kb = _gather_rows(mb, rb[c]) + np.repeat(tag, b.lens[rb[c]])
            if ka.size and kb.size:
                ua, ca = _run_lengths(ka)
                ub, cb = _run_lengths(kb)
                at = np.minimum(np.searchsorted(ub, ua), len(ub) - 1)
                hit = ub[at] == ua
                np.add.at(counts, ua[hit] // span,
                          np.minimum(ca[hit], cb[at[hit]]))
    return counts, 2.0 * reads, int(reads.sum())


def _row_data(arg: CsrArg) -> dict:
    """What the intersection evaluator reads of a collection, kept in
    ``arg.memo``: its rows end to end (``vals``, padding dropped) from
    ``starts``, which are ``unsorted`` and which ``repeats`` a value."""
    import numpy as np
    m = {} if arg.memo is None else arg.memo
    if "vals" not in m:
        lens, vals = arg.lens, arg.flat
        starts, total = np.cumsum(lens) - lens, int(lens.sum())
        if len(vals) != total:
            vals = vals[np.repeat(arg.off - starts, lens) + np.arange(total)]
        row = np.repeat(np.arange(len(lens)), lens)
        pair = row[1:] == row[:-1]  # consecutive elements of one row
        down = row[1:][pair & (vals[1:] < vals[:-1])]
        same = row[1:][pair & (vals[1:] == vals[:-1])]
        m.update(lens=lens, vals=vals, starts=starts,
                 unsorted=np.bincount(down, minlength=len(lens)) > 0,
                 repeats=np.bincount(same, minlength=len(lens)) > 0)
    return m


def _gather_rows(m: dict, rows):
    """Rows ``rows`` of a collection (its ``_row_data``) end to end."""
    import numpy as np
    lens = m["lens"][rows]
    return m["vals"][np.repeat(m["starts"][rows] + lens - np.cumsum(lens),
                               lens) + np.arange(int(lens.sum()))]


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
