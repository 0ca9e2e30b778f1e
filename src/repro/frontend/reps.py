"""Staged value wrappers (``Rep`` types) for the DMLL frontend.

User programs manipulate these wrappers with ordinary Python syntax; every
operation emits IR into the open staging scope. The surface API mirrors the
paper's examples: ``map``/``filter``/``flatMap``/``zipWith``/``reduce``/
``groupBy``/``groupByReduce``/``mapRows``/``sumRows``/``minIndex`` …
"""

from __future__ import annotations

from typing import Callable, Optional, Sequence, Union

from ..core import types as T
from ..core.ir import Block, Const, Exp, Sym
from ..core.multiloop import (GenKind, Generator, MultiLoop, bucket_collect,
                              bucket_reduce, collect, reduce_gen)
from ..core.ops import (ArrayApply, ArrayLength, ArrayLit, BucketKeys,
                        BucketLookup, IfThenElse, Prim, StructField, StructNew)
from ..core.staging import emit, emit1, stage_block

Liftable = Union["Rep", Exp, int, float, bool, str]


def unwrap(x: Liftable) -> Exp:
    if isinstance(x, Rep):
        return x.exp
    if isinstance(x, Exp):
        return x
    if isinstance(x, (bool, int, float, str)):
        return Const(x)
    raise TypeError(f"cannot lift {x!r} into DMLL")


def wrap(e: Exp) -> "Rep":
    t = e.tpe
    if isinstance(t, T.Coll):
        return ArrayRep(e)
    if isinstance(t, T.KeyedColl):
        return KeyedRep(e)
    if isinstance(t, T.Struct):
        return StructRep(e)
    if t is T.BOOL:
        return BoolRep(e)
    if t is T.STRING:
        return StrRep(e)
    return NumRep(e)


class Rep:
    """Base wrapper around a staged expression."""

    __slots__ = ("exp",)

    def __init__(self, exp: Exp):
        self.exp = exp

    @property
    def tpe(self) -> T.Type:
        return self.exp.tpe

    def __repr__(self) -> str:
        return f"{self.__class__.__name__}({self.exp!r})"

    def __bool__(self):
        raise TypeError(
            "staged values cannot be used in Python control flow; "
            "use repro.frontend.where(cond, a, b) instead")


def _prim(name: str, *args: Liftable) -> Rep:
    return wrap(emit1(Prim(name, tuple(unwrap(a) for a in args)), name))


class NumRep(Rep):
    __slots__ = ()

    def __add__(self, o): return _prim("add", self, o)
    def __radd__(self, o): return _prim("add", o, self)
    def __sub__(self, o): return _prim("sub", self, o)
    def __rsub__(self, o): return _prim("sub", o, self)
    def __mul__(self, o): return _prim("mul", self, o)
    def __rmul__(self, o): return _prim("mul", o, self)
    def __truediv__(self, o): return _prim("div", self, o)
    def __rtruediv__(self, o): return _prim("div", o, self)
    def __floordiv__(self, o): return _prim("idiv", self, o)
    def __mod__(self, o): return _prim("mod", self, o)
    def __neg__(self): return _prim("neg", self)
    def __abs__(self): return _prim("abs", self)
    def __eq__(self, o): return _prim("eq", self, o)  # type: ignore[override]
    def __ne__(self, o): return _prim("ne", self, o)  # type: ignore[override]
    def __lt__(self, o): return _prim("lt", self, o)
    def __le__(self, o): return _prim("le", self, o)
    def __gt__(self, o): return _prim("gt", self, o)
    def __ge__(self, o): return _prim("ge", self, o)
    def __hash__(self):  # Reps are not hashable values
        raise TypeError("staged values are not hashable")

    def to_double(self): return _prim("to_double", self)
    def to_int(self): return _prim("to_int", self)


class BoolRep(Rep):
    __slots__ = ()

    def __and__(self, o): return _prim("and", self, o)
    def __or__(self, o): return _prim("or", self, o)
    def __invert__(self): return _prim("not", self)
    def __eq__(self, o): return _prim("eq", self, o)  # type: ignore[override]
    def __ne__(self, o): return _prim("ne", self, o)  # type: ignore[override]
    def __hash__(self):
        raise TypeError("staged values are not hashable")


class StrRep(Rep):
    __slots__ = ()

    def __add__(self, o): return _prim("str_concat", self, o)
    def __eq__(self, o): return _prim("eq", self, o)  # type: ignore[override]
    def __ne__(self, o): return _prim("ne", self, o)  # type: ignore[override]
    def __hash__(self):
        raise TypeError("staged values are not hashable")

    def length(self): return _prim("str_len", self)


class StructRep(Rep):
    __slots__ = ()

    def field(self, name: str) -> Rep:
        return wrap(emit1(StructField(self.exp, name), name))

    def __getattr__(self, name: str) -> Rep:
        st = self.exp.tpe
        if isinstance(st, T.Struct) and name in st.field_names():
            return self.field(name)
        raise AttributeError(name)

    @property
    def fst(self) -> Rep:
        return self.field("_0")

    @property
    def snd(self) -> Rep:
        return self.field("_1")


def _value_block(arr_exp: Exp, f: Optional[Callable]) -> Block:
    """Stage ``i => f(arr(i))`` (or ``i => arr(i)`` when f is None)."""
    def body(i: NumRep):
        elem = wrap(emit1(ArrayApply(arr_exp, i.exp), "e"))
        return f(elem) if f is not None else elem
    return stage_block([T.INT], body, ["i"], wrap=wrap, unwrap=unwrap)


def _index_block(f: Callable) -> Block:
    return stage_block([T.INT], f, ["i"], wrap=wrap, unwrap=unwrap)


def _binary_block(tpe: T.Type, f: Callable) -> Block:
    return stage_block([tpe, tpe], f, ["a", "b"], wrap=wrap, unwrap=unwrap)


def _scalar_add_reducer(tpe: T.Type) -> Block:
    return _binary_block(tpe, lambda a, b: a + b)


def _elementwise_add(x, y):
    """``+`` over scalars or, recursively, over collections."""
    if isinstance(x, ArrayRep):
        return x.zip_with(y, _elementwise_add)
    return x + y


def _vector_add_reducer(tpe: T.Coll) -> Block:
    def body(a: "ArrayRep", b: "ArrayRep"):
        return a.zip_with(b, _elementwise_add)
    return _binary_block(tpe, body)


def add_reducer(tpe: T.Type) -> Block:
    """``+`` lifted over scalars or (recursively) over collections."""
    if isinstance(tpe, T.Coll):
        return _vector_add_reducer(tpe)
    return _scalar_add_reducer(tpe)


class ArrayRep(Rep):
    """A staged flat collection (``Coll[V]``)."""

    __slots__ = ()

    # -- basic accessors -------------------------------------------------

    @property
    def elem_type(self) -> T.Type:
        return T.element_type(self.tpe)

    def length(self) -> NumRep:
        return NumRep(emit1(ArrayLength(self.exp), "n"))

    # paper alias
    def count(self) -> NumRep:
        return self.length()

    def __getitem__(self, i: Liftable) -> Rep:
        return self.apply(i)

    def apply(self, i: Liftable) -> Rep:
        return wrap(emit1(ArrayApply(self.exp, unwrap(i)), "e"))

    def _loop(self, gen: Generator, name: str,
              size: Optional[Exp] = None) -> Rep:
        size = size if size is not None else self.length().exp
        return wrap(emit(MultiLoop(size, (gen,)), [name])[0])

    # -- parallel patterns ------------------------------------------------

    def map(self, f: Callable, name: str = "map") -> "ArrayRep":
        gen = collect(_value_block(self.exp, f))
        out = self._loop(gen, name)
        assert isinstance(out, ArrayRep)
        return out

    # paper aliases for matrix-of-rows programs
    map_rows = map

    def map_indices(self, f: Callable, name: str = "mapidx") -> "ArrayRep":
        gen = collect(_index_block(f))
        out = self._loop(gen, name)
        assert isinstance(out, ArrayRep)
        return out

    def filter(self, p: Callable, name: str = "filter") -> "ArrayRep":
        gen = collect(_value_block(self.exp, None), cond=_value_block(self.exp, p))
        out = self._loop(gen, name)
        assert isinstance(out, ArrayRep)
        return out

    def filter_indices(self, p: Callable, name: str = "filteridx") -> "ArrayRep":
        cond = _value_block(self.exp, p)
        value = _index_block(lambda i: i)
        out = self._loop(collect(value, cond=cond), name)
        assert isinstance(out, ArrayRep)
        return out

    def flat_map(self, f: Callable, name: str = "flatmap") -> "ArrayRep":
        gen = collect(_value_block(self.exp, f), flatten=True)
        out = self._loop(gen, name)
        assert isinstance(out, ArrayRep)
        return out

    def zip_with(self, other: "ArrayRep", f: Callable,
                 name: str = "zip") -> "ArrayRep":
        other_exp = other.exp

        def body(i: NumRep):
            a = wrap(emit1(ArrayApply(self.exp, i.exp), "a"))
            b = wrap(emit1(ArrayApply(other_exp, i.exp), "b"))
            return f(a, b)

        gen = collect(stage_block([T.INT], body, ["i"], wrap=wrap, unwrap=unwrap))
        out = self._loop(gen, name)
        assert isinstance(out, ArrayRep)
        return out

    def reduce(self, r: Callable, name: str = "reduce") -> Rep:
        gen = reduce_gen(_value_block(self.exp, None),
                         _binary_block(self.elem_type, r))
        return self._loop(gen, name)

    def map_reduce(self, f: Callable, r: Callable, name: str = "mapreduce") -> Rep:
        vb = _value_block(self.exp, f)
        gen = reduce_gen(vb, _binary_block(vb.result_type, r))
        return self._loop(gen, name)

    def sum(self, name: str = "sum") -> Rep:
        gen = reduce_gen(_value_block(self.exp, None), add_reducer(self.elem_type))
        return self._loop(gen, name)

    # matrix alias: summing rows of a Coll[Coll[Double]] is a vector reduce
    sum_rows = sum

    def min_index(self, name: str = "minidx") -> NumRep:
        """Index of the minimum element (first on ties) — the paper's
        ``minIndex``. Reduces (value, index) pairs."""
        pair_t = T.tuple_type(self.elem_type, T.INT)

        def vb(i: NumRep):
            v = wrap(emit1(ArrayApply(self.exp, i.exp), "v"))
            return StructRep(emit1(StructNew(pair_t, (v.exp, i.exp)), "p"))

        def rb(a: StructRep, b: StructRep):
            return where(b.field("_0") < a.field("_0"), b, a)

        gen = reduce_gen(stage_block([T.INT], vb, ["i"], wrap=wrap, unwrap=unwrap),
                         _binary_block(pair_t, rb))
        pair = self._loop(gen, name)
        assert isinstance(pair, StructRep)
        out = pair.field("_1")
        assert isinstance(out, NumRep)
        return out

    def group_by(self, k: Callable, name: str = "groupby") -> "KeyedRep":
        gen = bucket_collect(_value_block(self.exp, k), _value_block(self.exp, None))
        out = self._loop(gen, name)
        assert isinstance(out, KeyedRep)
        return out

    # paper alias
    group_rows_by = group_by

    def group_by_value(self, k: Callable, v: Callable,
                       name: str = "groupby") -> "KeyedRep":
        gen = bucket_collect(_value_block(self.exp, k), _value_block(self.exp, v))
        out = self._loop(gen, name)
        assert isinstance(out, KeyedRep)
        return out

    def group_by_reduce(self, k: Callable, v: Callable, r: Callable,
                        name: str = "groupred") -> "KeyedRep":
        vb = _value_block(self.exp, v)
        gen = bucket_reduce(_value_block(self.exp, k), vb,
                            _binary_block(vb.result_type, r))
        out = self._loop(gen, name)
        assert isinstance(out, KeyedRep)
        return out


class KeyedRep(Rep):
    """A staged ``KeyedColl`` (result of bucket generators)."""

    __slots__ = ()

    @property
    def elem_type(self) -> T.Type:
        return T.element_type(self.tpe)

    def length(self) -> NumRep:
        return NumRep(emit1(ArrayLength(self.exp), "n"))

    def at(self, pos: Liftable) -> Rep:
        """Dense positional access (first-seen key order)."""
        return wrap(emit1(ArrayApply(self.exp, unwrap(pos)), "e"))

    def __getitem__(self, key: Liftable) -> Rep:
        return self.lookup(key)

    def lookup(self, key: Liftable) -> Rep:
        return wrap(emit1(BucketLookup(self.exp, unwrap(key)), "v"))

    def keys(self) -> ArrayRep:
        return ArrayRep(emit1(BucketKeys(self.exp), "ks"))

    def map(self, f: Callable, name: str = "map") -> ArrayRep:
        """Map over bucket values in dense order — the paper's
        ``groupBy(...).map(group => ...)``."""
        size = self.length().exp

        def body(i: NumRep):
            elem = wrap(emit1(ArrayApply(self.exp, i.exp), "g"))
            return f(elem)

        gen = collect(stage_block([T.INT], body, ["i"], wrap=wrap, unwrap=unwrap))
        sym = emit(MultiLoop(size, (gen,)), [name])[0]
        return ArrayRep(sym)


# ---------------------------------------------------------------------------
# Free functions
# ---------------------------------------------------------------------------

def where(cond: Liftable, then_val, else_val) -> Rep:
    """Staged conditional. Accepts values or zero-argument thunks (thunks
    stage lazily, i.e. only the taken branch's code runs at runtime)."""

    def as_block(v) -> Block:
        if callable(v):
            return stage_block([], v, [], wrap=wrap, unwrap=unwrap)
        return Block((), (), (unwrap(v),))

    tb, eb = as_block(then_val), as_block(else_val)
    return wrap(emit1(IfThenElse(unwrap(cond), tb, eb), "ite"))


def pair(a: Liftable, b: Liftable) -> StructRep:
    ea, eb = unwrap(a), unwrap(b)
    t = T.tuple_type(ea.tpe, eb.tpe)
    return StructRep(emit1(StructNew(t, (ea, eb)), "p"))


def struct(struct_type: T.Struct, **fields: Liftable) -> StructRep:
    values = tuple(unwrap(fields[n]) for n in struct_type.field_names())
    return StructRep(emit1(StructNew(struct_type, values), struct_type.name.lower()))


def array_lit(elems: Sequence[Liftable], elem_type: Optional[T.Type] = None) -> ArrayRep:
    exps = tuple(unwrap(e) for e in elems)
    et = elem_type or (exps[0].tpe if exps else T.DOUBLE)
    return ArrayRep(emit1(ArrayLit(exps, et), "lit"))


class RangeRep:
    """``Range(0, n)`` — not a value, only a loop domain (as in the paper's
    logistic-regression example)."""

    def __init__(self, n: Liftable):
        self.n = unwrap(n)

    def map(self, f: Callable, name: str = "rmap") -> ArrayRep:
        gen = collect(_index_block(f))
        sym = emit(MultiLoop(self.n, (gen,)), [name])[0]
        return ArrayRep(sym)

    def filter(self, p: Callable, name: str = "rfilter") -> ArrayRep:
        gen = collect(_index_block(lambda i: i), cond=_index_block(p))
        sym = emit(MultiLoop(self.n, (gen,)), [name])[0]
        return ArrayRep(sym)

    def flat_map(self, f: Callable, name: str = "rflatmap") -> ArrayRep:
        gen = collect(_index_block(f), flatten=True)
        sym = emit(MultiLoop(self.n, (gen,)), [name])[0]
        return ArrayRep(sym)

    def map_reduce(self, f: Callable, r: Callable, name: str = "rreduce") -> Rep:
        vb = _index_block(f)
        gen = reduce_gen(vb, _binary_block(vb.result_type, r))
        sym = emit(MultiLoop(self.n, (gen,)), [name])[0]
        return wrap(sym)

    def sum(self, f: Callable, name: str = "rsum") -> Rep:
        vb = _index_block(f)
        gen = reduce_gen(vb, add_reducer(vb.result_type))
        sym = emit(MultiLoop(self.n, (gen,)), [name])[0]
        return wrap(sym)


def irange(n: Liftable) -> RangeRep:
    return RangeRep(n)


def intersect_size(a: "ArrayRep", b: "ArrayRep") -> NumRep:
    """Size of the intersection of two *sorted* collections — an OptiGraph
    domain primitive (used by triangle counting)."""
    from ..core.ops import CollPrim
    out = wrap(emit1(CollPrim("sorted_intersect_count",
                              (unwrap(a), unwrap(b))), "isect"))
    assert isinstance(out, NumRep)
    return out


def contains(coll: "ArrayRep", x: Liftable) -> BoolRep:
    """Membership test over a collection (linear scan)."""
    from ..core.ops import CollPrim
    out = wrap(emit1(CollPrim("coll_contains",
                              (unwrap(coll), unwrap(x))), "has"))
    assert isinstance(out, BoolRep)
    return out


# math helpers -------------------------------------------------------------

def fexp(x: Liftable) -> NumRep:
    out = _prim("exp", x)
    assert isinstance(out, NumRep)
    return out


def fsqrt(x: Liftable) -> NumRep:
    out = _prim("sqrt", x)
    assert isinstance(out, NumRep)
    return out


def sigmoid(x: Liftable) -> NumRep:
    out = _prim("sigmoid", x)
    assert isinstance(out, NumRep)
    return out


def fmin(a: Liftable, b: Liftable) -> NumRep:
    out = _prim("min", a, b)
    assert isinstance(out, NumRep)
    return out


def fmax(a: Liftable, b: Liftable) -> NumRep:
    out = _prim("max", a, b)
    assert isinstance(out, NumRep)
    return out
