"""Block vectorizer: evaluate DMLL blocks over whole index vectors.

The reference interpreter (``repro.core.interp``) evaluates generator
blocks once per element; this module evaluates them once per *loop* on
NumPy lane vectors — one lane per loop index — under a boolean activity
mask. Values flow through a small vocabulary of representations:

- ``numpy.ndarray`` of shape ``(L,)`` — a per-lane scalar;
- ``SVec``   — a per-lane struct, stored as columnar fields;
- ``ArrVec`` — a per-lane nested array, stored padded with optional
  per-lane lengths (ragged rows);
- ``Rows``   — a lazy per-lane gather of rows from one host collection
  (adjacency lists, bucket values, a list of per-lane ``Buckets``) that
  keeps the original row objects reachable for collection primitives and
  key lookups, or from an enclosing loop's ``ArrVec`` (the view a nested
  loop body has of an outer array);
- any other Python value — lane-invariant ("uniform"), evaluated once.

A nested multiloop is one more lane axis, not an inner Python loop: its
body is evaluated once over the flattened space of active (outer lane,
trip) pairs by a child vectorizer, nested ``Collect`` results are
scattered back by (segment, position), nested ``Reduce`` folds every
segment left to right in trip order, and nested bucket generators group
the flat lanes by (segment, key) and fold or collect every group the same
way (``LoopVectorizer._nested_loop``). A top-level loop is the one-segment
case: the executor runs it as one strip of a one-lane root vectorizer.

Cost accounting stays *analytic* and matches the interpreter cycle for
cycle: every operation adds its cost to per-lane essential/overhead
vectors under the current mask, and global tallies (op counts, elements
read, bytes) accumulate in a loop-local ``ExecStats`` that the caller
commits only after the whole loop vectorized successfully — a mid-loop
``VecError`` therefore leaves the interpreter's stats untouched and the
loop can fall back to reference execution. All cycle constants are
dyadic rationals, so the vectorized sums are bit-identical to the
interpreter's sequential accumulation.
"""

from __future__ import annotations

import math
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..core import types as T
from ..core.interp import (BRANCH_CYCLES, BUCKET_CYCLES, READ_CYCLES,
                           WRITE_CYCLES, ExecStats, add_stats,
                           loop_share_plan)
from ..core.ir import Block, Const, Def, Exp, Sym
from ..core.multiloop import GenKind, Generator, MultiLoop
from ..core.ops import (COLL_PRIMS, PRIMS, ArrayApply, ArrayLength, ArrayLit,
                        BucketKeys, BucketLookup, CollPrim, IfThenElse,
                        InputSource, MakeKeyed, Prim, StructField, StructNew)
from ..core.values import Buckets


class VecError(Exception):
    """A construct (or runtime value shape) this backend cannot vectorize.

    Raised before any stats are committed; the caller records the reason
    and re-executes the loop on the reference interpreter.
    """


#: Flat (outer lane, trip) pairs one strip of a nested loop evaluates at
#: once. Every def of the nested body keeps one temporary this long alive
#: until its strip ends, so the budget bounds memory, not speed. Measured
#: on benchmarks/e2e (``peak_rss_mb``, trip-at-a-time parent -> whole nest
#: at once -> 16 Ki strips): exec_lane_bound 47.3 -> 57.2 -> 48.1 MB,
#: serve_tenants_fleet 51.2 -> 61.6 -> 52.0 MB (kmeans' 8k x 8 x 16 nest;
#: unstripped is over the benchmark's 10 % bound), same ``geomean_ms``.
STRIP_LANES = 1 << 14

#: Row elements (sum of all operands' lengths) one call of a batched
#: collection primitive gathers. exec_dispatch_bound ``peak_rss_mb``:
#: 49.6 MB at the parent, 66.3 MB with triangle's 8.4k row pairs in one
#: call, 51.7 MB at 64 Ki elements, same ``geomean_ms``.
PRIM_ELEMS = 1 << 16


def _strips(ends: np.ndarray, budget: int):
    """Cut consecutive segments, given their cumulative sizes ``ends``,
    into ``(start, stop)`` strips of at most ``budget`` elements. A segment
    larger than the budget gets a strip to itself, and empty segments ride
    with a neighbour, so every strip holds at least one element."""
    total = int(ends[-1]) if len(ends) else 0
    start = base = 0
    while base < total:
        stop = int(np.searchsorted(ends, base + budget, side="right"))
        if stop == start or ends[stop - 1] == base:
            # the next non-empty segment alone exceeds the budget
            stop = int(np.searchsorted(ends, ends[stop], side="right"))
        yield start, stop
        start, base = stop, int(ends[stop - 1])


def _runs(cnt: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Elements laid out as consecutive runs of ``cnt[r]``: the run each
    element belongs to and its position within that run."""
    run = np.repeat(np.arange(len(cnt)), cnt)
    return run, np.arange(len(run)) - (np.cumsum(cnt) - cnt)[run]


def first_seen_codes(keys: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Dense codes of ``keys`` numbered in order of first appearance (the
    order a ``Buckets`` directory lists its keys in), and the position of
    every code's first occurrence."""
    try:
        _, first, inv = np.unique(keys, return_index=True,
                                  return_inverse=True)
    except TypeError as e:
        raise VecError(f"unsortable bucket keys: {e}") from None
    order = np.argsort(first, kind="stable")
    rank = np.empty(len(order), dtype=np.int64)
    rank[order] = np.arange(len(order))
    return rank[inv.reshape(-1)], first[order]


def _grouping(key: Any, kseg: np.ndarray, flat: np.ndarray
              ) -> Tuple[Any, ...]:
    """The groups of a strip's keyed elements (keys ``key``, lanes
    ``flat``, segments ``kseg``) by (segment, key), numbered in first-seen
    order: by segment and, within a segment, the order its ``Buckets``
    lists keys in. Returns the element order that lays every group out as
    one run, the run lengths, the lanes in that order, and every group's
    segment and host key."""
    if not isinstance(key, np.ndarray):
        raise VecError("non-scalar bucket key")
    code, first = first_seen_codes(key)
    if kseg[0] != kseg[-1]:  # more than one segment: code (segment, key)
        code, first = first_seen_codes(kseg * len(first) + code)
    order = np.argsort(code, kind="stable")
    return (order, np.bincount(code, minlength=len(first)), flat[order],
            kseg[first], key[first].tolist())


# ---------------------------------------------------------------------------
# Lane-vector value representations
# ---------------------------------------------------------------------------

class SVec:
    """Per-lane struct: a tuple of columnar fields (each a lane vector or
    a uniform value)."""

    __slots__ = ("fields",)

    def __init__(self, fields: Tuple[Any, ...]):
        self.fields = fields

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"SVec({self.fields!r})"


class ArrVec:
    """Per-lane nested array: ``data`` has shape ``(L, W, ...)``; rows may
    be ragged, in which case ``lengths`` gives each lane's true length and
    the tail of every row is padding."""

    __slots__ = ("data", "lengths")

    def __init__(self, data: np.ndarray, lengths: Optional[np.ndarray]):
        self.data = data
        self.lengths = lengths

    def length_vec(self):
        if self.lengths is not None:
            return self.lengths
        return self.data.shape[1]  # uniform width

    def length_array(self) -> np.ndarray:
        if self.lengths is not None:
            return self.lengths
        return np.full(len(self), self.data.shape[1], dtype=np.int64)

    # one lane's row as a host list: a lifted view (``Rows`` over an
    # ``ArrVec``) reads its base exactly like a host collection
    def __len__(self) -> int:
        return self.data.shape[0]

    def __getitem__(self, lane: int) -> list:
        row = self.data[lane]
        if self.lengths is not None:
            row = row[: self.lengths[lane]]
        return row.tolist()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"ArrVec{self.data.shape}"


class Rows:
    """Per-lane rows gathered from one collection: lane ``l`` holds
    ``base[idx[l]]``. ``base`` is either a uniform host collection
    (adjacency lists, bucket values), whose padding/length caches live on
    ``host`` (the executing interpreter) so it is columnarized at most once
    per run, or an ``ArrVec`` of an enclosing lane space — the *lifted*
    view a nested loop body gets of an outer lane's array, which composes
    indices over the existing padded matrix instead of copying it.

    A row may itself be a host ``Buckets``: that is the lane value of a
    keyed collection, whether gathered from a list of them or built one per
    outer lane by a nested bucket generator. Positional reads and lengths
    see its dense values like any other row; ``BucketLookup`` and ``keys``
    go through the row objects."""

    __slots__ = ("base", "idx", "host")

    def __init__(self, base: Sequence[Any], idx: np.ndarray, host=None):
        self.base = base
        self.idx = idx
        self.host = host

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Rows(n={len(self.base)}, L={len(self.idx)})"


def _materialize(v: Any) -> Any:
    """Rows → padded ArrVec (needed when a select/concat mixes a gather
    with a computed array, e.g. a vector-add reduction over input rows)."""
    if not isinstance(v, Rows):
        return v
    if v.host is None:
        raise VecError("cannot materialize detached row gather")
    if not isinstance(v.base, ArrVec) and len(v.base) \
            and isinstance(v.base[0], (Buckets, tuple)):
        # keys lost, or a struct read as a row
        raise VecError("cannot materialize per-lane buckets or structs")
    lens, pad = v.host.row_cache(v.base)
    if pad is None:
        raise VecError("cannot materialize non-scalar rows")
    l = lens[v.idx]
    data = pad[v.idx]
    if l.size and int(l.min()) == int(l.max()):
        return ArrVec(data[:, : int(l[0])], None)
    return ArrVec(data, l)


def is_vec(v: Any) -> bool:
    return isinstance(v, (np.ndarray, SVec, ArrVec, Rows))


def _np_dtype(tpe: T.Type):
    if tpe is T.DOUBLE:
        return np.float64
    if tpe in (T.INT, T.LONG):
        return np.int64
    if tpe is T.BOOL:
        return np.bool_
    return object


# ---------------------------------------------------------------------------
# Structural recombination helpers
# ---------------------------------------------------------------------------

def as_lane_vec(v: Any, L: int) -> Any:
    """Broadcast a uniform value to a full lane vector (vectors pass
    through)."""
    if is_vec(v):
        return v
    if isinstance(v, tuple):
        return SVec(tuple(as_lane_vec(f, L) for f in v))
    if isinstance(v, list):
        row = np.asarray(v)
        if row.dtype == object:
            raise VecError("cannot broadcast heterogeneous row")
        return ArrVec(np.tile(row, (L,) + (1,) * max(row.ndim, 1)), None)
    if isinstance(v, (bool, np.bool_)):
        return np.full(L, bool(v), dtype=np.bool_)
    if isinstance(v, (int, np.integer)):
        return np.full(L, int(v), dtype=np.int64)
    if isinstance(v, (float, np.floating)):
        return np.full(L, float(v), dtype=np.float64)
    return np.full(L, v, dtype=object)


def vec_take(v: Any, idx: np.ndarray) -> Any:
    """Reindex a lane vector by lane indices (uniforms pass through)."""
    if isinstance(v, np.ndarray):
        return v[idx]
    if isinstance(v, SVec):
        return SVec(tuple(vec_take(f, idx) for f in v.fields))
    if isinstance(v, ArrVec):
        return ArrVec(v.data[idx],
                      None if v.lengths is None else v.lengths[idx])
    if isinstance(v, Rows):
        return Rows(v.base, v.idx[idx], v.host)
    return v


def vec_lift(v: Any, rep: np.ndarray, host) -> Any:
    """An outer lane vector as seen from a nested lane space whose lane
    ``m`` belongs to outer lane ``rep[m]``. Like ``vec_take``, except that
    a nested array stays a lazy row gather over the outer matrix: copying
    it per (lane, trip) pair would cost 33 MB on gda alone."""
    if isinstance(v, ArrVec):
        return Rows(v, rep, host)
    if isinstance(v, SVec):
        return SVec(tuple(vec_lift(f, rep, host) for f in v.fields))
    return vec_take(v, rep)


def vec_concat(parts: Sequence[Any], sizes: Sequence[int]) -> Any:
    """Concatenate lane vectors of ``sizes`` lanes along the lane axis."""
    if len(parts) == 1:
        return parts[0]
    parts = [as_lane_vec(p, n) for p, n in zip(parts, sizes)]
    if all(isinstance(p, np.ndarray) for p in parts):
        return np.concatenate(parts)
    if all(isinstance(p, SVec) for p in parts) and \
            len({len(p.fields) for p in parts}) == 1:
        return SVec(tuple(vec_concat(col, sizes)
                          for col in zip(*(p.fields for p in parts))))
    if all(isinstance(p, Rows) and p.base is parts[0].base for p in parts):
        return Rows(parts[0].base, np.concatenate([p.idx for p in parts]),
                    parts[0].host)
    parts = [_materialize(p) for p in parts]
    if all(isinstance(p, ArrVec) for p in parts):
        w = max(p.data.shape[1] for p in parts)
        if all(p.lengths is None and p.data.shape[1] == w for p in parts):
            return ArrVec(np.concatenate([p.data for p in parts]), None)
        return ArrVec(np.concatenate([_pad_to(p, w).data for p in parts]),
                      np.concatenate([p.length_array() for p in parts]))
    raise VecError("mixed value shapes in concatenation")


def _pad_to(v: ArrVec, w: int) -> ArrVec:
    """Widen an ArrVec's padding to inner width ``w``."""
    if v.data.shape[1] == w:
        return v
    out = np.zeros((v.data.shape[0], w) + v.data.shape[2:],
                   dtype=v.data.dtype)
    out[:, : v.data.shape[1]] = v.data
    return ArrVec(out, v.length_array())


def _pad_pair(a: ArrVec, b: ArrVec) -> Tuple[ArrVec, ArrVec]:
    """Pad two ArrVecs to a common inner width; empty rows (an identity
    ``[]``) take the element shape and dtype of the other side's rows."""
    if not a.data.shape[1]:
        a = ArrVec(np.zeros(a.data.shape[:2] + b.data.shape[2:],
                            b.data.dtype), a.lengths)
    elif not b.data.shape[1]:
        return _pad_pair(b, a)[::-1]
    w = max(a.data.shape[1], b.data.shape[1])
    return _pad_to(a, w), _pad_to(b, w)


def _row_elems(v: Any, row: np.ndarray, col: np.ndarray) -> Any:
    """Elements ``(row[e], col[e])`` of per-lane arrays as a lane vector
    over ``e``; an array of structs stays columnar, and host rows that do
    not pad (of structs, of rows, ``Buckets``) become a gather of their
    elements, laid end to end."""
    if isinstance(v, SVec):
        return SVec(tuple(_row_elems(f, row, col) for f in v.fields))
    if isinstance(v, Rows) and v.host is not None \
            and not isinstance(v.base, ArrVec) and len(v.base):
        lens, pad = v.host.row_cache(v.base)
        if pad is None or isinstance(v.base[0], Buckets):
            start = (np.cumsum(lens) - lens)[v.idx[row]]
            return Rows(v.host.flat_cache(v.base), start + col, v.host)
    v = _materialize(v)
    if not isinstance(v, ArrVec):
        raise VecError("flatten of a non-array value")
    out = v.data[row, col]
    return out if out.ndim == 1 else ArrVec(out, None)


def vec_where(cond: np.ndarray, tv: Any, ev: Any, L: int) -> Any:
    """Per-lane select. ``cond`` is a boolean lane vector."""
    if not is_vec(tv) and not is_vec(ev) and type(tv) is type(ev) and tv == ev:
        return tv
    tv = as_lane_vec(tv, L)
    ev = as_lane_vec(ev, L)
    if isinstance(tv, Rows) and isinstance(ev, Rows) and tv.base is ev.base:
        return Rows(tv.base, np.where(cond, tv.idx, ev.idx), tv.host)
    if isinstance(tv, Rows) or isinstance(ev, Rows):
        tv = _materialize(tv)
        ev = _materialize(ev)
    if isinstance(tv, np.ndarray) and isinstance(ev, np.ndarray):
        return np.where(cond, tv, ev)
    if isinstance(tv, SVec) and isinstance(ev, SVec):
        if len(tv.fields) != len(ev.fields):
            raise VecError("struct arity mismatch in select")
        return SVec(tuple(vec_where(cond, a, b, L)
                          for a, b in zip(tv.fields, ev.fields)))
    if isinstance(tv, ArrVec) and isinstance(ev, ArrVec):
        tv, ev = _pad_pair(tv, ev)
        sel = cond.reshape((L,) + (1,) * (tv.data.ndim - 1))
        lens = None  # both sides full-width: _pad_pair left them alone
        if tv.lengths is not None or ev.lengths is not None:
            lens = np.where(cond, tv.length_array(), ev.length_array())
        return ArrVec(np.where(sel, tv.data, ev.data), lens)
    raise VecError("mixed value shapes in select")


# ---------------------------------------------------------------------------
# Vectorized primitive table
# ---------------------------------------------------------------------------

def _guard_div(a, b):
    with np.errstate(divide="ignore", invalid="ignore"):
        r = np.true_divide(a, b)
    return np.where(np.asarray(b) != 0, r, 0.0)


def _guard_idiv(a, b):
    bz = np.asarray(b) != 0
    with np.errstate(divide="ignore", invalid="ignore"):
        r = np.floor_divide(a, np.where(bz, b, 1))
    return np.where(bz, r, 0)


def _guard_mod(a, b):
    bz = np.asarray(b) != 0
    with np.errstate(divide="ignore", invalid="ignore"):
        r = np.mod(a, np.where(bz, b, 1))
    return np.where(bz, r, 0)


def _bool_op(fn):
    def op(*args):
        for a in args:
            if isinstance(a, np.ndarray) and a.dtype != np.bool_:
                raise VecError("logical primitive on non-boolean operand")
            if not isinstance(a, (np.ndarray, bool, np.bool_)):
                raise VecError("logical primitive on non-boolean operand")
        return fn(*args)
    return op


def _pyfunc(fn, out_dtype):
    """Element-wise application of the interpreter's own evaluator.

    Used for transcendentals so the backend is *bit-identical* to
    ``math.exp``/``math.log`` (NumPy's SIMD routines may differ in the
    last ulp, which could flip a downstream comparison), and for string /
    hash primitives NumPy has no kernel for."""
    ufn = np.frompyfunc(fn, _arity_of(fn), 1)

    def op(*args):
        return ufn(*args).astype(out_dtype)
    return op


def _arity_of(fn) -> int:
    return fn.__code__.co_argcount if hasattr(fn, "__code__") else 1


_EXP = _pyfunc(math.exp, np.float64)
_LOG = _pyfunc(PRIMS["log"].eval_fn, np.float64)
_POW = _pyfunc(PRIMS["pow"].eval_fn, np.float64)
_SIGMOID = _pyfunc(PRIMS["sigmoid"].eval_fn, np.float64)

VEC_PRIMS = {
    "add": lambda a, b: a + b,
    "sub": lambda a, b: a - b,
    "mul": lambda a, b: a * b,
    "div": _guard_div,
    "idiv": _guard_idiv,
    "mod": _guard_mod,
    "neg": lambda a: -a,
    # Python's rule, NaN and signed zeros included: b only if b < a (b > a)
    "min": lambda a, b: np.where(b < a, b, a),
    "max": lambda a, b: np.where(b > a, b, a),
    "eq": lambda a, b: np.equal(a, b),
    "ne": lambda a, b: np.not_equal(a, b),
    "lt": lambda a, b: np.less(a, b),
    "le": lambda a, b: np.less_equal(a, b),
    "gt": lambda a, b: np.greater(a, b),
    "ge": lambda a, b: np.greater_equal(a, b),
    "and": _bool_op(np.logical_and),
    "or": _bool_op(np.logical_or),
    "not": _bool_op(np.logical_not),
    "exp": _EXP,
    "log": _LOG,
    # np.sqrt is IEEE correctly rounded, identical to math.sqrt
    "sqrt": lambda a: np.where(np.asarray(a) >= 0,
                               np.sqrt(np.abs(a)), 0.0),
    "abs": np.abs,
    "pow": _POW,
    "sigmoid": _SIGMOID,
    "to_double": lambda a: np.asarray(a, dtype=np.float64),
    "to_int": lambda a: _truncate(a),
    "to_long": lambda a: _truncate(a),
    "str_concat": _pyfunc(lambda a, b: a + b, object),
    "str_len": _pyfunc(len, np.int64),
    "str_char_at": _pyfunc(PRIMS["str_char_at"].eval_fn, object),
    "hash": _pyfunc(PRIMS["hash"].eval_fn, np.int64),
}

def _ufunc_kernel(uf):
    return uf, lambda seq: uf.accumulate(seq, axis=0)[-1]


def _extreme_kernel(better, nan_ignoring):
    """Python's ``max``/``min`` (``b if better(b, a) else a``) as a fold: a
    run that starts with NaN stays NaN, any other ends at its first element
    equal to the NaN-ignoring extreme (so of two signed zeros, the first)."""
    def step(acc, x, out):
        np.copyto(out, x, where=better(x, acc))

    def run(seq):
        top = nan_ignoring.accumulate(seq, axis=0)[-1]
        pick = np.take_along_axis(seq, (seq == top).argmax(axis=0)[None], 0)
        return np.where(seq[0] != seq[0], seq[0], pick[0])
    return step, run


#: the associative prims whose elementwise lift folds as whole rows, each
#: as ``(step, run)``: ``step(acc, x, out=acc)`` combines rows ``acc`` with
#: rows ``x`` in place, ``run(seq)`` folds the rows ``seq`` left to right
#: in one sequential call. ``sub`` and other non-associative prims are
#: absent: they fold per step.
FOLD_KERNELS = {
    "add": _ufunc_kernel(np.add),
    "mul": _ufunc_kernel(np.multiply),
    "min": _extreme_kernel(np.less, np.fmin),
    "max": _extreme_kernel(np.greater, np.fmax),
    "and": _ufunc_kernel(np.logical_and),
    "or": _ufunc_kernel(np.logical_or),
}


def _truncate(a):
    a = np.asarray(a)
    if a.dtype == np.bool_:
        return a.astype(np.int64)
    return np.trunc(a).astype(np.int64) if a.dtype.kind == "f" \
        else a.astype(np.int64)


def reducer_operands(name: str, vals: np.ndarray) -> np.ndarray:
    """``vals`` as operands of ufunc ``name`` with the interpreter's
    meaning: Python bool arithmetic widens to int."""
    if name in ("and", "or") and vals.dtype != np.bool_:
        raise VecError("logical reducer on non-boolean values")
    if name in ("add", "mul") and vals.dtype == np.bool_:
        return vals.astype(np.int64)
    return vals


def recognize_elementwise(block: Block) -> Optional[Tuple[str, int]]:
    """``(prim, depth)`` when ``block`` is the elementwise lift of an
    associative prim: depth 0 is ``(a, b) => prim(a, b)``, either argument
    order; depth ``d`` is ``(a, b) => { n = len(a); Collect_n(i => { ai =
    a(i); bi = b(i); <depth d-1 on (ai, bi)> }) }``, the ``zipWith`` the
    interchange rules build. A structural match, kept on the immutable
    block as ``free_syms`` keeps its answer."""
    if "_elementwise" not in block.__dict__:
        object.__setattr__(block, "_elementwise", len(block.params) == 2
                           and _match_elementwise(*block.params, block.stmts,
                                                  block.results) or None)
    return block.__dict__["_elementwise"]


def _match_elementwise(a: Sym, b: Sym, stmts, results):
    if len(stmts) == 1:
        d, op = stmts[0], stmts[0].op
        return (op.name, 0) if isinstance(op, Prim) \
            and op.name in FOLD_KERNELS and d.syms == results \
            and len(op.args) == 2 and set(op.args) == {a, b} else None
    if len(stmts) != 2:
        return None
    (nd, ld), loop = stmts, stmts[1].op
    if not (isinstance(nd.op, ArrayLength) and nd.op.arr == a
            and isinstance(loop, MultiLoop) and len(loop.gens) == 1
            and loop.size == nd.syms[0] and ld.syms == results):
        return None
    g, vb = loop.gens[0], loop.gens[0].value
    reads = [d.op for d in vb.stmts[:2]]
    if g.kind is not GenKind.COLLECT or g.cond is not None or g.flatten \
            or len(reads) < 2 or not all(
                isinstance(r, ArrayApply) and r.arr == x
                and r.idx == vb.params[0] for r, x in zip(reads, (a, b))):
        return None
    inner = _match_elementwise(vb.stmts[0].syms[0], vb.stmts[1].syms[0],
                               vb.stmts[2:], vb.results)
    return inner and (inner[0], inner[1] + 1)


# ---------------------------------------------------------------------------
# Static vectorizability scan
# ---------------------------------------------------------------------------

def plan_loop(loop: MultiLoop) -> Optional[str]:
    """Static scan of one loop, nested loops included; returns a fallback
    reason or ``None`` when every construct has a vectorized lowering."""
    reason = _plan_shared_keys(loop.gens)
    for b in loop.blocks():
        reason = reason or _plan_block(b)
    return reason


def plan_program(prog) -> Dict[str, Optional[str]]:
    """Static backend plan for every top-level loop, without executing.

    Maps ``repr(loop sym)`` to the fallback reason ``plan_loop`` would
    report (``None`` = fully vectorizable), and emits one BACKEND_PLAN
    decision per loop into the active provenance ledger — this is how
    ``repro explain`` shows plan-vs-fallback without running the program.
    (Runtime-only fallbacks, from value shapes the static scan cannot see,
    still surface when the program is actually run.)
    """
    from ..obs.provenance import FALLBACK, VECTORIZED, DecisionKind, emit
    out: Dict[str, Optional[str]] = {}
    for d in prog.body.stmts:
        if not isinstance(d.op, MultiLoop):
            continue
        reason = plan_loop(d.op)
        out[repr(d.syms[0])] = reason
        emit(DecisionKind.BACKEND_PLAN, repr(d.syms[0]),
             VECTORIZED if reason is None else FALLBACK,
             reason if reason is not None
             else "all constructs have a vectorized lowering",
             op=d.op.op_name(), static=True)
    return out


def _plan_shared_keys(gens: Sequence[Generator]) -> Optional[str]:
    share_keys, need_memo = loop_share_plan(gens)
    if not need_memo:
        return None
    # generators that share a key probe must also share the active mask,
    # otherwise the first-probe/sibling-write cost split cannot be
    # reproduced lane-wise
    by_key: Dict[Any, Any] = {}
    for ck, kk in share_keys:
        if kk is None:
            continue
        if kk in by_key and by_key[kk] != ck:
            return "bucket key shared across generators with " \
                   "differing conditions"
        by_key.setdefault(kk, ck)
    return None


def _plan_block(block: Block) -> Optional[str]:
    for d in block.stmts:
        op = d.op
        if isinstance(op, (MakeKeyed, InputSource)):
            return f"op {op.op_name()} inside a generator block"
        if isinstance(op, CollPrim) and op.name not in COLL_PRIMS:
            return f"unknown collection primitive {op.name}"
        if isinstance(op, Prim) and op.name not in VEC_PRIMS:
            return f"no vectorized lowering for prim.{op.name}"
        if isinstance(op, IfThenElse):
            for b in (op.then_block, op.else_block):
                reason = _plan_block(b)
                if reason is not None:
                    return reason
        if isinstance(op, MultiLoop):
            reason = plan_loop(op)
            if reason is not None:
                return reason
    return None


# ---------------------------------------------------------------------------
# The vectorizer
# ---------------------------------------------------------------------------

class LoopVectorizer:
    """Evaluates blocks over ``L`` lanes, tracking per-lane cost vectors.

    ``host`` is the executing ``NumpyInterp``: uniform free symbols
    resolve through its environment, and per-host caches (padded rows,
    columnarized structs) live on it so they are shared across loops.

    A nested multiloop is evaluated by a *child* vectorizer over the
    flattened (outer lane, trip) space: ``parent`` is the enclosing
    vectorizer and ``rep[m]`` the parent lane that child lane ``m``
    belongs to. Free symbols of the nested body resolve through the
    parent chain and are lifted along ``rep`` on first use.
    """

    def __init__(self, host, L: int, delta: ExecStats):
        self.host = host
        self.L = L
        self.delta = delta
        self.parent: Optional["LoopVectorizer"] = None
        self.rep: Optional[np.ndarray] = None
        self.env: Dict[int, Any] = {}
        self.ess = np.zeros(L, dtype=np.float64)
        self.ovh = np.zeros(L, dtype=np.float64)
        self.in_reducer = 0
        self.in_reduce_value = 0
        # single-slot popcount cache: consecutive defs in a block share the
        # same mask object. Pinning the object (_mobj) keeps its id from
        # being recycled by a later, different mask.
        self._mobj: Optional[np.ndarray] = None
        self._mn = L

    # -- mask / cost helpers ---------------------------------------------

    def count(self, mask: Optional[np.ndarray]) -> int:
        if mask is None:
            return self.L
        if mask is not self._mobj:
            self._mobj = mask
            self._mn = int(mask.sum())
        return self._mn

    def lanes(self, mask: Optional[np.ndarray]) -> np.ndarray:
        return np.arange(self.L) if mask is None else np.nonzero(mask)[0]

    def nested(self, rep: np.ndarray) -> "LoopVectorizer":
        """A vectorizer over ``len(rep)`` lanes nested in this one."""
        sub = LoopVectorizer(self.host, len(rep), self.delta)
        sub.parent, sub.rep = self, rep
        sub.in_reducer = self.in_reducer
        sub.in_reduce_value = self.in_reduce_value
        return sub

    def absorb(self, sub: "LoopVectorizer", lanes: np.ndarray,
               seg: Optional[np.ndarray] = None) -> None:
        """Charge a child's per-lane costs to ``lanes`` of this vectorizer;
        ``seg`` maps each child lane to its position in ``lanes`` (default:
        one child lane per entry). Exact in any order: all cycle constants
        are dyadic."""
        for mine, theirs in ((self.ess, sub.ess), (self.ovh, sub.ovh)):
            if seg is not None:
                theirs = np.bincount(seg, weights=theirs,
                                     minlength=len(lanes))
            mine[lanes] += theirs

    def add_ess(self, c, mask: Optional[np.ndarray]) -> None:
        if mask is None:
            self.ess += c
        else:
            np.add(self.ess, c, out=self.ess, where=mask)

    def add_ovh(self, c, mask: Optional[np.ndarray]) -> None:
        if mask is None:
            self.ovh += c
        else:
            np.add(self.ovh, c, out=self.ovh, where=mask)

    def count_read(self, tpe: T.Type, mask: Optional[np.ndarray],
                   n: int) -> None:
        c = READ_CYCLES * 0.5 if self.in_reducer else READ_CYCLES
        self.add_ess(c, mask)
        self.delta.elements_read += n
        self.delta.bytes_read += tpe.byte_size * n

    def count_alloc(self, tpe: T.Type, mask: Optional[np.ndarray],
                    n=1) -> None:
        if self.in_reduce_value:
            return
        if np.isscalar(n):
            self.add_ess(WRITE_CYCLES * n, mask)
            total = n * self.count(mask)
        else:
            self.add_ess(WRITE_CYCLES * n.astype(np.float64), mask)
            total = int(n.sum() if mask is None else n[mask].sum())
        if self.in_reducer:
            return
        self.delta.elements_emitted += total
        self.delta.bytes_alloc += tpe.byte_size * total

    # -- expression / block evaluation -----------------------------------

    def lookup(self, e: Exp) -> Any:
        if isinstance(e, Const):
            return e.value
        if isinstance(e, Sym):
            if e.id in self.env:
                return self.env[e.id]
            if self.parent is not None:
                v = self.env[e.id] = vec_lift(self.parent.lookup(e),
                                              self.rep, self.host)
                return v
            if e.id in self.host.env:
                return self.host.env[e.id]  # uniform host value
            raise VecError(f"unbound symbol {e!r} in vectorized block")
        raise VecError(f"cannot evaluate {e!r}")

    def eval_block(self, block: Block, args: Sequence[Any],
                   mask: Optional[np.ndarray]) -> Any:
        if len(args) != len(block.params):
            raise VecError("block arity mismatch")
        if len(block.results) != 1:
            raise VecError("multi-result block")
        for p, a in zip(block.params, args):
            self.env[p.id] = a
        for d in block.stmts:
            self.eval_def(d, mask)
        return self.lookup(block.results[0])

    # -- generator components shared by sibling generators ----------------
    #
    # ``memo`` is the lane-wise analogue of the interpreter's per-iteration
    # memo (``None`` when ``loop_share_plan`` found nothing to share): one
    # namespace for alpha-equal cond/key values, plus the keys already
    # probed.

    def gen_mask(self, g: Generator, ckey, idx: np.ndarray,
                 memo: Optional[Dict[Any, Any]]) -> Optional[np.ndarray]:
        """The lanes of index vector ``idx`` generator ``g`` keeps
        (``None``: all of them). An alpha-equal sibling cond is evaluated,
        and paid, once."""
        if g.cond is None:
            return None
        self.add_ovh(BRANCH_CYCLES, None)
        if memo is not None and ckey in memo:
            cv = memo[ckey]
        else:
            cv = self.eval_block(g.cond, (idx,), None)
            if memo is not None:
                memo[ckey] = cv
        if not is_vec(cv):
            return None if cv else np.zeros(self.L, dtype=np.bool_)
        if not isinstance(cv, np.ndarray):
            raise VecError("non-scalar condition value")
        return cv.astype(np.bool_, copy=False)

    def gen_key(self, g: Generator, kkey, idx: np.ndarray,
                mask: Optional[np.ndarray],
                memo: Optional[Dict[Any, Any]]) -> Any:
        """The keys of bucket generator ``g``, charging its probe: the
        first generator to probe a key pays hash + probe, an alpha-equal
        sibling only an indexed write into the slot already found."""
        probe = ("probe", kkey)
        if memo is not None and probe in memo:
            self.add_ess(WRITE_CYCLES, mask)
            return memo[probe]
        self.add_ess(BUCKET_CYCLES, mask)
        if memo is not None and kkey in memo:
            key = memo[kkey]  # value shared with an alpha-equal cond
        else:
            key = self.eval_block(g.key, (idx,), mask)
        if memo is not None:
            memo[kkey] = memo[probe] = key
        return key

    # -- statement dispatch ----------------------------------------------

    def eval_def(self, d: Def, mask: Optional[np.ndarray]) -> None:
        op = d.op
        n = self.count(mask)
        names = self.host.opname_cache
        nm = names.get(id(op))
        if nm is None:
            nm = names[id(op)] = op.op_name()
        if n:  # a zero-lane loop must not leave a zero-count entry
            self.delta.op_counts[nm] += n
        if isinstance(op, Prim):
            spec = PRIMS[op.name]
            args = [self.lookup(a) for a in op.args]
            self.add_ess(spec.cost, mask)
            if not any(is_vec(a) for a in args):
                val = spec.eval_fn(*args)
            else:
                val = VEC_PRIMS[op.name](*args)
            self.env[d.sym.id] = val
        elif isinstance(op, ArrayApply):
            rt = op.result_types()[0]
            arr = self.lookup(op.arr)
            idx = self.lookup(op.idx)
            self.count_read(rt, mask, n)
            self.env[d.sym.id] = self._apply(arr, idx, rt)
        elif isinstance(op, ArrayLength):
            self.add_ess(1.0, mask)
            self.env[d.sym.id] = self._length(self.lookup(op.arr))
        elif isinstance(op, MultiLoop):
            self._nested_loop(d, op, mask)
        elif isinstance(op, IfThenElse):
            self.add_ovh(BRANCH_CYCLES, mask)
            self.env[d.sym.id] = self._if_then_else(op, mask)
        elif isinstance(op, StructNew):
            self.add_ovh(len(op.values) * 0.5, mask)
            vals = tuple(self.lookup(v) for v in op.values)
            if not any(is_vec(v) for v in vals):
                self.env[d.sym.id] = vals
            else:
                self.env[d.sym.id] = SVec(vals)
        elif isinstance(op, StructField):
            st = op.struct.tpe
            fidx = st.field_names().index(op.fname)
            self.add_ovh(0.5, mask)
            v = self.lookup(op.struct)
            if isinstance(v, SVec):
                self.env[d.sym.id] = v.fields[fidx]
            elif isinstance(v, tuple):
                self.env[d.sym.id] = v[fidx]
            else:
                raise VecError("field access on non-struct value")
        elif isinstance(op, BucketLookup):
            self.env[d.sym.id] = self._bucket_lookup(op, mask, n)
        elif isinstance(op, BucketKeys):
            coll = self.lookup(op.coll)
            if isinstance(coll, Buckets):
                self.env[d.sym.id] = list(coll.keys)
            elif isinstance(coll, Rows):
                self.env[d.sym.id] = Rows([b.keys for b in coll.base],
                                          coll.idx, self.host)
            else:
                raise VecError("BucketKeys on non-bucket value")
        elif isinstance(op, CollPrim):
            self.env[d.sym.id] = self._coll_prim(op, mask, n)
        elif isinstance(op, ArrayLit):
            elems = [self.lookup(e) for e in op.elems]
            self.count_alloc(op.elem_type, mask, len(elems))
            if not any(is_vec(e) for e in elems):
                self.env[d.sym.id] = list(elems)
            elif elems:
                cols = [as_lane_vec(e, self.L) for e in elems]
                if not all(isinstance(c, np.ndarray) for c in cols):
                    raise VecError("array literal of non-scalar elements")
                self.env[d.sym.id] = ArrVec(np.stack(cols, axis=1), None)
            else:
                self.env[d.sym.id] = []
        else:
            raise VecError(f"unvectorizable op {op.op_name()}")

    # -- array access -----------------------------------------------------

    def _apply(self, arr: Any, idx: Any, rt: T.Type) -> Any:
        if isinstance(arr, SVec):
            # per-lane array of structs, stored columnar
            return SVec(tuple(self._apply(f, idx, ft)
                              for f, (_, ft) in zip(
                                  arr.fields,
                                  rt.fields if isinstance(rt, T.Struct)
                                  else ((None, rt),) * len(arr.fields))))
        if isinstance(arr, Rows):
            lens, pad = self.host.row_cache(arr.base)
            if pad is None:
                return self._apply_rows_of_rows(arr, idx, lens, rt)
            if not pad.shape[1]:
                raise VecError("indexing into empty rows")
            rows = pad[arr.idx, np.clip(idx, 0, pad.shape[1] - 1)]
            return rows if rows.ndim == 1 else ArrVec(rows, None)
        if isinstance(arr, ArrVec):
            w = arr.data.shape[1]
            if w == 0:
                raise VecError("indexing into empty rows")
            j = np.clip(idx, 0, w - 1)
            if isinstance(j, np.ndarray):
                rows = arr.data[np.arange(self.L), j]
            else:
                rows = arr.data[:, int(j)]
            if rows.ndim == 1:
                return rows
            return ArrVec(rows, None)
        if is_vec(arr):
            raise VecError("positional read of a scalar lane vector")
        # uniform host collection
        if not is_vec(idx):
            try:
                return arr[idx]
            except (IndexError, KeyError, TypeError) as e:
                raise VecError(f"host read failed: {e}") from None
        base = arr.values if isinstance(arr, Buckets) else arr
        return self._gather(base, idx, rt)

    def _apply_rows_of_rows(self, arr: Rows, idx: Any, lens: np.ndarray,
                            rt: T.Type) -> Rows:
        """Positional read of gathered rows whose elements are themselves
        collections (the groups of a ``BucketCollect``): one more gather,
        over the rows laid end to end."""
        if not isinstance(rt, (T.Coll, T.KeyedColl)):
            raise VecError("gathered rows have non-scalar elements")
        flat = self.host.flat_cache(arr.base)
        if not flat:
            raise VecError("indexing into empty rows")
        l = lens[arr.idx]
        pos = (np.cumsum(lens) - lens)[arr.idx] \
            + np.clip(idx, 0, np.maximum(l - 1, 0))
        return Rows(flat, np.minimum(pos, len(flat) - 1), self.host)

    def _gather(self, base: Sequence[Any], idx: np.ndarray,
                rt: T.Type) -> Any:
        if len(base) == 0:
            raise VecError("gather from an empty collection")
        idx = np.clip(idx, 0, len(base) - 1)
        if isinstance(rt, T.Struct):
            cols = self.host.col_cache(base, rt)
            return SVec(tuple(
                c[idx] if isinstance(c, np.ndarray)
                else Rows(c, idx, self.host)
                for c in cols))
        if isinstance(rt, (T.Coll, T.KeyedColl)):
            return Rows(base, idx, self.host)
        return self.host.np_cache(base)[idx]

    def _length(self, arr: Any) -> Any:
        if isinstance(arr, Rows):
            lens, _ = self.host.row_cache(arr.base)
            return lens[arr.idx]
        if isinstance(arr, ArrVec):
            return arr.length_vec()
        if isinstance(arr, SVec):
            return self._length(arr.fields[0])
        if is_vec(arr):
            raise VecError("length of a scalar lane vector")
        try:
            return len(arr)
        except TypeError as e:
            raise VecError(f"length failed: {e}") from None

    # -- control flow ------------------------------------------------------

    def _if_then_else(self, op: IfThenElse, mask: Optional[np.ndarray]):
        cond = self.lookup(op.cond)
        if not is_vec(cond):
            branch = op.then_block if cond else op.else_block
            return self.eval_block(branch, (), mask)
        cond = cond.astype(np.bool_, copy=False)
        mt = cond if mask is None else (mask & cond)
        me = ~cond if mask is None else (mask & ~cond)
        has_t = bool(mt.any())
        has_e = bool(me.any())
        tv = self.eval_block(op.then_block, (), mt) if has_t else None
        ev = self.eval_block(op.else_block, (), me) if has_e else None
        if not has_e:
            return tv
        if not has_t:
            return ev
        return vec_where(cond, tv, ev, self.L)

    # -- keyed / collection ops -------------------------------------------

    def _bucket_lookup(self, op: BucketLookup, mask: Optional[np.ndarray],
                       n: int) -> Any:
        rt = op.result_types()[0]
        coll = self.lookup(op.coll)
        key = self.lookup(op.key)
        self.add_ess(BUCKET_CYCLES, mask)
        self.count_read(rt, mask, n)
        if isinstance(coll, Buckets):
            if not is_vec(key):
                return coll.lookup(key)
            bkts, which = [coll], np.zeros(self.L, dtype=np.int64)
        elif isinstance(coll, Rows):
            bkts, which = coll.base, coll.idx  # per-lane buckets
        else:
            raise VecError("BucketLookup on non-bucket value")
        key = as_lane_vec(key, self.L)
        if not isinstance(key, np.ndarray):
            raise VecError("bucket lookup with non-scalar keys")
        # every bucket's values laid end to end, then every bucket's default
        sizes = [len(b) for b in bkts]
        off = (np.cumsum(sizes) - sizes).tolist()
        ext = [v for b in bkts for v in b.values] + [b.default for b in bkts]
        miss = len(ext) - len(bkts)
        if not bkts:  # a loop of no lanes built no buckets: gather nothing
            ext = [T.zero_value(rt)]

        def locate(w: int, k: Any) -> int:
            p = bkts[w].position(k)
            return miss + w if p is None else off[w] + p
        lanes = self.lanes(mask)
        pos = np.zeros(self.L, dtype=np.int64)
        pos[lanes] = [locate(w, k) for w, k in zip(which[lanes].tolist(),
                                                   key[lanes].tolist())]
        return self._gather(ext, pos, rt)

    def _coll_prim(self, op: CollPrim, mask: Optional[np.ndarray],
                   n: int) -> Any:
        spec = COLL_PRIMS[op.name]
        rt = op.result_types()[0]
        args = [self.lookup(a) for a in op.args]
        if not any(is_vec(a) for a in args):
            cycles, reads = spec.cost_fn(*args)
            self.add_ess(cycles, mask)
            self.delta.elements_read += reads * n
            self.delta.bytes_read += reads * 8 * n
            return spec.eval_fn(*args)
        lanes = self.lanes(mask)
        out = np.zeros(self.L, dtype=_np_dtype(rt))
        if spec.batch_fn is not None and \
                self._coll_prim_batched(spec, args, lanes, out):
            return out
        ev, cf = spec.eval_fn, spec.cost_fn
        er = 0
        for l in lanes.tolist():
            vals = [self._row_at(a, l) for a in args]
            c, r = cf(*vals)
            self.ess[l] += c
            er += r
            out[l] = ev(*vals)
        self.delta.elements_read += er
        self.delta.bytes_read += er * 8
        return out

    def _coll_prim_batched(self, spec, args: Sequence[Any],
                           lanes: np.ndarray, out: np.ndarray) -> bool:
        """Evaluate a collection primitive over integer row gathers with
        its batched evaluator, ``PRIM_ELEMS`` row elements at a time.
        Returns False, with nothing charged, when an operand is not such a
        gather or the evaluator declines (unsorted rows): the per-lane loop
        is the only exact evaluation there."""
        rows = []
        for a in args:
            if not isinstance(a, Rows):
                return False
            flat, off, lens = self.host.csr_cache(a.base)
            if flat.ndim != 1 or flat.dtype.kind != "i":
                return False
            idx = a.idx[lanes]
            rows.append((flat, off[idx], lens[idx]))
        vals = np.zeros(len(lanes), dtype=out.dtype)
        cycles = np.zeros(len(lanes))
        reads = 0
        for start, stop in _strips(np.cumsum(sum(l for _, _, l in rows)),
                                   PRIM_ELEMS):
            operands = []
            for flat, off, l in rows:
                # element e of the strip's run r sits at off[r] + (e - its
                # run's start): one computed source offset per element
                l = l[start:stop]
                ends = np.cumsum(l)
                operands += [flat[np.repeat(off[start:stop] - (ends - l), l)
                             + np.arange(ends[-1])], l]
            res = spec.batch_fn(*operands)
            if res is None:
                return False
            vals[start:stop], cycles[start:stop], n_read = res
            reads += n_read
        out[lanes] = vals
        self.ess[lanes] += cycles
        self.delta.elements_read += reads
        self.delta.bytes_read += reads * 8
        return True

    def _row_at(self, a: Any, l: int) -> Any:
        """One lane's concrete value, as a host object."""
        if isinstance(a, Rows):
            return a.base[a.idx[l]]
        if isinstance(a, ArrVec):
            return a[l]
        if isinstance(a, SVec):
            return tuple(self._row_at(f, l) for f in a.fields)
        if isinstance(a, np.ndarray):
            return a[l].item() if a.dtype != object else a[l]
        return a  # uniform

    # -- nested multiloops -------------------------------------------------
    #
    # The inner iteration space is one more data-parallel axis: a child
    # vectorizer gets one lane per active (outer lane, trip) pair, in
    # (lane, trip) order, and evaluates the body once over that space.
    # Outer lanes are the *segments* of the flat space; it is strip-mined
    # over whole segments (STRIP_LANES) so temporaries stay bounded.

    def _nested_loop(self, d: Def, loop: MultiLoop,
                     mask: Optional[np.ndarray]) -> None:
        gens = loop.gens
        n = self.count(mask)
        lanes = self.lanes(mask)
        sizes = self.lookup(loop.size)
        if not is_vec(sizes):
            sz = np.full(n, int(sizes), dtype=np.int64)
        elif isinstance(sizes, np.ndarray):
            sz = sizes[lanes].astype(np.int64, copy=False)
        else:
            raise VecError("non-scalar loop size")
        self.delta.loops_executed += n
        self.delta.loop_iterations += int(sz.sum())
        sz = np.maximum(sz, 0)
        # no strip at all when no lane has a trip: every generator then
        # finishes from no parts, and the body is never entered
        parts: List[List[Tuple[Any, ...]]] = [[] for _ in gens]
        for start, stop in _strips(np.cumsum(sz), STRIP_LANES):
            self.eval_strip(gens, lanes[start:stop], sz[start:stop], parts)
        for s, g, ps in zip(d.syms, gens, parts):
            if g.key is not None:
                finish = self._finish_bucket
            elif g.reducer is not None:
                finish = self._finish_reduce
            else:
                finish = self._finish_collect
            self.env[s.id] = finish(g, ps, lanes)

    def eval_strip(self, gens: Sequence[Generator], lanes: np.ndarray,
                   sz: np.ndarray, parts: List[List[Tuple[Any, ...]]]
                   ) -> "LoopVectorizer":
        """Evaluate every generator once over the flat space of the outer
        ``lanes`` (``sz[s]`` trips each), append each one's piece of the
        result to ``parts`` and charge the child's per-lane costs to
        ``lanes``. Returns the child, whose ``ess``/``ovh`` are the costs
        of every (lane, trip) pair."""
        seg, trip = _runs(sz)   # flat lane -> (segment, trip)
        sub = self.nested(lanes[seg])
        share_keys, need_memo = loop_share_plan(gens)
        memo: Optional[Dict[Any, Any]] = {} if need_memo else None
        # siblings with alpha-equal conds and keys group their elements alike
        groupings: Dict[Any, Tuple[Any, ...]] = {}
        every = np.arange(sub.L)
        for g, (ckey, kkey), ps in zip(gens, share_keys, parts):
            m = sub.gen_mask(g, ckey, trip, memo)
            if m is not None and not m.any():
                continue
            key = None if g.key is None else as_lane_vec(
                sub.gen_key(g, kkey, trip, m, memo), sub.L)
            if g.reducer is not None:
                sub.in_reduce_value += 1
                try:
                    v = sub.eval_block(g.value, (trip,), m)
                finally:
                    sub.in_reduce_value -= 1
            else:
                v = sub.eval_block(g.value, (trip,), m)
                if g.flatten:
                    width = np.broadcast_to(sub._length(v), sub.L)
                    sub.count_alloc(g.value_type.elem, m, width)
                else:
                    sub.count_alloc(g.value_type, m, 1)
            # the generator's elements: the values of the kept flat lanes
            # (``flat``), still in (segment, trip) order, and their segments
            v, kseg, flat = as_lane_vec(v, sub.L), seg, every
            if m is not None:
                flat = np.nonzero(m)[0]
                v, key = vec_take(v, flat), vec_take(key, flat)
                kseg = seg[flat]
            if key is not None:
                grp = groupings.get((ckey, kkey))
                if grp is None:
                    grp = groupings[ckey, kkey] = _grouping(key, kseg, flat)
                *runs, gseg, gkeys = grp
                ps.append((lanes[gseg], gkeys, sub._group(g, runs, v)))
                continue
            if g.flatten:
                # every kept lane contributes a whole row of elements
                row, col = _runs(width[flat])
                v, kseg = _row_elems(v, row, col), kseg[row]
            if g.reducer is not None:
                cnt = np.bincount(kseg, minlength=len(lanes))
                ne = np.nonzero(cnt)[0]
                ps.append((sub._fold(g, v, cnt[ne], flat), lanes[ne]))
            elif kseg is seg:
                ps.append((v, lanes[seg], trip))
            else:
                cnt = np.bincount(kseg, minlength=len(lanes))
                ps.append((v, lanes[kseg], _runs(cnt)[1]))
        self.absorb(sub, lanes, seg)
        return sub

    def _group(self, g: Generator, runs: Sequence[np.ndarray],
               vals: Any) -> List[Any]:
        """Every group's host value: its run (``_grouping``'s element
        order, run lengths and lanes) of ``vals`` folded, or listed."""
        order, cnt, flat = runs
        if g.reducer is not None:
            acc = self._fold(g, vec_take(vals, order), cnt, flat)
            return self.host.to_host(acc, np.arange(len(cnt)), g.value_type)
        elems = self.host.to_host(vals, order, g.value_type)
        ends = np.cumsum(cnt).tolist()
        return [elems[lo:hi] for lo, hi in zip([0] + ends, ends)]

    def _fold(self, g: Generator, vals: Any, cnt: np.ndarray,
              flat: np.ndarray) -> Any:
        """Reduce each run of ``vals`` (``cnt[r] >= 1`` consecutive
        elements: one segment's, or one group's) strictly left to right,
        all runs in lock step: step ``k`` combines every accumulator with
        its run's ``k``-th element — the interpreter's association order,
        bit-identical to it even for float ``add``. An elementwise reducer
        does it in whole-row NumPy calls (``fold_elementwise``), any other
        by evaluating it. As in the interpreter, each combine is charged to
        the lane of the element it folds in: element ``j`` is lane
        ``flat[j]``."""
        first = np.cumsum(cnt) - cnt
        folded = self.fold_elementwise(g.reducer, vals, cnt)
        if folded is not None:
            acc, ess, ovh = folded
            # every element but its run's first pays one combine: all pay,
            # the firsts pay back (exact: the cycle constants are dyadic)
            every = slice(None) if len(flat) == self.L else flat
            for mine, c in ((self.ess, ess), (self.ovh, ovh)):
                mine[every] += c
                mine[flat[first]] -= c
            return acc
        fold = self.nested(flat[first])
        fold.in_reducer += 1
        acc = vec_take(vals, first)
        for k in range(1, int(cnt.max())):
            live = cnt > k
            pos = np.where(live, first + k, first)
            nxt = vec_take(vals, pos)
            if live.all():
                acc = fold.eval_block(g.reducer, (acc, nxt), None)
            else:
                acc = vec_where(
                    live, fold.eval_block(g.reducer, (acc, nxt), live),
                    acc, fold.L)
            # a run with no k-th element was charged nothing this step
            self.absorb(fold, flat[pos])
            fold.ess[:] = fold.ovh[:] = 0.0
        return acc

    def fold_elementwise(self, reducer: Block, vals: Any, cnt: np.ndarray
                         ) -> Optional[Tuple[Any, float, float]]:
        """``_fold`` as whole-row NumPy calls, for an elementwise reducer
        (``recognize_elementwise``) over one dense numeric block, with the
        prim's ``FOLD_KERNELS``. With at least as many runs as steps, runs
        go in lock step, longest first, so step ``k``'s live runs are a
        prefix and the step is one ``step`` call; with fewer, each run
        finishes alone in ``run`` calls (sequential by definition) over
        bounded chunks that carry its running row. A fold is thus
        min(runs, steps) calls plus one per further chunk. (Never
        ``ufunc.reduce``/``reduceat``: NumPy does not promise their order.)
        Every combine costs the same — the shape has no branch, the rows
        one width — so one probe evaluation prices them all: its tallies
        times the combines go to ``delta``, its per-combine essential and
        overhead cycles to the caller. ``None``, with nothing charged, when
        the reducer or rows do not qualify."""
        name, depth = recognize_elementwise(reducer) or (None, -1)
        try:
            v = _materialize(vals) if depth > 0 else vals
        except VecError:
            return None  # rows of structs, of buckets
        if depth > 0 and isinstance(v, ArrVec) and v.data.ndim == depth + 1 \
                and (v.lengths is None or v.lengths.min() == v.lengths.max()):
            data = v.data[:, : int(v.length_array()[0])]
        elif depth == 0 and isinstance(v, np.ndarray):
            data = v
        else:
            return None
        if data.dtype.kind not in "biuf":
            return None
        data = reducer_operands(name, data)
        step, run = FOLD_KERNELS[name]
        first = np.cumsum(cnt) - cnt
        steps = int(cnt.max()) - 1
        if len(cnt) < steps:
            out = data[first]
            chunk = max(1, STRIP_LANES // max(1, out[0].size))
            for r, (lo, hi) in enumerate(zip(first.tolist(),
                                             (first + cnt).tolist())):
                for s in range(lo + 1, hi, chunk):
                    top = min(s + chunk, hi)
                    out[r] = run(data[lo: top] if s == lo + 1 else
                                 np.concatenate((out[r: r + 1], data[s: top])))
        else:
            order = np.argsort(-cnt, kind="stable")
            run_cnt, run_first = cnt[order], first[order]
            acc = data[run_first]
            live = np.searchsorted(-run_cnt, -np.arange(1, steps + 1))
            for k, m in enumerate(live.tolist(), 1):
                head = acc[:m]
                step(head, data[run_first[:m] + k], out=head)
            out = np.empty_like(acc)
            out[order] = acc
        out = ArrVec(out, None) if depth else out
        combines = int(cnt.sum()) - len(cnt)
        if not combines:
            return out, 0.0, 0.0
        probe = LoopVectorizer(self.host, 1, ExecStats())
        probe.in_reducer = self.in_reducer + 1
        probe.in_reduce_value = self.in_reduce_value
        pair = ArrVec(data[:1], None) if depth else data[:1]
        probe.eval_block(reducer, (pair, pair), None)
        add_stats(self.delta, probe.delta, combines)
        return out, float(probe.ess[0]), float(probe.ovh[0])

    def _finish_bucket(self, g: Generator, parts: List[Tuple[Any, ...]],
                       lanes: np.ndarray) -> Rows:
        """One host ``Buckets`` per outer lane behind a row gather; a lane
        that kept no element holds an empty one."""
        if g.kind is GenKind.BUCKET_COLLECT:
            defaults: List[Any] = [[] for _ in lanes]
        elif g.init is not None:
            defaults = self.host.to_host(self.lookup(g.init), lanes,
                                         g.value_type)
        else:
            defaults = [T.zero_value(g.value_type) for _ in lanes]
        base = [Buckets(default=dv) for dv in defaults]
        slot = np.zeros(self.L, dtype=np.int64)
        slot[lanes] = np.arange(len(lanes))
        for ids, keys, vals in parts:
            for s, k, v in zip(slot[ids].tolist(), keys, vals):
                base[s].get_or_create(k, v)
        return Rows(base, slot, self.host)

    def _finish_reduce(self, g: Generator, parts: List[Tuple[Any, ...]],
                       lanes: np.ndarray) -> Any:
        # lanes that saw no element fall back to init/identity
        ident = self.lookup(g.init) if g.init is not None \
            else g.identity_value()
        if not parts:
            return ident
        sizes = [len(ids) for _, ids in parts]
        res = vec_concat([acc for acc, _ in parts], sizes)
        if sum(sizes) == self.L:
            return res
        slot = np.full(self.L, -1)
        slot[np.concatenate([ids for _, ids in parts])] = \
            np.arange(sum(sizes))
        res = vec_take(res, np.maximum(slot, 0))
        if (slot[lanes] >= 0).all():
            return res
        return vec_where(slot >= 0, res, ident, self.L)

    def _finish_collect(self, g: Generator, parts: List[Tuple[Any, ...]],
                        lanes: np.ndarray) -> Any:
        if not parts:
            return self._no_elements(g.result_type().elem)
        vals = vec_concat([v for v, _, _ in parts],
                          [len(ids) for _, ids, _ in parts])
        ids = np.concatenate([ids for _, ids, _ in parts])
        pos = np.concatenate([pos for _, _, pos in parts])
        lens = np.bincount(ids, minlength=self.L)
        w = int(lens.max())
        if (lens[lanes] == w).all():
            lens = None  # lanes outside the mask hold garbage anyway
        return self._scatter(vals, ids, pos, lens, w)

    def _no_elements(self, elem: T.Type) -> Any:
        """Every lane's array empty; an array of structs stays columnar."""
        if isinstance(elem, T.Struct):
            return SVec(tuple(self._no_elements(ft) for _, ft in elem.fields))
        return ArrVec(np.zeros((self.L, 0), dtype=_np_dtype(elem)),
                      np.zeros(self.L, dtype=np.int64))

    def _scatter(self, vals: Any, ids: np.ndarray, pos: np.ndarray,
                 lens: Optional[np.ndarray], w: int) -> Any:
        """Elements ``vals`` placed at ``(lane ids, position pos)`` of a
        fresh per-lane array of width ``w``; an array of structs stays
        columnar."""
        if isinstance(vals, SVec):
            return SVec(tuple(self._scatter(f, ids, pos, lens, w)
                              for f in vals.fields))
        vals = _materialize(as_lane_vec(vals, len(ids)))
        if isinstance(vals, ArrVec):
            data, lv = vals.data, vals.lengths
            if lv is not None:
                if int(lv.min()) != int(lv.max()):
                    raise VecError("collect of ragged rows")
                data = data[:, : int(lv[0])]
            vals = data
        if len(ids) == self.L * w:   # every lane full: already lane-major
            return ArrVec(vals.reshape((self.L, w) + vals.shape[1:]), lens)
        out = np.zeros((self.L, w) + vals.shape[1:], dtype=vals.dtype)
        out[ids, pos] = vals
        return ArrVec(out, lens)
