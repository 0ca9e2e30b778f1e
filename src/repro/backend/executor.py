"""Vectorized NumPy execution of multiloops, with recorded fallback.

``NumpyInterp`` subclasses the reference interpreter and replaces only
top-level multiloop execution. Each loop is first checked by the static
planner, then run by the one engine that also runs nested loops: a loop
of ``size`` iterations is the one segment of a one-lane root
``LoopVectorizer``, evaluated as a single strip whose child lanes are the
iterations (``LoopVectorizer.eval_strip``). Every ``Reduce`` and
``BucketReduce`` folds left to right in the interpreter's order
(``LoopVectorizer._fold``), so results are ``repr``-identical to it. Lane 0
of each generator's result becomes the host value; a ``Collect`` goes to
the host straight from its strip parts, and the child's per-lane costs
are the per-iteration cost stream.

Any construct the vectorizer cannot handle (statically or at runtime)
raises ``VecError``; the loop then re-executes on the inherited
per-element path and the (loop, reason) pair is recorded in
``fallbacks``. Because all stats mutations are staged in a loop-local
``ExecStats`` / per-lane cost vectors until the loop completes, a
fallback is invisible in ``ExecStats`` — results, cycle tallies, and
per-iteration cost vectors are identical to a pure reference run.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..core import types as T
from ..core.interp import ExecStats, Interp, add_stats
from ..core.ir import Def, Program
from ..core.multiloop import Generator, MultiLoop
from ..core.values import Buckets
from ..obs.provenance import FALLBACK, VECTORIZED, DecisionKind, emit
from .vectorize import (ArrVec, LoopVectorizer, Rows, SVec, VecError, is_vec,
                        plan_loop)


@dataclass
class FallbackRecord:
    """One loop that executed on the reference interpreter instead."""

    loop: str
    op: str
    reason: str


_UNPLANNED = object()


class NumpyInterp(Interp):
    """Reference interpreter with vectorized top-level loop execution."""

    backend = "numpy"

    def __init__(self, stats: Optional[ExecStats] = None,
                 per_iter: bool = False, profile_host: bool = False):
        super().__init__(stats, per_iter)
        self.fallbacks: List[FallbackRecord] = []
        #: host wall-clock seconds per top-level loop; populated only when
        #: ``profile_host`` — cost-model calibration data, never part of
        #: functional results or simulated pricing
        self.profile_host = profile_host
        self.host_loop_s: Dict[str, float] = {}
        self._loop_depth = 0           # >0 while inside a fallback loop
        self._plans: Dict[int, Any] = {}
        # per-host-collection caches, keyed by object identity (collections
        # are immutable during a run); _keep pins the keyed objects so ids
        # cannot be recycled
        self._np: Dict[int, np.ndarray] = {}
        self._rows: Dict[int, Tuple[np.ndarray, ...]] = {}
        self._cols: Dict[int, Tuple[Any, ...]] = {}
        self._flat: Dict[int, List[Any]] = {}
        self._keep: List[Any] = []
        # op -> op_name() memo; ops are pinned by the program for the
        # duration of the run, so id-keying is safe
        self.opname_cache: Dict[int, str] = {}

    # -- host-collection caches -------------------------------------------

    def np_cache(self, base: Sequence[Any]) -> np.ndarray:
        key = id(base)
        arr = self._np.get(key)
        if arr is None:
            try:
                arr = np.asarray(base)
            except (ValueError, TypeError) as e:
                raise VecError(f"unconvertible collection: {e}") from None
            if arr.ndim != 1 or arr.dtype == object:
                raise VecError("gather from non-scalar collection")
            self._np[key] = arr
            self._keep.append(base)
        return arr

    def row_cache(self, base) -> Tuple[np.ndarray, Optional[np.ndarray]]:
        """(per-row lengths, padded matrix or None if rows aren't scalar)."""
        if isinstance(base, ArrVec):
            # a lifted view of an outer lane's array: already columnar, and
            # a loop-local temporary that must not be pinned in the cache
            return base.length_array(), base.data
        return self._row_entry(base)[:2]

    def csr_cache(self, base) -> Tuple[Any, ...]:
        """(the rows laid end to end, each row's offset into them, per-row
        lengths, a memo dict for what is derived from them). A lifted view's
        rows start every ``width`` elements of its padded data, and a
        loop-local temporary has no memo; rows that aren't scalar lay out
        as an object or 2-D array."""
        if isinstance(base, ArrVec):
            d = base.data
            return (d.ravel() if d.ndim == 2 else d,
                    np.arange(len(d)) * d.shape[1], base.length_array(), None)
        lens, _, flat, off, memo = self._row_entry(base)
        return flat, off, lens, memo

    def _row_entry(self, base) -> Tuple[Any, ...]:
        """(lens, pad, flat, off, memo) of host rows, once per base and run."""
        key = id(base)
        ent = self._rows.get(key)
        if ent is None:
            seq = base.values if isinstance(base, Buckets) else base
            n = len(seq)
            lens = np.fromiter((len(r) for r in seq), dtype=np.int64,
                               count=n)
            pad: Optional[np.ndarray] = None
            w = int(lens.max()) if n else 0
            try:
                flat = np.asarray([x for r in seq for x in r]) if w else \
                    np.zeros(0)
            except ValueError:  # rows of ragged rows
                flat = np.zeros((0, 0))
            # struct rows flatten to a 2-D array: not scalar either
            if flat.dtype != object and flat.ndim == 1:
                if (lens == w).all():  # nothing to pad: a view of flat
                    pad = flat.reshape(n, w)
                else:
                    pad = np.zeros((n, w), dtype=flat.dtype)
                    pad[lens[:, None] > np.arange(w)] = flat
            ent = (lens, pad, flat, np.cumsum(lens) - lens, {})
            self._rows[key] = ent
            self._keep.append(base)
        return ent

    def flat_cache(self, base: Sequence[Any]) -> List[Any]:
        """The rows of ``base`` laid end to end, built once per base so
        every read of it gathers from (and caches on) the same list."""
        key = id(base)
        flat = self._flat.get(key)
        if flat is None:
            flat = self._flat[key] = [x for row in base for x in row]
            self._keep.append(base)
        return flat

    def col_cache(self, base: Sequence[Any], st: T.Struct) -> Tuple[Any, ...]:
        key = id(base)
        ent = self._cols.get(key)
        if ent is None:
            cols: List[Any] = []
            for fi, (_, ft) in enumerate(st.fields):
                col = [row[fi] for row in base]
                if isinstance(ft, (T.Coll, T.KeyedColl)):
                    cols.append(col)
                elif isinstance(ft, T.Struct):
                    raise VecError("nested struct column")
                else:
                    arr = np.asarray(col)
                    if arr.dtype == object:
                        raise VecError("heterogeneous struct column")
                    cols.append(arr)
            ent = tuple(cols)
            self._cols[key] = ent
            self._keep.append(base)
        return ent

    # -- host conversion ---------------------------------------------------

    def to_host(self, v: Any, lanes: np.ndarray, tpe: T.Type) -> List[Any]:
        """Lane vector → list of plain Python values for ``lanes``.

        Type-directed: an ``SVec`` is a per-lane struct under a Struct
        type but a columnar array-of-structs under a Coll type. A ``Rows``
        hands out the host objects it gathers, whatever their type."""
        k = len(lanes)
        if not is_vec(v):
            return [v] * k
        if isinstance(v, np.ndarray):
            return v[lanes].tolist()
        if isinstance(v, Rows):
            return [v.base[i] for i in v.idx[lanes].tolist()]
        if isinstance(tpe, T.Struct):
            if not isinstance(v, SVec) or len(v.fields) != len(tpe.fields):
                raise VecError("struct value shape mismatch")
            cols = [self.to_host(f, lanes, ft)
                    for f, (_, ft) in zip(v.fields, tpe.fields)]
            return [tuple(t) for t in zip(*cols)] if cols else [()] * k
        if isinstance(tpe, (T.Coll, T.KeyedColl)):
            if isinstance(v, ArrVec):
                data = v.data[lanes]
                if v.lengths is None:
                    return [row.tolist() for row in data]
                lens = v.lengths[lanes]
                return [data[i, : lens[i]].tolist() for i in range(k)]
            et = T.element_type(tpe)
            if isinstance(v, SVec) and isinstance(et, T.Struct):
                cols = [self.to_host(f, lanes, T.Coll(ft))
                        for f, (_, ft) in zip(v.fields, et.fields)]
                return [list(zip(*per_lane)) for per_lane in zip(*cols)]
        raise VecError(
            f"cannot convert {type(v).__name__} to host {tpe!r}")

    # -- loop dispatch -----------------------------------------------------

    def _eval_loop(self, d: Def, loop: MultiLoop) -> None:
        if not self.profile_host or self._loop_depth:
            return self._eval_loop_impl(d, loop)
        t0 = time.perf_counter()
        try:
            return self._eval_loop_impl(d, loop)
        finally:
            name = d.syms[0].name
            self.host_loop_s[name] = (self.host_loop_s.get(name, 0.0)
                                      + time.perf_counter() - t0)

    def _eval_loop_impl(self, d: Def, loop: MultiLoop) -> None:
        if self._loop_depth:  # nested loop during a fallback: stay scalar
            return super()._eval_loop(d, loop)
        reason = self._plans.get(id(loop), _UNPLANNED)
        if reason is _UNPLANNED:
            reason = plan_loop(loop)
            self._plans[id(loop)] = reason
            self._keep.append(loop)
            emit(DecisionKind.BACKEND_PLAN, repr(d.syms[0]),
                 VECTORIZED if reason is None else FALLBACK,
                 str(reason) if reason is not None
                 else "all constructs have a vectorized lowering",
                 op=loop.op_name())
        if reason is None:
            try:
                return self._vec_loop(d, loop)
            except VecError as e:
                reason = str(e) or "unvectorizable"
            except (RecursionError, KeyboardInterrupt):
                raise
            except Exception as e:  # robustness: never lose a run
                reason = f"{type(e).__name__}: {e}"
            emit(DecisionKind.BACKEND_PLAN, repr(d.syms[0]), FALLBACK,
                 f"runtime: {reason}", op=loop.op_name())
        self.fallbacks.append(
            FallbackRecord(d.syms[0].name, loop.op_name(), str(reason)))
        self._loop_depth += 1
        try:
            super()._eval_loop(d, loop)
        finally:
            self._loop_depth -= 1

    # -- vectorized loop execution ----------------------------------------

    def _vec_loop(self, d: Def, loop: MultiLoop) -> None:
        size = int(self.eval_exp(loop.size))
        delta = ExecStats(loops_executed=1, loop_iterations=size)
        # the loop is the one segment of a one-lane root, so it runs as one
        # strip (_strips never splits a segment) whose child lanes are the
        # iterations
        root = LoopVectorizer(self, 1, delta)
        lane = np.zeros(1, dtype=np.int64)
        parts: List[List[Tuple[Any, ...]]] = [[] for _ in loop.gens]
        sub = None  # no iteration, no strip
        if size > 0:
            sub = root.eval_strip(loop.gens, lane, np.array([size]), parts)
        outs = [self._host_result(root, g, ps, lane)
                for g, ps in zip(loop.gens, parts)]
        # success — commit everything atomically
        add_stats(self.stats, delta)
        fr = self._frames[-1]
        fr[0] += float(root.ess[0])
        fr[1] += float(root.ovh[0])
        for s, out in zip(d.syms, outs):
            self.env[s.id] = out
        costs = None if self.per_iter is None else self.per_iter.get(
            d.syms[0].id)
        if costs is not None and sub is not None:
            costs.extend((sub.ess + sub.ovh).tolist())

    def _host_result(self, root: LoopVectorizer, g: Generator,
                     parts: List[Tuple[Any, ...]], lane: np.ndarray) -> Any:
        """Lane 0 of one generator's result, as the host value. A Collect
        is read straight from its strip parts: its rows may be ragged,
        structs or ``Buckets``, which a padded lane array cannot carry."""
        if g.key is not None:
            return root._finish_bucket(g, parts, lane).base[0]
        if g.reducer is not None:
            return self.to_host(root._finish_reduce(g, parts, lane), lane,
                                g.value_type)[0]
        et = g.value_type.elem if g.flatten else g.value_type
        return [x for v, ids, _ in parts
                for x in self.to_host(v, np.arange(len(ids)), et)]


def run_program_numpy(prog: Program, inputs: Dict[str, Any]
                      ) -> Tuple[Tuple[Any, ...], ExecStats,
                                 List[FallbackRecord]]:
    """Evaluate ``prog`` on the NumPy backend; return
    (results, stats, fallbacks)."""
    interp = NumpyInterp()
    results = interp.eval_program(prog, inputs)
    return results, interp.stats, interp.fallbacks
