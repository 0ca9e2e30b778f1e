"""Vectorized NumPy execution of multiloops, with recorded fallback.

``NumpyInterp`` subclasses the reference interpreter and replaces only
top-level multiloop execution: each loop is first checked by the static
planner, then lowered generator-by-generator onto NumPy kernels —

- ``Collect``       → masked value computation, compacted to a list;
- ``Reduce``        → ``ufunc.reduce`` for an associative scalar prim; a
                      zip of one folds whole rows in the interpreter's
                      order (``fold_elementwise``); any other reducer, an
                      order-preserving pairwise tree of sub-vectorizers;
- ``BucketCollect`` → stable sort by first-seen key codes, then split;
- ``BucketReduce``  → the same per code-sorted segment (``reduceat`` for
                      the scalar prim).

Any construct the vectorizer cannot handle (statically or at runtime)
raises ``VecError``; the loop then re-executes on the inherited
per-element path and the (loop, reason) pair is recorded in
``fallbacks``. Because all stats mutations are staged in a
``StatsDelta`` / per-lane cost vectors until the loop completes, a
fallback is invisible in ``ExecStats`` — results, cycle tallies, and
per-iteration cost vectors are identical to a pure reference run.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..core import types as T
from ..core.interp import ExecStats, Interp, LoopObserver, loop_share_plan
from ..core.ir import Def, Program
from ..core.multiloop import GenKind, Generator, MultiLoop
from ..core.ops import PRIMS
from ..core.values import Buckets
from ..obs.provenance import FALLBACK, VECTORIZED, DecisionKind, emit
from .vectorize import (ASSOC_UFUNCS, ArrVec, LoopVectorizer, Rows, StatsDelta,
                        SVec, VecError, as_lane_vec, first_seen_codes, is_vec,
                        plan_loop, recognize_elementwise, reducer_operands,
                        vec_take, vec_where)


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
                 observer: Optional[LoopObserver] = None,
                 profile_host: bool = False):
        super().__init__(stats, observer)
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
        self._rows: Dict[int, Tuple[np.ndarray, Optional[np.ndarray]]] = {}
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
                pad = np.zeros((n, w), dtype=flat.dtype)
                if w:
                    pad[lens[:, None] > np.arange(w)] = flat
            ent = (lens, pad)
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
        type but a columnar array-of-structs under a Coll type."""
        k = len(lanes)
        if not is_vec(v):
            return [v] * k
        if isinstance(v, np.ndarray):
            return v[lanes].tolist()
        if isinstance(tpe, T.Struct):
            if not isinstance(v, SVec) or len(v.fields) != len(tpe.fields):
                raise VecError("struct value shape mismatch")
            cols = [self.to_host(f, lanes, ft)
                    for f, (_, ft) in zip(v.fields, tpe.fields)]
            return [tuple(t) for t in zip(*cols)] if cols else [()] * k
        if isinstance(tpe, (T.Coll, T.KeyedColl)):
            if isinstance(v, Rows):
                return [v.base[i] for i in v.idx[lanes].tolist()]
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
        gens = loop.gens
        delta = StatsDelta()
        vz = LoopVectorizer(self, size, delta)
        share_keys, need_memo = loop_share_plan(gens)
        memo: Optional[Dict[Any, Any]] = {} if need_memo else None
        idx = np.arange(size, dtype=np.int64)
        outs = [self._vec_gen(vz, g, sk, idx, memo)
                for g, sk in zip(gens, share_keys)]
        # success — commit everything atomically
        delta.merge_into(self.stats)
        self.stats.loops_executed += 1
        self.stats.loop_iterations += size
        fr = self._frames[-1]
        fr[0] += float(vz.ess.sum())
        fr[1] += float(vz.ovh.sum())
        for s, out in zip(d.syms, outs):
            self.env[s.id] = out
        obs = self.observer
        if obs is not None:
            obs.on_loop_start(d, size)
            obs.on_iteration_costs(d, (vz.ess + vz.ovh).tolist())
            obs.on_loop_end(d)

    def _vec_gen(self, vz: LoopVectorizer, g: Generator, sk,
                 idx: np.ndarray, memo: Optional[Dict[Any, Any]]) -> Any:
        ckey, kkey = sk
        mask = vz.gen_mask(g, ckey, idx, memo)
        if mask is not None and not bool(mask.any()):
            return self._empty_result(g)
        if g.kind is GenKind.COLLECT:
            return self._vec_collect(vz, g, idx, mask)
        karr = None if g.key is None else vz.gen_key(g, kkey, idx, mask,
                                                     memo)
        if g.reducer is None:
            v = vz.eval_block(g.value, (idx,), mask)
            vz.count_alloc(g.value_type, mask, 1)
        else:
            vz.in_reduce_value += 1
            try:
                v = vz.eval_block(g.value, (idx,), mask)
            finally:
                vz.in_reduce_value -= 1
        actives = idx if mask is None else idx[mask]
        if not len(actives):
            return self._empty_result(g)
        vfull = v if is_vec(v) else as_lane_vec(v, vz.L)
        if g.key is not None:
            return self._vec_bucket(vz, g, karr, vfull, actives)
        return self._fold_codes(vz, g, vfull, actives,
                                np.zeros(len(actives), dtype=np.int64), 1)[0]

    def _empty_result(self, g: Generator) -> Any:
        if g.kind is GenKind.COLLECT:
            return []
        if g.kind is GenKind.REDUCE:
            return self._reduce_identity(g)
        return Buckets(default=self._bucket_default(g))

    def _reduce_identity(self, g: Generator) -> Any:
        if g.init is not None:
            return self.eval_exp(g.init)
        return g.identity_value()

    # -- Collect -----------------------------------------------------------

    def _vec_collect(self, vz: LoopVectorizer, g: Generator,
                     idx: np.ndarray, mask: Optional[np.ndarray]) -> List:
        v = vz.eval_block(g.value, (idx,), mask)
        actives = idx if mask is None else idx[mask]
        if g.flatten:
            elem = g.value_type.elem if isinstance(g.value_type, T.Coll) \
                else g.value_type
            lens = vz._length(v)
            vz.count_alloc(elem, mask,
                           lens if isinstance(lens, np.ndarray)
                           else int(lens))
            out: List[Any] = []
            for row in self.to_host(v, actives, g.value_type):
                out.extend(row)
            return out
        vz.count_alloc(g.value_type, mask, 1)
        return self.to_host(v, actives, g.value_type)

    # -- Reduce / BucketReduce ---------------------------------------------

    def _fold_codes(self, vz: LoopVectorizer, g: Generator, vfull: Any,
                    actives: np.ndarray, codes: np.ndarray, K: int) -> List:
        """Each code's values (a Reduce has one code) folded by the reducer,
        one host value per code. Every combine is charged to the lane of the
        value it folds in: each active lane but its code's first."""
        sidx = np.argsort(codes, kind="stable")
        starts = np.searchsorted(codes[sidx], np.arange(K))
        rest = np.ones(len(actives), dtype=np.bool_)
        rest[sidx[starts]] = False
        rest_lanes = actives[rest]
        name, depth = recognize_elementwise(g.reducer) or (None, None)
        if depth == 0 and isinstance(vfull, np.ndarray):
            # scalars fold in NumPy's order: reduce, or reduceat per bucket
            uf = ASSOC_UFUNCS[name]
            svals = reducer_operands(name, vfull[actives][sidx])
            red = uf.reduce(svals, keepdims=True) if g.key is None \
                else uf.reduceat(svals, starts)
            if len(rest_lanes):
                vz.ess[rest_lanes] += PRIMS[name].cost
                vz.delta.op_counts[f"prim.{name}"] += len(rest_lanes)
            return red.tolist()
        vals = vec_take(vfull, actives[sidx])
        folded = vz.fold_elementwise(g.reducer, vals,
                                     np.bincount(codes, minlength=K))
        if folded is None:
            red = self._generic_segmented(vz, g, vals, codes[sidx], K,
                                          rest_lanes)
        else:
            red, ess, ovh = folded
            vz.ess[rest_lanes] += ess
            vz.ovh[rest_lanes] += ovh
        return self.to_host(red, np.arange(K), g.value_type)

    def _generic_segmented(self, vz: LoopVectorizer, g: Generator,
                           vals: Any, codes: np.ndarray, K: int,
                           rest_lanes: np.ndarray) -> Any:
        """Order-preserving pairwise fold of code-sorted values down to one
        value per code. Each round pairs adjacent same-code elements and
        combines them with a masked sub-vectorizer; per-combine costs must
        be uniform so they can be re-attributed to ``rest_lanes`` (every
        active lane except each code's first) exactly as the sequential
        fold charges them."""
        cur, cur_codes = vals, codes
        ess_parts: List[np.ndarray] = []
        ovh_parts: List[np.ndarray] = []
        while len(cur_codes) > K:
            m = len(cur_codes)
            first_occ = np.searchsorted(cur_codes, cur_codes, side="left")
            pos = np.arange(m) - first_occ
            nxt_same = np.zeros(m, dtype=np.bool_)
            nxt_same[:-1] = cur_codes[1:] == cur_codes[:-1]
            left = (pos % 2 == 0) & nxt_same
            right = np.zeros(m, dtype=np.bool_)
            right[1:] = left[:-1]
            partner = vec_take(cur, np.minimum(np.arange(m) + 1, m - 1))
            sub = LoopVectorizer(self, m, vz.delta)
            sub.in_reducer = 1
            combined = sub.eval_block(g.reducer, (cur, partner), left)
            ess_parts.append(sub.ess[left])
            ovh_parts.append(sub.ovh[left])
            merged = vec_where(left, combined, cur, m)
            keep = np.nonzero(~right)[0]
            cur = vec_take(merged, keep)
            cur_codes = cur_codes[keep]
        if ess_parts:
            ess_all = np.concatenate(ess_parts)
            ovh_all = np.concatenate(ovh_parts)
            if ess_all.size:
                if (ess_all.max() != ess_all.min()
                        or ovh_all.max() != ovh_all.min()):
                    raise VecError("data-dependent reducer cost")
                if len(rest_lanes) != ess_all.size:
                    raise VecError("combine count mismatch")
                vz.ess[rest_lanes] += ess_all[0]
                vz.ovh[rest_lanes] += ovh_all[0]
        return cur

    def _vec_bucket(self, vz: LoopVectorizer, g: Generator, karr: Any,
                    vfull: Any, actives: np.ndarray) -> Buckets:
        codes, uniq_keys = self._key_codes(karr, actives, len(actives))
        K = len(uniq_keys)
        if g.reducer is not None:
            host_vals = self._fold_codes(vz, g, vfull, actives, codes, K)
        else:
            sidx = np.argsort(codes, kind="stable")
            host = self.to_host(vfull, actives, g.value_type)
            host_vals = [[host[j] for j in grp.tolist()] for grp in np.split(
                sidx, np.searchsorted(codes[sidx], np.arange(1, K)))]
        b = Buckets(default=self._bucket_default(g))
        for key, hv in zip(uniq_keys, host_vals):
            b.get_or_create(key, hv)
        return b

    def _key_codes(self, karr: Any, actives: np.ndarray,
                   n: int) -> Tuple[np.ndarray, List[Any]]:
        """Dense first-seen-order codes + host key values."""
        if not is_vec(karr):
            return np.zeros(n, dtype=np.int64), [
                karr.item() if isinstance(karr, np.generic) else karr]
        if not isinstance(karr, np.ndarray):
            raise VecError("non-scalar bucket key")
        keys = karr[actives]
        codes, first = first_seen_codes(keys)
        return codes, keys[first].tolist()


def run_program_numpy(prog: Program, inputs: Dict[str, Any],
                      observer: Optional[LoopObserver] = None
                      ) -> Tuple[Tuple[Any, ...], ExecStats,
                                 List[FallbackRecord]]:
    """Evaluate ``prog`` on the NumPy backend; return
    (results, stats, fallbacks)."""
    interp = NumpyInterp(observer=observer)
    results = interp.eval_program(prog, inputs)
    return results, interp.stats, interp.fallbacks
