"""Reference interpreter for DMLL programs (the semantics of Fig. 2b).

Besides producing results, the interpreter is *instrumented*: it tallies
dynamic operation counts, bytes touched, and per-top-level-statement cost
records in an ``ExecStats``. The NumPy backend tallies into the same
record and is checked against this interpreter. The simulated-hardware
runtime executes a program functionally once and then prices the
recorded work on a machine model — "the work is real, only the clock is
modeled" (DESIGN §4).
"""

from __future__ import annotations

import weakref
from collections import Counter
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from . import types as T
from .ir import Block, Const, Def, Exp, Program, Sym
from .multiloop import GenKind, Generator, MultiLoop
from .ops import (COLL_PRIMS, PRIMS, ArrayApply, ArrayLength, ArrayLit,
                  BucketKeys, BucketLookup, CollPrim, IfThenElse,
                  InputSource, MakeKeyed, Prim, StructField, StructNew)
from .values import Buckets

_EMPTY = object()  # reduction accumulator sentinel (no element seen yet)

#: abstract cycle costs of non-prim operations. Essential cycles (loads,
#: stores, arithmetic) survive compilation; overhead cycles (branches,
#: struct shuffling, hash machinery, interpretive glue) are what an
#: optimizing backend largely eliminates — the machine model discounts
#: them by the profile's ``overhead_elim`` factor.
READ_CYCLES = 1.0
WRITE_CYCLES = 1.0
BUCKET_CYCLES = 6.0  # hash + probe per bucket insertion/lookup (essential)
BRANCH_CYCLES = 1.0


@dataclass
class DefRecord:
    """Dynamic execution record of one top-level statement."""

    sym_id: int
    name: str
    op_name: str
    is_loop: bool = False
    size: int = 0                 # loop trip count
    compute_cycles: float = 0.0   # essential cycles (loads/stores/flops)
    overhead_cycles: float = 0.0  # abstraction cycles a backend removes
    elements_read: int = 0
    bytes_read: int = 0
    elements_emitted: int = 0
    bytes_alloc: int = 0
    output_len: int = 0


@dataclass
class ExecStats:
    op_counts: Counter = field(default_factory=Counter)
    loop_iterations: int = 0
    loops_executed: int = 0
    elements_read: int = 0
    bytes_read: int = 0
    elements_emitted: int = 0
    bytes_alloc: int = 0
    total_cycles: float = 0.0
    def_records: List[DefRecord] = field(default_factory=list)


#: the counts of ``ExecStats`` a run adds up besides ``op_counts``
TALLIES = ("loop_iterations", "loops_executed", "elements_read",
           "bytes_read", "elements_emitted", "bytes_alloc")


def add_stats(into: ExecStats, delta: ExecStats, k: int = 1) -> None:
    """Add ``delta``'s op counts and ``TALLIES`` ``k`` times into ``into``."""
    for name, c in delta.op_counts.items():
        into.op_counts[name] += c * k
    for name in TALLIES:
        setattr(into, name, getattr(into, name) + getattr(delta, name) * k)


class InterpError(Exception):
    pass


class Interp:
    backend = "reference"

    def __init__(self, stats: Optional[ExecStats] = None,
                 per_iter: bool = False):
        self.stats = stats if stats is not None else ExecStats()
        #: top-level loop sym id -> cost of each of its iterations (the
        #: load-imbalance input of the machine model); ``None`` unless
        #: ``per_iter``. Nested loops are never recorded.
        self.per_iter: Optional[Dict[int, List[float]]] = (
            {} if per_iter else None)
        self.env: Dict[int, Any] = {}
        # cost frames: [-1] is the innermost accumulation target;
        # each frame is [essential, overhead]
        self._frames: List[List[float]] = [[0.0, 0.0]]
        # >0 while evaluating reducer blocks: collections built there are
        # in-place accumulator updates in generated code, not allocations
        self._in_reducer = 0
        # >0 while evaluating a reducing generator's value block: vectors
        # built there stream straight into the accumulator (no
        # materialization) in generated code
        self._in_reduce_value = 0

    # -- cost accounting -----------------------------------------------

    def _add_cycles(self, c: float) -> None:
        self._frames[-1][0] += c

    def _add_overhead(self, c: float) -> None:
        self._frames[-1][1] += c

    def _push_frame(self) -> None:
        self._frames.append([0.0, 0.0])

    def _pop_frame(self) -> List[float]:
        c = self._frames.pop()
        top = self._frames[-1]
        top[0] += c[0]  # roll up into the parent
        top[1] += c[1]
        return c

    # -- program / block evaluation -------------------------------------

    def eval_program(self, prog: Program, inputs: Dict[str, Any]) -> Tuple[Any, ...]:
        """Run a program. ``inputs`` maps InputSource labels to values."""
        self._input_values = inputs
        top = prog.body
        for d in top.stmts:
            self._eval_def_toplevel(d)
        results = tuple(self.eval_exp(r) for r in top.results)
        self.stats.total_cycles = self._frames[0][0] + self._frames[0][1]
        return results

    def _eval_def_toplevel(self, d: Def) -> None:
        rec = DefRecord(
            sym_id=d.syms[0].id, name=d.syms[0].name, op_name=d.op.op_name(),
            is_loop=isinstance(d.op, MultiLoop))
        if self.per_iter is not None and rec.is_loop:
            self.per_iter[rec.sym_id] = []
        # the statement's tallies are staged in their own ExecStats: its
        # record keeps them, the run's stats add them up
        run, self.stats = self.stats, ExecStats()
        self._push_frame()
        try:
            self.eval_def(d)
        finally:
            ess, ovh = self._pop_frame()
            rec.compute_cycles = ess
            rec.overhead_cycles = ovh
            own, self.stats = self.stats, run
            add_stats(run, own)
        rec.elements_read, rec.bytes_read = own.elements_read, own.bytes_read
        rec.elements_emitted = own.elements_emitted
        rec.bytes_alloc = own.bytes_alloc
        if isinstance(d.op, MultiLoop):
            rec.size = int(self.eval_exp(d.op.size))
        out = self.env.get(d.syms[0].id)
        if hasattr(out, "__len__"):
            rec.output_len = len(out)
        self.stats.def_records.append(rec)

    def eval_block(self, block: Block, args: Sequence[Any]) -> Any:
        if len(args) != len(block.params):
            raise InterpError("block arity mismatch")
        for p, a in zip(block.params, args):
            self.env[p.id] = a
        for d in block.stmts:
            self.eval_def(d)
        if len(block.results) == 1:
            return self.eval_exp(block.results[0])
        return tuple(self.eval_exp(r) for r in block.results)

    def eval_exp(self, e: Exp) -> Any:
        if isinstance(e, Const):
            return e.value
        if isinstance(e, Sym):
            try:
                return self.env[e.id]
            except KeyError:
                raise InterpError(f"unbound symbol {e!r}") from None
        raise InterpError(f"cannot evaluate {e!r}")

    # -- statement dispatch ---------------------------------------------

    def eval_def(self, d: Def) -> None:
        op = d.op
        self.stats.op_counts[op.op_name()] += 1
        if isinstance(op, Prim):
            spec = PRIMS[op.name]
            self._add_cycles(spec.cost)
            self.env[d.sym.id] = spec.eval_fn(*(self.eval_exp(a) for a in op.args))
        elif isinstance(op, ArrayApply):
            arr = self.eval_exp(op.arr)
            idx = self.eval_exp(op.idx)
            self._count_read(op.result_types()[0])
            self.env[d.sym.id] = arr[idx]
        elif isinstance(op, ArrayLength):
            self.env[d.sym.id] = len(self.eval_exp(op.arr))
            self._add_cycles(1.0)
        elif isinstance(op, MultiLoop):
            self._eval_loop(d, op)
        elif isinstance(op, IfThenElse):
            self._add_overhead(BRANCH_CYCLES)
            branch = op.then_block if self.eval_exp(op.cond) else op.else_block
            self.env[d.sym.id] = self.eval_block(branch, ())
        elif isinstance(op, StructNew):
            self._add_overhead(len(op.values) * 0.5)
            self.env[d.sym.id] = tuple(self.eval_exp(v) for v in op.values)
        elif isinstance(op, StructField):
            st = op.struct.tpe
            idx = st.field_names().index(op.fname)
            self._add_overhead(0.5)
            self.env[d.sym.id] = self.eval_exp(op.struct)[idx]
        elif isinstance(op, BucketLookup):
            coll = self.eval_exp(op.coll)
            self._add_cycles(BUCKET_CYCLES)
            self._count_read(op.result_types()[0])
            if isinstance(coll, Buckets):
                self.env[d.sym.id] = coll.lookup(self.eval_exp(op.key))
            else:
                raise InterpError("BucketLookup on non-bucket value")
        elif isinstance(op, BucketKeys):
            coll = self.eval_exp(op.coll)
            if not isinstance(coll, Buckets):
                raise InterpError("BucketKeys on non-bucket value")
            self.env[d.sym.id] = list(coll.keys)
        elif isinstance(op, CollPrim):
            spec = COLL_PRIMS[op.name]
            vals = [self.eval_exp(a) for a in op.args]
            cycles, reads = spec.cost_fn(*vals)
            self._add_cycles(cycles)
            self.stats.elements_read += reads
            self.stats.bytes_read += reads * 8
            self.env[d.sym.id] = spec.eval_fn(*vals)
        elif isinstance(op, MakeKeyed):
            keys = self.eval_exp(op.keys)
            values = self.eval_exp(op.values)
            b = Buckets(default=T.zero_value(T.element_type(op.values.tpe)))
            for k, v in zip(keys, values):
                p = b.get_or_create(k, None)
                b.values[p] = v
            self._add_overhead(BUCKET_CYCLES * len(b))
            self.env[d.sym.id] = b
        elif isinstance(op, ArrayLit):
            self.env[d.sym.id] = [self.eval_exp(e) for e in op.elems]
            self._count_alloc(op.elem_type, len(op.elems))
        elif isinstance(op, InputSource):
            try:
                self.env[d.sym.id] = self._input_values[op.label]
            except (AttributeError, KeyError):
                raise InterpError(f"missing program input {op.label!r}") from None
        else:
            raise InterpError(f"unknown op {op!r}")

    def _count_read(self, tpe: T.Type) -> None:
        if self._in_reducer:
            # one side of r(a, b) is the register-resident incoming value;
            # only the accumulator load touches memory
            self._add_cycles(READ_CYCLES * 0.5)
        else:
            self._add_cycles(READ_CYCLES)
        self.stats.elements_read += 1
        self.stats.bytes_read += tpe.byte_size

    def _count_alloc(self, tpe: T.Type, n: int = 1) -> None:
        if self._in_reduce_value:
            return  # streamed into the accumulator, never materialized
        self._add_cycles(WRITE_CYCLES * n)
        if self._in_reducer:
            return  # accumulator update in place, not a fresh allocation
        self.stats.elements_emitted += n
        self.stats.bytes_alloc += tpe.byte_size * n

    def _eval_reducer(self, block: Block, args) -> Any:
        self._in_reducer += 1
        try:
            return self.eval_block(block, args)
        finally:
            self._in_reducer -= 1

    # -- multiloop semantics ---------------------------------------------

    def _eval_loop(self, d: Def, loop: MultiLoop) -> None:
        size = int(self.eval_exp(loop.size))
        self.stats.loops_executed += 1
        self.stats.loop_iterations += size
        costs = (None if self.per_iter is None
                 else self.per_iter.get(d.syms[0].id))

        accs = [self._make_acc(g) for g in loop.gens]
        gens = loop.gens
        # horizontally-fused generators with alpha-equivalent condition/key
        # functions share one evaluation per iteration in generated code
        # (that is the point of fusing them); mirror that here so the cost
        # accounting matches what the backends emit.
        share_keys, need_memo = loop_share_plan(gens)
        triples = list(zip(gens, accs, share_keys))
        if costs is None:
            # hot path: no per-iteration cost frames, and no memo dict
            # unless two generators can actually share an evaluation
            if need_memo:
                for i in range(size):
                    memo = {}
                    for g, acc, sk in triples:
                        self._eval_gen_iter(g, acc, i, memo, sk)
            else:
                for i in range(size):
                    for g, acc, sk in triples:
                        self._eval_gen_iter(g, acc, i, None, sk)
        else:
            # a recorded top-level loop: one cost frame per iteration
            for i in range(size):
                self._push_frame()
                memo = {} if need_memo else None
                for g, acc, sk in triples:
                    self._eval_gen_iter(g, acc, i, memo, sk)
                ess, ovh = self._pop_frame()
                costs.append(ess + ovh)

        for s, g, acc in zip(d.syms, gens, accs):
            self.env[s.id] = self._finish_acc(g, acc)

    def _shared_eval(self, block: Block, i: int, memo, mkey):
        """Evaluate a generator component, reusing an alpha-equivalent
        sibling's value (and paying its cost only once)."""
        if memo is None or mkey is None:
            return self.eval_block(block, (i,))
        if mkey in memo:
            return memo[mkey]
        v = self.eval_block(block, (i,))
        memo[mkey] = v
        return v

    def _make_acc(self, g: Generator) -> Any:
        if g.kind is GenKind.COLLECT:
            return []
        if g.kind is GenKind.REDUCE:
            return [_EMPTY]
        b = Buckets(default=self._bucket_default(g))
        return b

    def _bucket_default(self, g: Generator) -> Any:
        if g.kind is GenKind.BUCKET_COLLECT:
            return []
        if g.init is not None:
            return self.eval_exp(g.init)
        return T.zero_value(g.value_type)

    def _eval_gen_iter(self, g: Generator, acc: Any, i: int,
                       memo=None, share_key=(None, None)) -> None:
        ckey, kkey = share_key
        if g.cond is not None:
            self._add_overhead(BRANCH_CYCLES)
            if not self._shared_eval(g.cond, i, memo, ckey):
                return
        if g.kind is GenKind.COLLECT:
            v = self.eval_block(g.value, (i,))
            if g.flatten:
                acc.extend(v)
                self._count_alloc(g.value_type.elem if isinstance(g.value_type, T.Coll)
                                  else g.value_type, len(v))
            else:
                acc.append(v)
                self._count_alloc(g.value_type)
        elif g.kind is GenKind.REDUCE:
            self._in_reduce_value += 1
            try:
                v = self.eval_block(g.value, (i,))
            finally:
                self._in_reduce_value -= 1
            if acc[0] is _EMPTY:
                acc[0] = v
            else:
                acc[0] = self._eval_reducer(g.reducer, (acc[0], v))
        elif g.kind is GenKind.BUCKET_COLLECT:
            k, pos_hint = self._bucket_key(g, i, memo, kkey)
            v = self.eval_block(g.value, (i,))
            pos = acc.get_or_create(k, None)
            if acc.values[pos] is None:
                acc.values[pos] = []
            acc.values[pos].append(v)
            self._count_alloc(g.value_type)
        else:  # BUCKET_REDUCE
            k, pos_hint = self._bucket_key(g, i, memo, kkey)
            self._in_reduce_value += 1
            try:
                v = self.eval_block(g.value, (i,))
            finally:
                self._in_reduce_value -= 1
            pos = acc.get_or_create(k, _EMPTY)
            if acc.values[pos] is _EMPTY:
                acc.values[pos] = v
            else:
                acc.values[pos] = self._eval_reducer(g.reducer,
                                                     (acc.values[pos], v))

    def _bucket_key(self, g: Generator, i: int, memo, kkey):
        """Key computation + hash probe, shared across alpha-equivalent
        bucket generators of a fused loop (one probe serves all their
        accumulators; siblings pay only an indexed write)."""
        if memo is None or kkey is None:
            self._add_cycles(BUCKET_CYCLES)
            return self.eval_block(g.key, (i,)), None
        probe = ("probe",) + (kkey,)
        if probe in memo:
            self._add_cycles(WRITE_CYCLES)
            return memo[probe], None
        self._add_cycles(BUCKET_CYCLES)
        k = self._shared_eval(g.key, i, memo, kkey)
        memo[probe] = k
        return k, None

    def _finish_acc(self, g: Generator, acc: Any) -> Any:
        if g.kind is GenKind.COLLECT:
            return acc
        if g.kind is GenKind.REDUCE:
            if acc[0] is _EMPTY:
                if g.init is not None:
                    return self.eval_exp(g.init)
                return g.identity_value()
            return acc[0]
        return acc


#: id(block) -> (weakref-to-block, alpha key). The weakref both guards
#: against id() reuse — a dead entry must never serve a new block that
#: happens to land at the same address, which would alias alpha keys
#: across unrelated blocks and nondeterministically flip sharing (and
#: backend-plan) decisions — and evicts the entry when the block dies.
_ALPHA_CACHE: Dict[int, Tuple[Any, object]] = {}


def _alpha_of(block: Optional[Block]):
    """Alpha-equivalence key of a generator component block (cached by
    block identity); ``None`` for an absent component."""
    if block is None:
        return None
    bid = id(block)
    entry = _ALPHA_CACHE.get(bid)
    if entry is not None and entry[0]() is block:
        return entry[1]
    from .ir import alpha_key
    key = ("k",) + (alpha_key(block),)
    ref = weakref.ref(block, lambda _r, bid=bid: _ALPHA_CACHE.pop(bid, None))
    _ALPHA_CACHE[bid] = (ref, key)
    return key


def loop_share_plan(gens: Sequence[Generator]):
    """Per-generator (cond, key) alpha keys plus whether any evaluation can
    actually be shared between generators of one fused loop.

    The per-iteration memo dict is pure overhead unless at least two
    generators carry alpha-equivalent cond/key blocks (cond and key share
    one value namespace: a key block alpha-equal to a sibling's cond reuses
    its value). Both the interpreter and the vectorized backend key their
    sharing off this plan so their cost accounting agrees.
    """
    share_keys = [(_alpha_of(g.cond), _alpha_of(g.key)) for g in gens]
    need_memo = False
    if len(gens) > 1:
        seen = set()
        for ck, kk in share_keys:
            for k in (ck, kk):
                if k is None:
                    continue
                if k in seen:
                    need_memo = True
                else:
                    seen.add(k)
    return share_keys, need_memo


def run_program(prog: Program, inputs: Dict[str, Any]
                ) -> Tuple[Tuple[Any, ...], ExecStats]:
    """Evaluate ``prog`` on ``inputs``; return (results, stats)."""
    interp = Interp()
    results = interp.eval_program(prog, inputs)
    return results, interp.stats
