"""Differential tests for the vectorized NumPy backend.

The backend contract is strict: for any program the numpy backend must
produce results *and* ``ExecStats`` identical to the reference
interpreter — cycle accounting is analytic, so vectorizing execution may
change wall-clock only, never the priced cost. Every loop it cannot
vectorize must fall back to the reference path (recorded, not silent),
which keeps the contract trivially true for unsupported shapes.

All eight bundled apps must additionally run with *zero* fallbacks —
the acceptance bar for the backend actually covering the paper's
workloads.
"""

import collections
import dataclasses
import functools

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro import frontend as F
from repro.backend import (FallbackRecord, NumpyInterp, resolve_backend,
                           resolve_backend_ex, run_program_numpy, vectorize)
from repro.bench.apps import get_bundle
from repro.core import Interp, run_program
from repro.core import types as T
from repro.core.multiloop import (MultiLoop, bucket_collect, bucket_reduce,
                                  collect, reduce_gen)
from repro.core.ir import Const
from repro.core.ops import COLL_PRIMS, ArrayApply, ArrayLength, Prim
from repro.core.staging import emit, emit1, stage_block
from repro.core.values import deep_eq
from repro.pipeline import compile_program, optimize

APPS = ["kmeans", "logreg", "gda", "q1", "gene", "pagerank", "triangle",
        "gibbs"]

STAT_FIELDS = ["total_cycles", "elements_read", "bytes_read",
               "elements_emitted", "bytes_alloc", "loops_executed",
               "loop_iterations"]


def assert_stats_equal(ref, vec):
    for f in STAT_FIELDS:
        assert getattr(ref, f) == getattr(vec, f), (
            f"stats field {f}: reference={getattr(ref, f)!r} "
            f"numpy={getattr(vec, f)!r}")
    assert dict(ref.op_counts) == dict(vec.op_counts)
    # per-def records carry the essential/overhead split the pricing
    # model consumes — they must match record-for-record
    assert ref.def_records == vec.def_records


def run_both(prog, inputs):
    ref_results, ref_stats = run_program(prog, inputs)
    vec_results, vec_stats, fallbacks = run_program_numpy(prog, inputs)
    assert deep_eq(ref_results, vec_results, tol=0.0)
    assert_stats_equal(ref_stats, vec_stats)
    return fallbacks


# ---------------------------------------------------------------------------
# The eight bundled applications
# ---------------------------------------------------------------------------

@functools.lru_cache(maxsize=None)
def reference_run(app, variant):
    """(program, inputs, results, stats) of one bundled program on the
    reference interpreter, run once per test process: gda alone takes two
    seconds."""
    bundle = get_bundle(app)
    compiled = bundle.compiled(variant)
    inputs = compiled.prepare_inputs(bundle.inputs)
    return (compiled.program, inputs) + run_program(compiled.program, inputs)


class TestBundledApps:
    @pytest.mark.parametrize("app", APPS)
    def test_identical_and_fully_vectorized(self, app):
        prog, inputs, ref_results, ref_stats = reference_run(app, "opt")
        vec_results, vec_stats, fallbacks = run_program_numpy(prog, inputs)
        assert deep_eq(ref_results, vec_results, tol=0.0)
        assert_stats_equal(ref_stats, vec_stats)
        assert fallbacks == [], (
            f"{app} fell back to the interpreter: "
            f"{[(f.loop, f.reason) for f in fallbacks]}")

    @pytest.mark.parametrize("app", ["kmeans", "gda"])
    def test_gpu_variant_is_fully_vectorized(self, app):
        # Row-to-Column Reduce leaves Collect(j){ BucketReduce(i) }: a
        # nested bucket generator, grouped on the segmented lane axis
        bundle = get_bundle(app)
        compiled = bundle.compiled("gpu")
        inputs = compiled.prepare_inputs(bundle.inputs)
        ref_results, ref_stats = run_program(compiled.program, inputs)
        vec_results, vec_stats, fallbacks = run_program_numpy(
            compiled.program, inputs)
        assert fallbacks == []
        assert deep_eq(ref_results, vec_results, tol=0.0)
        assert_stats_equal(ref_stats, vec_stats)

    @pytest.mark.parametrize("app", APPS)
    @pytest.mark.parametrize("variant", ["opt", "gpu"])
    def test_static_plan_has_no_fallback(self, app, variant):
        compiled = get_bundle(app).compiled(variant)
        plan = vectorize.plan_program(compiled.program)
        assert plan and set(plan.values()) == {None}, plan

    # q1/plain holds the suite's one fallback loop: its numpy cost stream
    # comes from the reference path inside NumpyInterp
    @pytest.mark.parametrize("app,variant", [("logreg", "opt"),
                                             ("q1", "plain")])
    def test_capture_records_backend_and_per_iter(self, app, variant):
        from repro.runtime.executor import capture_run
        bundle = get_bundle(app)
        compiled = bundle.compiled(variant)
        ref = capture_run(compiled, bundle.inputs, backend="reference")
        vec = capture_run(compiled, bundle.inputs, backend="numpy")
        assert ref.backend == "reference" and vec.backend == "numpy"
        assert bool(vec.fallbacks) == (app == "q1")
        assert deep_eq(ref.results, vec.results, tol=0.0)
        assert_stats_equal(ref.stats, vec.stats)
        # one cost stream per top-level loop, none for a nested one; the
        # streams feed load-imbalance bounds and must match element for
        # element
        top = [d.syms[0].id for d in compiled.program.body.stmts
               if isinstance(d.op, MultiLoop)]
        assert list(ref.per_iter) == top and list(vec.per_iter) == top
        assert ref.per_iter == vec.per_iter

    def test_simulated_price_backend_invariant(self):
        bundle = get_bundle("q1")
        ref = bundle.simulate("opt", backend="reference")
        vec = bundle.simulate("opt", backend="numpy")
        assert ref.total_seconds == vec.total_seconds
        assert vec.backend == "numpy" and vec.fallbacks == []


# ---------------------------------------------------------------------------
# Backend selection plumbing
# ---------------------------------------------------------------------------

class TestSelection:
    def test_resolve_policy(self, monkeypatch):
        monkeypatch.delenv("REPRO_BACKEND", raising=False)
        assert resolve_backend(None) == "numpy"
        assert resolve_backend("reference") == "reference"
        monkeypatch.setenv("REPRO_BACKEND", "reference")
        assert resolve_backend(None) == "reference"
        assert resolve_backend("numpy") == "numpy"
        with pytest.raises(ValueError):
            resolve_backend("cuda")

    def test_blank_env_is_an_error_not_default(self, monkeypatch):
        # REPRO_BACKEND= (set but empty) used to silently mean "default";
        # a mistyped CI matrix leg must fail loudly instead
        monkeypatch.setenv("REPRO_BACKEND", "")
        with pytest.raises(ValueError, match="blank"):
            resolve_backend(None)
        monkeypatch.setenv("REPRO_BACKEND", "   ")
        with pytest.raises(ValueError, match="blank"):
            resolve_backend(None)
        # an explicit argument still wins over the broken env
        assert resolve_backend("numpy") == "numpy"

    def test_env_whitespace_is_stripped(self, monkeypatch):
        monkeypatch.setenv("REPRO_BACKEND", "  numpy \n")
        assert resolve_backend(None) == "numpy"
        assert resolve_backend(" reference ") == "reference"
        with pytest.raises(ValueError, match="blank"):
            resolve_backend("")

    def test_resolution_source_is_reported(self, monkeypatch):
        monkeypatch.delenv("REPRO_BACKEND", raising=False)
        assert resolve_backend_ex(None) == ("numpy", "default")
        assert resolve_backend_ex("reference") == ("reference", "argument")
        monkeypatch.setenv("REPRO_BACKEND", "reference")
        assert resolve_backend_ex(None) == ("reference",
                                            "env:REPRO_BACKEND")

    def test_compiled_run_backend_param(self):
        bundle = get_bundle("logreg")
        compiled = bundle.compiled("opt")
        r1, s1 = compiled.run(bundle.inputs, backend="reference")
        r2, s2 = compiled.run(bundle.inputs, backend="numpy")
        assert repr(r1) == repr(r2)
        assert_stats_equal(s1, s2)


# ---------------------------------------------------------------------------
# Recorded fallback on unvectorizable loops
# ---------------------------------------------------------------------------

class TestFallback:
    def test_struct_keys_fall_back_recorded(self):
        # a struct-valued bucket key has no lane coding: the loop must
        # still produce interpreter-identical results through the
        # recorded fallback
        prog = F.build(lambda xs: xs.group_by_reduce(
            lambda x: F.pair(x, x), lambda x: x, lambda a, b: a + b),
            [F.vector_input("xs", True)])
        fallbacks = run_both(prog, {"xs": [1.0, 2.0, 1.0]})
        assert len(fallbacks) == 1
        assert isinstance(fallbacks[0], FallbackRecord)
        assert fallbacks[0].reason == "non-scalar bucket key"


# ---------------------------------------------------------------------------
# Alpha-key cache: id() reuse must never alias blocks
# ---------------------------------------------------------------------------

class TestAlphaCache:
    """The loop-share plan caches alpha keys by ``id(block)``. Python
    recycles addresses, so a stale entry for a dead block must never
    serve a new block that lands at the same address — that aliasing
    nondeterministically flipped sharing (and backend-plan) decisions
    between otherwise identical compiles."""

    @staticmethod
    def _some_block():
        prog = F.build(lambda xs: xs.reduce(lambda a, b: a + b, 0),
                       [F.InputSpec("xs", T.Coll(T.INT), True)])
        from repro.core.multiloop import MultiLoop
        for d in prog.body.stmts:
            if isinstance(d.op, MultiLoop):
                return d.op.gens[0].value
        raise AssertionError("no multiloop staged")

    def test_dead_block_entry_is_evicted(self):
        import gc
        from repro.core.interp import _ALPHA_CACHE, _alpha_of
        block = self._some_block()
        _alpha_of(block)
        bid = id(block)
        assert bid in _ALPHA_CACHE
        del block
        gc.collect()
        assert bid not in _ALPHA_CACHE

    def test_recycled_id_recomputes_instead_of_aliasing(self):
        import weakref
        from repro.core.interp import _ALPHA_CACHE, _alpha_of
        block = self._some_block()
        true_key = _alpha_of(block)
        # plant what an id() collision with a dead block looks like: an
        # entry under this block's id whose referent is gone
        dead = type("Dead", (), {})()
        _ALPHA_CACHE[id(block)] = (weakref.ref(dead), ("k", "stale"))
        del dead
        assert _alpha_of(block) == true_key


# ---------------------------------------------------------------------------
# Property: random small multiloops, both backends agree exactly
# ---------------------------------------------------------------------------

SETTINGS = dict(max_examples=40, deadline=None,
                suppress_health_check=[HealthCheck.too_slow])

ints_data = st.lists(st.integers(min_value=-50, max_value=50),
                     min_size=0, max_size=30)

# map/filter bodies (filter introduces a generator cond)
_OPS = [
    ("map_add", lambda r: r.map(lambda x: x + 3)),
    ("map_mul", lambda r: r.map(lambda x: x * 2)),
    ("filter_even", lambda r: r.filter(lambda x: x % 2 == 0)),
    ("filter_pos", lambda r: r.filter(lambda x: x > 0)),
]

# sinks cover all four generator kinds: Collect, Reduce, BucketCollect,
# BucketReduce
_SINKS = [
    ("collect", lambda r: r),
    ("sum", lambda r: r.sum()),
    ("min", lambda r: r.reduce(lambda a, b: F.fmin(a, b), 99)),
    ("group_by", lambda r: r.group_by(lambda x: x % 2)),
    ("group_sum", lambda r: r.group_by_reduce(lambda x: x % 3, lambda x: x,
                                              lambda a, b: a + b)),
]

pipeline_strategy = st.tuples(
    st.lists(st.sampled_from(_OPS), min_size=0, max_size=3),
    st.lists(st.sampled_from(_SINKS), min_size=1, max_size=2))


def build_pipeline(ops, sinks):
    def fn(xs):
        r = xs
        for _, op in ops:
            r = op(r)
        outs = tuple(sink(r) for _, sink in sinks)
        return outs if len(outs) > 1 else outs[0]
    return F.build(fn, [F.InputSpec("xs", T.Coll(T.INT), True)])


class TestPropertyDifferential:
    @given(pipeline_strategy, ints_data)
    @settings(**SETTINGS)
    def test_backends_agree_on_random_multiloops(self, spec, data):
        ops, sinks = spec
        prog = build_pipeline(ops, sinks)
        run_both(prog, {"xs": data})

    @given(pipeline_strategy, ints_data)
    @settings(**SETTINGS)
    def test_backends_agree_on_fused_programs(self, spec, data):
        # two sinks off one shared pipeline fuse horizontally into
        # multi-generator loops; optimize() also fuses vertically
        ops, sinks = spec
        prog = optimize(build_pipeline(ops, sinks))
        run_both(prog, {"xs": data})

    @given(pipeline_strategy, ints_data)
    @settings(**SETTINGS)
    def test_backends_agree_after_full_compile(self, spec, data):
        ops, sinks = spec
        compiled = compile_program(build_pipeline(ops, sinks),
                                   "distributed")
        inputs = compiled.prepare_inputs({"xs": data})
        run_both(compiled.program, inputs)


# ---------------------------------------------------------------------------
# Nested multiloops: the flattened (outer lane, trip) space
# ---------------------------------------------------------------------------

def run_with_costs(interp, prog, inputs):
    """Run ``prog`` on ``interp``, built with ``per_iter=True``; return
    (results, stats, per-iteration costs of the top-level loops)."""
    return interp.eval_program(prog, inputs), interp.stats, interp.per_iter


def run_nested(prog, inputs, strip=None):
    """Interpreter vs numpy on a nested program: results bit for bit, full
    ``ExecStats``, per-iteration cost vectors, and no fallback. ``strip``
    shrinks the strip budget so strip boundaries fall inside the data."""
    ref_results, ref_stats, ref_costs = run_with_costs(
        Interp(per_iter=True), prog, inputs)
    vec = NumpyInterp(per_iter=True)
    with pytest.MonkeyPatch.context() as mp:
        if strip is not None:
            mp.setattr(vectorize, "STRIP_LANES", strip)
        vec_results, vec_stats, vec_costs = run_with_costs(vec, prog, inputs)
    assert vec.fallbacks == [], [(f.loop, f.reason) for f in vec.fallbacks]
    assert repr(ref_results) == repr(vec_results)
    assert_stats_equal(ref_stats, vec_stats)
    assert ref_costs == vec_costs


def _block(types, fn, names):
    return stage_block(types, fn, names, wrap=F.wrap, unwrap=F.unwrap)


def _sibling_cond_body(row, i):
    # one nested loop, two generators whose conds are alpha-equal but
    # distinct blocks: the cond is evaluated (and paid) once per trip
    def even():
        return _block([T.INT], lambda j: row[j] % 2 == 0, ["j"])
    kept, total = emit(MultiLoop(row.length().exp, (
        collect(_block([T.INT], lambda j: row[j] * 3 + i, ["j"]),
                cond=even()),
        reduce_gen(_block([T.INT], lambda j: row[j], ["j"]),
                   _block([T.INT, T.INT], lambda a, b: a + b, ["a", "b"]),
                   cond=even()))), ["kept", "total"])
    return F.pair(F.wrap(kept), F.wrap(total))


def _outer_init_body(row, i):
    # segments that keep nothing take ``init``, here a per-outer-lane value
    (best,) = emit(MultiLoop(row.length().exp, (reduce_gen(
        _block([T.INT], lambda j: row[j], ["j"]),
        _block([T.INT, T.INT], lambda a, b: F.fmax(a, b), ["a", "b"]),
        cond=_block([T.INT], lambda j: row[j] > 4, ["j"]),
        init=(i * 100).exp),)), ["best"])
    return F.wrap(best)


# row bodies over ``(row: Coll[Int], i: outer index)``; every one stages at
# least one nested multiloop
_NESTED_BODIES = [
    ("collect_lifts_scalar", lambda row, i: row.map(lambda x: x * 2 + i)),
    ("reduce_int", lambda row, i: row.sum()),
    ("reduce_float", lambda row, i: row.map_reduce(
        lambda x: x.to_double() * 0.1, lambda a, b: a + b)),
    ("collect_cond", lambda row, i: row.filter(lambda x: x % 3 == 0)),
    ("reduce_cond", lambda row, i: row.filter(lambda x: x > i).sum()),
    ("struct_values", lambda row, i: row.map(
        lambda x: F.pair(x, x.to_double() * 0.5))),
    ("struct_reduce", lambda row, i: F.where(
        row.length() > 0, lambda: row.min_index(), -1)),
    ("three_deep", lambda row, i: row.map(
        lambda x: row.map_reduce(lambda y: x * y + i,
                                 lambda a, b: a + b))),
    # (rows of one width: an ArrVec is ragged in one dimension only)
    ("collect_of_rows", lambda row, i: F.irange(row.length()).map(
        lambda k: F.irange(3).map(lambda j: row[k] * j + i))),
    ("masked_by_branch", lambda row, i: F.where(
        i % 2 == 0, lambda: row.map(lambda x: x - i).sum(), 7)),
    ("sibling_conds", _sibling_cond_body),
    ("init_from_outer_lane", _outer_init_body),
]

def _add(a, b):
    return a + b


def _sibling_buckets_body(row, i):
    # two bucket generators under alpha-equal conds and keys: one cond and
    # one hash probe per trip, the sibling pays an indexed write
    def odd():
        return _block([T.INT], lambda j: row[j] % 2 != 0, ["j"])

    def key():
        return _block([T.INT], lambda j: row[j] % 3, ["j"])
    sums, groups = emit(MultiLoop(row.length().exp, (
        bucket_reduce(key(), _block([T.INT], lambda j: row[j] + i, ["j"]),
                      _block([T.INT, T.INT], _add, ["a", "b"]), cond=odd()),
        bucket_collect(key(), _block([T.INT], lambda j: row[j], ["j"]),
                       cond=odd()))), ["sums", "groups"])
    return F.pair(F.wrap(sums), F.wrap(groups))


def _bucket_init_body(row, i):
    # a key that received nothing looks up ``init``, a per-outer-lane value
    (best,) = emit(MultiLoop(row.length().exp, (bucket_reduce(
        _block([T.INT], lambda j: row[j] % 4, ["j"]),
        _block([T.INT], lambda j: row[j], ["j"]),
        _block([T.INT, T.INT], lambda a, b: F.fmax(a, b), ["a", "b"]),
        init=(i * 100).exp),)), ["best"])
    best = F.wrap(best)
    return F.pair(best, F.pair(best.lookup(1), best.lookup(i % 4)))


def _consumed_buckets_body(row, i):
    g = row.group_by_reduce(lambda x: x % 3, lambda x: x * 2, _add)
    return F.pair(F.pair(g.lookup(i % 3), g.length()),
                  F.pair(g.keys().sum(), g.map(lambda v: v + i)))


# like ``_NESTED_BODIES``, staging a nested bucket or flatten generator
_NESTED_BUCKET_BODIES = [
    ("bucket_reduce_int", lambda row, i: row.group_by_reduce(
        lambda x: x % 3, lambda x: x + i, _add)),
    ("bucket_reduce_float", lambda row, i: row.group_by_reduce(
        lambda x: x % 2 == 0, lambda x: x.to_double() * 0.1, _add)),
    ("bucket_reduce_struct", lambda row, i: row.group_by_reduce(
        lambda x: x % 2, lambda x: F.pair(x, x.to_double() * 0.5),
        lambda a, b: F.where(b.fst < a.fst, b, a))),
    ("bucket_reduce_init", _bucket_init_body),
    ("bucket_collect", lambda row, i: row.group_by(lambda x: x % 3)),
    ("bucket_collect_groups_read", lambda row, i: row.group_by_value(
        lambda x: x % 3, lambda x: x * i).map(lambda grp: grp.sum())),
    ("flatten_ragged", lambda row, i: row.flat_map(
        lambda x: F.irange(x % 4).map(lambda j: x * j + i))),
    ("flatten_structs", lambda row, i: F.irange(row.length()).flat_map(
        lambda k: row.filter(lambda x: x > row[k]).map(
            lambda x: F.pair(x, k)))),
    ("bucket_inner_cond", lambda row, i: row.filter(
        lambda x: x > i).group_by_reduce(lambda x: x % 3, lambda x: x,
                                         _add)),
    ("sibling_buckets", _sibling_buckets_body),
    ("buckets_consumed", _consumed_buckets_body),
    ("three_deep_bucket", lambda row, i: row.map(
        lambda x: row.group_by_reduce(lambda y: y % 2, lambda y: x * y + i,
                                      _add).lookup(0))),
]

ragged_rows = st.lists(
    st.lists(st.integers(min_value=-20, max_value=20), min_size=0,
             max_size=9),
    min_size=1, max_size=12)  # a gather from no rows at all falls back


def build_nested(body, outer_filter):
    def fn(xs):
        if outer_filter:
            # fuses into a generator cond: the nest runs under a lane mask
            return xs.filter(lambda row: row.length() != 2).map_indices(
                lambda i: body(xs[i], i))
        return xs.map_indices(lambda i: body(xs[i], i))
    return F.build(fn, [F.matrix_input("xs", True, elem=T.INT)])


class TestFlattenedNestedLoops:
    @given(st.sampled_from(_NESTED_BODIES), st.booleans(), ragged_rows)
    @settings(**{**SETTINGS, "max_examples": 150})
    def test_nested_loops_match_interpreter(self, body, outer_filter, rows):
        prog = build_nested(body[1], outer_filter)
        for p in (prog, optimize(prog)):
            run_nested(p, {"xs": rows})
            run_nested(p, {"xs": rows}, strip=7)

    @given(st.sampled_from(_NESTED_BUCKET_BODIES), st.booleans(),
           ragged_rows)
    # the outer filter keeps no row: per-lane buckets of a loop of no lanes
    @example(("buckets_consumed", _consumed_buckets_body), True, [[0, 0]])
    @settings(**{**SETTINGS, "max_examples": 150})
    def test_nested_bucket_generators_match_interpreter(
            self, body, outer_filter, rows):
        prog = build_nested(body[1], outer_filter)
        for p in (prog, optimize(prog)):
            run_nested(p, {"xs": rows})
            run_nested(p, {"xs": rows}, strip=7)

    def test_zero_trip_nests_finish_from_no_parts(self):
        # no lane has a trip: empty array / init / empty Buckets, and the
        # nested bodies' ops never enter op_counts
        for _, body in _NESTED_BUCKET_BODIES:
            run_nested(build_nested(body, False), {"xs": [[], [], []]})

    def test_long_float_group_fold_is_left_to_right(self):
        import random
        rng = random.Random(11)
        rows = [[rng.uniform(-1e3, 1e3) * 10 ** rng.randint(-6, 6)
                 for _ in range(rng.choice([600, 650, 1030]))]
                for _ in range(6)]
        prog = F.build(lambda xs: xs.map(lambda row: row.group_by_reduce(
            lambda x: x > 0.0, lambda x: x, _add)),
            [F.matrix_input("xs", True)])
        run_nested(prog, {"xs": rows})
        run_nested(prog, {"xs": rows}, strip=7)
        groups = [[x for x in r if (x > 0.0) == side]
                  for r in rows for side in (False, True)]
        assert all(len(g) >= 200 for g in groups)
        assert any(float(np.sum(g)) != sum(g[1:], g[0]) for g in groups)

    def test_long_float_fold_is_left_to_right(self):
        # a pairwise or reduceat fold of 100 doubles differs from the
        # sequential one in the last bits; the nested fold must not
        import random
        rng = random.Random(5)
        rows = [[rng.uniform(-1e3, 1e3) * 10 ** rng.randint(-6, 6)
                 for _ in range(rng.choice([64, 100, 257]))]
                for _ in range(9)]
        prog = F.build(lambda xs: xs.map(lambda row: row.sum()),
                       [F.matrix_input("xs", True)])
        run_nested(prog, {"xs": rows})
        run_nested(prog, {"xs": rows}, strip=7)
        assert any(float(np.sum(r)) != sum(r[1:], r[0]) for r in rows)

    @pytest.mark.parametrize("app,limit", [("gda", 500), ("gibbs", 100)])
    def test_dispatch_count_is_per_loop_not_per_trip(self, app, limit,
                                                     monkeypatch):
        calls = []
        eval_def = vectorize.LoopVectorizer.eval_def
        monkeypatch.setattr(
            vectorize.LoopVectorizer, "eval_def",
            lambda self, d, mask: (calls.append(1), eval_def(self, d, mask)))
        bundle = get_bundle(app)
        compiled = bundle.compiled("opt")
        _, _, fallbacks = run_program_numpy(
            compiled.program, compiled.prepare_inputs(bundle.inputs))
        assert fallbacks == []
        assert len(calls) <= limit

    @pytest.mark.parametrize("app", ["gda", "kmeans", "triangle"])
    def test_bundled_apps_across_strip_boundaries(self, app, monkeypatch):
        # (vs the default budgets, which TestBundledApps holds to the
        # interpreter: gda alone takes the interpreter two seconds)
        bundle = get_bundle(app)
        compiled = bundle.compiled("opt")
        inputs = compiled.prepare_inputs(bundle.inputs)
        whole = run_program_numpy(compiled.program, inputs)
        monkeypatch.setattr(vectorize, "STRIP_LANES", 50)
        monkeypatch.setattr(vectorize, "PRIM_ELEMS", 64)
        results, stats, fallbacks = run_program_numpy(compiled.program,
                                                      inputs)
        assert fallbacks == []
        assert repr(results) == repr(whole[0])
        assert_stats_equal(whole[1], stats)


class TestTypedOutcomes:
    def test_struct_rows_fall_back_with_a_readable_reason(self):
        # q1/plain gathers rows of structs: row_cache used to die inside
        # NumPy ("TypeError: NumPy boolean array indexing assignment ...")
        bundle = get_bundle("q1")
        compiled = bundle.compiled("plain")
        fallbacks = run_both(compiled.program,
                             compiled.prepare_inputs(bundle.inputs))
        assert not [f.reason for f in fallbacks
                    if f.reason.startswith("TypeError:")]


def _intersect_rows(values):
    """A row that repeats no value, or one that may repeat any."""
    return st.one_of(st.lists(values, max_size=8, unique=True),
                     st.lists(values, max_size=8))


# narrow values take the membership table, values near 2**40 (a span far
# past the table's budget) the run-length match
_intersect_pairs = st.sampled_from([st.integers(-5, 12), st.integers(
    (1 << 40) - 6, (1 << 40) + 6)]).flatmap(lambda values: st.lists(
        st.tuples(_intersect_rows(values), _intersect_rows(values)),
        max_size=10))


class TestBatchedIntersect:
    @given(_intersect_pairs)
    # empty, one-element and all-duplicate rows; a call with no elements
    @example([([], [4]), ([7], [7]), ([2, 2, 2], [2, 2]), ([], []),
              ([-5], [1, 1]), ([3, 3], [3])])
    @example([([], [])])
    # negative values; repeat-free calls beside calls that repeat values
    @example([([-9, -4, -1], [-4, -1, 0]), ([2], [2, 2]), ([1, 2], [2, 3]),
              ([-3, -3], [-3]), ([-7, 5], [-7, 5])])
    @settings(**SETTINGS)
    def test_matches_scalar_merge_on_sorted_multisets(self, pairs):
        spec = COLL_PRIMS["sorted_intersect_count"]
        pairs = [(sorted(a), sorted(b)) for a, b in pairs]

        def flat(rows):
            return (np.array([x for r in rows for x in r], dtype=np.int64),
                    np.array([len(r) for r in rows], dtype=np.int64))
        counts, cycles, reads = spec.batch_fn(
            *flat([a for a, _ in pairs]), *flat([b for _, b in pairs]))
        assert counts.tolist() == [spec.eval_fn(a, b) for a, b in pairs]
        costs = [spec.cost_fn(a, b) for a, b in pairs]
        assert cycles.tolist() == [c for c, _ in costs]
        assert reads == sum(r for _, r in costs)

    def test_unsorted_rows_keep_the_scalar_loop(self):
        spec = COLL_PRIMS["sorted_intersect_count"]
        one = np.array([1], dtype=np.int64)
        assert spec.batch_fn(np.array([3, 1, 2]), one * 3,
                             np.array([1, 2, 3]), one * 3) is None
        # ... and the backend then agrees with the interpreter's
        # order-dependent merge, stats included
        prog = F.build(
            lambda adj: adj.map_indices(lambda i: adj.map_reduce(
                lambda row: F.intersect_size(adj[i], row),
                lambda a, b: a + b)),
            [F.matrix_input("adj", True, elem=T.INT)])
        adj = [[3, 1, 2], [1, 2, 3], [], [2, 2, 3], [2, 3, 3, 9]]
        assert run_both(prog, {"adj": adj}) == []

    def test_tag_overflow_keeps_the_scalar_loop(self):
        # two calls spanning 2**62 values: call tags would overflow int64
        spec = COLL_PRIMS["sorted_intersect_count"]
        one = np.array([1, 1], dtype=np.int64)
        assert spec.batch_fn(np.array([-(1 << 61), 0]), one,
                             np.array([0, 1 << 61]), one) is None
        prog = F.build(
            lambda adj: adj.map_indices(lambda i: adj.map_reduce(
                lambda row: F.intersect_size(adj[i], row),
                lambda a, b: a + b)),
            [F.matrix_input("adj", True, elem=T.INT)])
        adj = [[-(1 << 61), 0], [0, 1 << 61], [], [5, 5, 1 << 61]]
        assert run_both(prog, {"adj": adj}) == []

    def test_repeats_and_wide_spans_take_the_run_length_match(
            self, monkeypatch):
        from repro.core import ops
        spec = COLL_PRIMS["sorted_intersect_count"]
        seen = []
        run_lengths = ops._run_lengths
        monkeypatch.setattr(ops, "_run_lengths", lambda keys: (
            seen.append(keys.tolist()), run_lengths(keys))[1])

        def count(pairs):
            seen.clear()
            flat = [np.array([x for r in rows for x in r], dtype=np.int64)
                    for rows in zip(*pairs)]
            lens = [np.array([len(r) for r in rows], dtype=np.int64)
                    for rows in zip(*pairs)]
            counts, _, _ = spec.batch_fn(flat[0], lens[0], flat[1], lens[1])
            assert counts.tolist() == [spec.eval_fn(a, b) for a, b in pairs]
            return seen[:]
        # repeat-free rows: the table alone
        assert count([([1, 2, 5], [2, 5, 6]), ([0, 3], [3, 4])]) == []
        # only the call whose b row repeats a value is matched by runs
        # (keys are call * span + value - lo: lo 1, span 6)
        assert count([([1, 2, 5], [2, 5, 6]), ([3, 3, 4], [3, 3])]) == [
            [8, 8, 9], [8, 8]]
        # a span past the table's budget: every call by runs
        wide = [([0, 1 << 40], [1 << 40]), ([2], [2])]
        assert len(count(wide)) == 2

    def test_triangle_across_strips_inside_rows(self, monkeypatch):
        # 7-element strips: almost every call is a strip, and a membership
        # table, of its own
        bundle = get_bundle("triangle")
        compiled = bundle.compiled("opt")
        inputs = compiled.prepare_inputs(bundle.inputs)
        monkeypatch.setattr(vectorize, "PRIM_ELEMS", 7)
        ref_results, ref_stats = run_program(compiled.program, inputs)
        results, stats, fallbacks = run_program_numpy(compiled.program,
                                                      inputs)
        assert fallbacks == []
        assert repr(results) == repr(ref_results)
        assert_stats_equal(ref_stats, stats)

    def test_triangle_counts_by_membership_over_flat_rows(self,
                                                          monkeypatch):
        # per run of triangle (opt): no binary search and no run-length
        # encoding in the evaluator, and no run decomposition in the gather
        from repro.core import ops
        calls, scope = collections.Counter(), []

        def counted(name, f):
            def wrapped(*a, **k):
                calls[scope[-1] if scope else None, name] += 1
                return f(*a, **k)
            return wrapped

        def scoped(name, f):
            def wrapped(*a, **k):
                calls[name] += 1
                scope.append(name)
                try:
                    return f(*a, **k)
                finally:
                    scope.pop()
            return wrapped
        spec = COLL_PRIMS["sorted_intersect_count"]
        monkeypatch.setitem(COLL_PRIMS, "sorted_intersect_count",
                            dataclasses.replace(
                                spec, batch_fn=scoped("evaluator",
                                                      spec.batch_fn),
                                eval_fn=scoped("scalar", spec.eval_fn)))
        monkeypatch.setattr(vectorize.LoopVectorizer, "_coll_prim_batched",
                            scoped("gather", vectorize.LoopVectorizer.
                                   _coll_prim_batched))
        monkeypatch.setattr(np, "searchsorted",
                            counted("searchsorted", np.searchsorted))
        monkeypatch.setattr(ops, "_run_lengths",
                            counted("_run_lengths", ops._run_lengths))
        monkeypatch.setattr(vectorize, "_runs",
                            counted("_runs", vectorize._runs))
        bundle = get_bundle("triangle")
        compiled = bundle.compiled("opt")
        _, _, fallbacks = run_program_numpy(
            compiled.program, compiled.prepare_inputs(bundle.inputs))
        assert fallbacks == []
        assert calls["gather"] > 0 and calls["evaluator"] > 0
        # no strip declined to the per-lane scalar merge
        assert calls["scalar"] == 0
        assert calls["evaluator", "searchsorted"] == 0
        assert calls["evaluator", "_run_lengths"] == 0
        assert calls["gather", "_runs"] == 0


# ---------------------------------------------------------------------------
# Elementwise reducers: zips of an associative prim fold as whole rows
# ---------------------------------------------------------------------------

def zip_reducer(elem, prim, depth):
    """``zipWith`` of ``prim`` nested ``depth`` times, built the way the
    interchange rules build it; returns (reducer, value type)."""
    from repro.transforms.interchange import _vectorized_reducer
    r = stage_block([elem, elem], lambda a, b: emit1(Prim(prim, (a, b))),
                    ["a", "b"])
    for _ in range(depth):
        r = _vectorized_reducer(elem, r)
        elem = T.Coll(elem)
    return r, elem


def _computed(x, depth):
    """``x`` copied through ``depth`` nested Collects: a value the
    vectorizer computes (a padded array), not a gather of host rows."""
    if not depth:
        return x
    body = stage_block([T.INT], lambda k: _computed(
        emit1(ArrayApply(x, k)), depth - 1), ["k"])
    (out,) = emit(MultiLoop(emit1(ArrayLength(x)), (collect(body),)))
    return out


def build_zip_program(elem, prim, depth):
    """Per group ``xs[i]``, the nested fold of its values by the zip
    reducer; for depth >= 1 also a top-level Reduce and BucketReduce (key
    ``i % 3``) of ``ys`` by it."""
    r, vt = zip_reducer(elem, prim, depth)

    def value(coll):
        return stage_block([T.INT], lambda j: _computed(
            emit1(ArrayApply(coll, j)), depth), ["j"])

    def fold_group(xs, i):
        row = emit1(ArrayApply(xs, i))
        (s,) = emit(MultiLoop(emit1(ArrayLength(row)),
                              (reduce_gen(value(row), r),)))
        return s

    def fn(xs_rep, ys_rep):
        xs, ys = F.unwrap(xs_rep), F.unwrap(ys_rep)
        (nested,) = emit(MultiLoop(emit1(ArrayLength(xs)), (collect(
            stage_block([T.INT], lambda i: fold_group(xs, i), ["i"])),)))
        if not depth:
            return F.wrap(nested)
        key = stage_block([T.INT], lambda i: emit1(Prim("mod", (i, Const(3)))),
                          ["i"])
        total, groups = emit(MultiLoop(emit1(ArrayLength(ys)), (
            reduce_gen(value(ys), r), bucket_reduce(key, value(ys), r))))
        return F.wrap(nested), F.wrap(total), F.wrap(groups)
    return F.build(fn, [F.InputSpec("xs", T.Coll(T.Coll(vt)), True),
                        F.InputSpec("ys", T.Coll(vt), True)])


_SCALARS = {
    T.INT: st.integers(-9, 9),
    # magnitudes far apart, so any other association order shows, and
    # both signed zeros, which min and max tell apart as Python's do
    T.DOUBLE: st.sampled_from([0.1, -0.3, 1e-9, 7.0, 1e12, -2.5e-4, 0.0,
                               -0.0, 3.3]),
    T.BOOL: st.booleans(),
}


@st.composite
def zip_cases(draw):
    """(elem, prim, depth, ragged, xs, ys). Groups hold 0..5 values, so
    empty and one-element runs occur. Ragged rows (depth 1, int/float) keep
    every fold well defined: a group's first row, which fixes the zip
    width, is its shortest."""
    elem = draw(st.sampled_from(list(_SCALARS)))
    prim = draw(st.sampled_from(["add", "mul", "min", "max"]))
    depth = draw(st.integers(0, 2))
    ragged = depth == 1 and elem is not T.BOOL and draw(st.booleans())
    width = draw(st.integers(0, 3))
    scalar = _SCALARS[elem]

    def values(n):
        out = []
        for k in range(n):
            w = width + (k and ragged and draw(st.integers(0, 2)))
            v = draw(st.lists(scalar, min_size=w, max_size=w)) \
                if depth else draw(scalar)
            if depth == 2:
                v = [draw(st.lists(scalar, min_size=2, max_size=2))
                     for _ in v]
            out.append(v)
        return out
    xs = [values(draw(st.integers(0, 5)))
          for _ in range(draw(st.integers(1, 6)))]
    ys = values(draw(st.integers(1, 8)))
    if ragged:  # every bucket's first value is one of ys[:3]
        ys = [y[:width] if i < 3 else y for i, y in enumerate(ys)]
    return elem, prim, depth, ragged, xs, ys


def _run_zip(prog, inputs, strip, exact):
    ref_results, ref_stats, ref_costs = run_with_costs(
        Interp(per_iter=True), prog, inputs)
    vec = NumpyInterp(per_iter=True)
    with pytest.MonkeyPatch.context() as mp:
        if strip is not None:
            mp.setattr(vectorize, "STRIP_LANES", strip)
        vec_results, vec_stats, vec_costs = run_with_costs(vec, prog, inputs)
    # ragged rows fold per step, at top level as nested
    assert vec.fallbacks == [], vec.fallbacks
    if exact:
        assert repr(ref_results) == repr(vec_results)
    else:  # bool add widens to int once a run combines: True == 1
        assert deep_eq(ref_results, vec_results, tol=0.0)
    assert_stats_equal(ref_stats, vec_stats)
    assert ref_costs == vec_costs


class TestElementwiseFold:
    @pytest.mark.parametrize("app,variant", [
        ("gda", "opt"), ("gda", "plain"), ("kmeans", "opt"),
        ("logreg", "opt")])
    def test_zip_reductions_are_bit_identical(self, app, variant):
        # these four reduce vectors at top level; the pairwise tree that
        # used to fold them was only within 1e-9 of the interpreter
        prog, inputs, ref_results, _ = reference_run(app, variant)
        vec_results, _, _ = run_program_numpy(prog, inputs)
        assert deep_eq(ref_results, vec_results, tol=0.0)
        assert repr(ref_results) == repr(vec_results)

    def test_kernel_charges_what_the_per_step_path_charges(self):
        # with no reducer recognized the kernel declines everywhere, so
        # every fold, nested or top-level, runs per step; stats, cost
        # streams and fallbacks must not tell them apart.
        def run(prog, inputs):
            interp = NumpyInterp(per_iter=True)
            res, stats, costs = run_with_costs(interp, prog, inputs)
            return res, stats, costs, [(f.loop, f.reason)
                                       for f in interp.fallbacks]
        for app in APPS:
            bundle = get_bundle(app)
            for variant in ("opt", "plain", "gpu"):
                compiled = bundle.compiled(variant)
                inputs = compiled.prepare_inputs(bundle.inputs)
                res, stats, costs, fbs = run(compiled.program, inputs)
                with pytest.MonkeyPatch.context() as mp:
                    mp.setattr(vectorize, "recognize_elementwise",
                               lambda block: None)
                    res0, stats0, costs0, fbs0 = run(compiled.program,
                                                     inputs)
                assert repr(res) == repr(res0)
                assert_stats_equal(stats0, stats)
                assert costs == costs0 and fbs == fbs0

    @given(zip_cases())
    # ragged rows at top level: 0.1 + 0.1 + 0.1 - 0.3 is 5.55e-17 left to
    # right, 2.78e-17 reassociated
    @example((T.DOUBLE, "add", 1, True, [[]],
              [[0.1], [0.1], [0.1], [-0.3, 0.1]]))
    @settings(**{**SETTINGS, "max_examples": 120})
    def test_zip_nests_match_interpreter(self, case):
        elem, prim, depth, _, xs, ys = case
        prog = build_zip_program(elem, prim, depth)
        exact = not (elem is T.BOOL and prim in ("add", "mul"))
        for strip in (None, 7):
            _run_zip(prog, {"xs": xs, "ys": ys}, strip, exact)

    def test_ragged_rows_take_the_per_step_path(self, monkeypatch):
        prog = build_zip_program(T.DOUBLE, "add", 1)
        xs = [[[0.1, 1e12], [1e-9, 7.0, 3.3]], [[2.0], [0.5, 9.0]]]
        ys = [[0.1, 0.2], [0.3, 0.4], [1.0, 2.0], [5.0, 6.0, 7.0]]
        kernel = vectorize.LoopVectorizer.fold_elementwise
        folded = []
        monkeypatch.setattr(
            vectorize.LoopVectorizer, "fold_elementwise",
            lambda self, *a: folded.append(kernel(self, *a)) or folded[-1])
        _run_zip(prog, {"xs": xs, "ys": ys}, None, True)
        assert None in folded  # the ragged nested fold declined

    def test_a_run_allocates_no_symbols(self):
        from repro.core import ir
        bundle = get_bundle("gda")
        compiled = bundle.compiled("opt")
        inputs = compiled.prepare_inputs(bundle.inputs)
        before = ir._next_id()
        run_program_numpy(compiled.program, inputs)
        assert ir._next_id() == before + 1

    def test_repeated_compiles_grow_no_module_state(self):
        import gc
        import sys
        from repro.apps.kmeans import kmeans_shared_program

        def sizes():
            gc.collect()
            out = {}
            for name, mod in list(sys.modules.items()):
                if not name.startswith("repro"):
                    continue
                for attr, v in list(vars(mod).items()):
                    if isinstance(v, (dict, list, set)):
                        out[name, attr] = len(v)
            return out
        inputs = get_bundle("kmeans").inputs

        def round_():
            compiled = compile_program(kmeans_shared_program(), "distributed")
            run_program_numpy(compiled.program,
                              compiled.prepare_inputs(inputs))
        round_()
        first = sizes()
        for _ in range(49):
            round_()
        grown = {k: (first.get(k), n) for k, n in sizes().items()
                 if n > first.get(k, n)}
        assert not grown


# ---------------------------------------------------------------------------
# A top-level loop: the one-segment case of the segmented lane axis
# ---------------------------------------------------------------------------

def _doubles(seed, n):
    """``n`` doubles of magnitudes far apart: any association order other
    than left to right shows in the last bits of a sum."""
    import random
    rng = random.Random(seed)
    return [rng.uniform(-1e3, 1e3) * 10 ** rng.randint(-6, 6)
            for _ in range(n)]


_NAN = float("nan")


class TestTopLevelLoops:
    def test_long_float_fold_is_left_to_right(self):
        xs = _doubles(7, 40_000)
        prog = F.build(lambda xs: xs.sum(), [F.vector_input("xs", True)])
        run_nested(prog, {"xs": xs})
        run_nested(prog, {"xs": xs}, strip=7)
        assert float(np.sum(xs)) != sum(xs[1:], xs[0])

    def test_long_float_group_fold_is_left_to_right(self):
        # q1's shape: a BucketReduce of four long, unequal groups
        xs = _doubles(13, 8_000)
        prog = F.build(lambda xs: xs.group_by_reduce(
            lambda x: x.to_int() % 4, lambda x: x, _add),
            [F.vector_input("xs", True)])
        run_nested(prog, {"xs": xs})
        run_nested(prog, {"xs": xs}, strip=7)
        groups = [[x for x in xs if int(x) % 4 == k] for k in range(4)]
        assert min(len(g) for g in groups) >= 1_000
        assert any(float(np.sum(g)) != sum(g[1:], g[0]) for g in groups)

    def test_non_associative_reducer_vectorizes(self):
        # a - b depends on the association order: folded in lock step, the
        # one segment goes left to right like the interpreter
        prog = F.build(lambda xs: xs.reduce(lambda a, b: a - b),
                       [F.vector_input("xs", True)])
        xs = _doubles(3, 300)
        run_nested(prog, {"xs": xs})
        run_nested(prog, {"xs": xs}, strip=7)

    def test_knn_compound_reducer_vectorizes(self):
        from repro.apps.knn import knn_program
        from repro.data.datasets import gaussian_clusters
        train, labels = gaussian_clusters(60, 4, k=3)
        inputs = {"train": train, "labels": labels, "query": train[0],
                  "radius": 8.0}
        compiled = compile_program(knn_program(), "distributed")
        run_nested(knn_program(), inputs)
        run_nested(compiled.program, compiled.prepare_inputs(inputs))

    @pytest.mark.parametrize("elem,rows", [
        (T.Struct("P", (("a", T.INT), ("b", T.DOUBLE))),
         [[(1, 2.0), (3, 4.0)], [], [(5, 6.0)]]),
        (T.Coll(T.INT), [[[1, 2], [3]], [], [[4]]])],
        ids=["structs", "rows"])
    def test_flatten_of_host_rows_vectorizes(self, elem, rows):
        # rows that pad into no matrix reach the host as their elements
        prog = F.build(lambda xs: xs.flat_map(lambda row: row),
                       [F.InputSpec("xs", T.Coll(T.Coll(elem)), True)])
        run_nested(prog, {"xs": rows})

    @pytest.mark.parametrize("where", ["top", "nested", "bucket"])
    @pytest.mark.parametrize("xs", [[1.0, _NAN, 2.0, 0.5], [0.0, -0.0, -0.0],
                                    [-0.0, 0.0]],
                             ids=["nan", "zeros", "signed_zeros"])
    @pytest.mark.parametrize("prim", [F.fmax, F.fmin], ids=["max", "min"])
    def test_min_max_follow_pythons_rule(self, prim, xs, where):
        # max(a, b) is b only if b > a: NaN sticks only as a first value,
        # and of equal zeros the first wins
        if where == "top":
            prog = F.build(lambda v: v.reduce(prim),
                           [F.vector_input("v", True)])
            inputs = {"v": xs}
        elif where == "nested":
            # four runs, so the row kernel goes in lock step
            prog = F.build(lambda m: m.map(lambda row: row.reduce(prim)),
                           [F.matrix_input("m", True)])
            inputs = {"m": [xs] * 4}
        else:
            prog = F.build(lambda v: v.group_by_reduce(
                lambda x: 0, lambda x: x, prim), [F.vector_input("v", True)])
            inputs = {"v": xs}
        run_nested(prog, inputs)
        with pytest.MonkeyPatch.context() as mp:  # per step, by VEC_PRIMS
            mp.setattr(vectorize, "recognize_elementwise", lambda block: None)
            run_nested(prog, inputs)

    @pytest.mark.parametrize("strip", [None, 500])
    def test_fold_calls_are_min_runs_steps_plus_chunks(self, strip,
                                                       monkeypatch):
        # q1/opt folds four long groups at top level: a call per run and
        # per further chunk, not one per step of the second-longest run
        calls = []
        for name, (step, run) in list(vectorize.FOLD_KERNELS.items()):
            monkeypatch.setitem(vectorize.FOLD_KERNELS, name, (
                lambda acc, x, out, step=step: (calls.append(1),
                                                step(acc, x, out=out)),
                lambda seq, run=run: (calls.append(1), run(seq))[1]))
        kernel = vectorize.LoopVectorizer.fold_elementwise
        folds = []

        def counted(self, reducer, vals, cnt):
            before = len(calls)
            out = kernel(self, reducer, vals, cnt)
            folds.append((cnt, len(calls) - before))
            return out
        monkeypatch.setattr(vectorize.LoopVectorizer, "fold_elementwise",
                            counted)
        if strip is not None:
            monkeypatch.setattr(vectorize, "STRIP_LANES", strip)
        chunk = vectorize.STRIP_LANES
        bundle = get_bundle("q1")
        compiled = bundle.compiled("opt")
        _, _, fallbacks = run_program_numpy(
            compiled.program, compiled.prepare_inputs(bundle.inputs))
        assert fallbacks == [] and len(folds) == 6
        for cnt, n in folds:
            runs, steps = len(cnt), int(cnt.max()) - 1
            assert runs == 4 and steps > 1000
            chunks = sum(-(-(int(c) - 1) // chunk) - 1 for c in cnt)
            assert n == min(runs, steps) + chunks
        assert chunks == (0 if strip is None else 4)

