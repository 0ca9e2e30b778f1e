"""Property-based tests (hypothesis): compiler invariants on randomized
programs and data.

The central invariant is semantic preservation: for any program built from
random pipelines of parallel patterns and any input data,
``interp(compile(p)) == interp(p)``. Plus structural invariants of the
runtime data structures (directories, buckets) and the cost model.
"""

import dataclasses

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import frontend as F
from repro.core import run_program
from repro.core import types as T
from repro.core.values import Buckets, deep_eq
from repro.optim import cse, dce, fuse_horizontal, fuse_vertical
from repro.pipeline import compile_program, optimize
from repro.runtime import Directory

SETTINGS = dict(max_examples=40, deadline=None,
                suppress_health_check=[HealthCheck.too_slow])

ints_data = st.lists(st.integers(min_value=-50, max_value=50),
                     min_size=0, max_size=30)
pos_ints = st.lists(st.integers(min_value=0, max_value=60),
                    min_size=1, max_size=30)


# ---------------------------------------------------------------------------
# Random pipeline programs
# ---------------------------------------------------------------------------

#: each op is (name, how it extends a staged pipeline)
_OPS = [
    ("map_add", lambda r: r.map(lambda x: x + 3)),
    ("map_mul", lambda r: r.map(lambda x: x * 2)),
    ("filter_even", lambda r: r.filter(lambda x: x % 2 == 0)),
    ("filter_pos", lambda r: r.filter(lambda x: x > 0)),
    ("map_abs", lambda r: r.map(lambda x: abs(x))),
]

_SINKS = [
    ("sum", lambda r: r.sum()),
    ("count", lambda r: r.count()),
    ("collect", lambda r: r),
    ("group_sum", lambda r: r.group_by_reduce(lambda x: x % 3, lambda x: x,
                                              lambda a, b: a + b)),
    ("group_by", lambda r: r.group_by(lambda x: x % 2)),
]

pipeline_strategy = st.tuples(
    st.lists(st.sampled_from(_OPS), min_size=0, max_size=4),
    st.sampled_from(_SINKS))


def build_pipeline(ops, sink):
    def fn(xs):
        r = xs
        for _, op in ops:
            r = op(r)
        return sink[1](r)
    return F.build(fn, [F.InputSpec("xs", T.Coll(T.INT), True)])


class TestSemanticPreservation:
    @given(pipeline_strategy, ints_data)
    @settings(**SETTINGS)
    def test_optimize_preserves_pipelines(self, spec, data):
        ops, sink = spec
        prog = build_pipeline(ops, sink)
        before, _ = run_program(prog, {"xs": data})
        after, _ = run_program(optimize(prog), {"xs": data})
        assert deep_eq(before, after)

    @given(pipeline_strategy, ints_data)
    @settings(**SETTINGS)
    def test_full_distributed_compile_preserves_pipelines(self, spec, data):
        ops, sink = spec
        prog = build_pipeline(ops, sink)
        before, _ = run_program(prog, {"xs": data})
        compiled = compile_program(prog, "distributed")
        after, _ = compiled.run({"xs": data})
        assert deep_eq(before, after)

    @given(st.lists(st.sampled_from(_OPS), min_size=1, max_size=3),
           ints_data, ints_data)
    @settings(**SETTINGS)
    def test_two_input_programs(self, ops, xs, ys):
        def fn(a, b):
            r = a
            for _, op in ops:
                r = op(r)
            return r.sum() + b.sum()
        prog = F.build(fn, [F.InputSpec("xs", T.Coll(T.INT), True),
                            F.InputSpec("ys", T.Coll(T.INT), False)])
        inputs = {"xs": xs, "ys": ys}
        before, _ = run_program(prog, inputs)
        after, _ = run_program(optimize(prog), inputs)
        assert deep_eq(before, after)

    @given(st.lists(st.lists(st.floats(min_value=-10, max_value=10,
                                       allow_nan=False),
                             min_size=3, max_size=3),
                    min_size=1, max_size=12))
    @settings(**SETTINGS)
    def test_interchange_preserves_row_sums(self, rows):
        """Column-to-Row / Row-to-Column reversibility on real matrices."""
        from repro.transforms import ColumnToRowReduce, RowToColumnReduce
        from repro.transforms.common import apply_rule_once
        from repro.core.ir import Program

        def fn(m):
            return F.irange(3).map(
                lambda j: m.map_reduce(lambda r: r[j], lambda a, b: a + b))
        prog = optimize(F.build(fn, [F.matrix_input("m", True)]),
                        horizontal=False)
        before, _ = run_program(prog, {"m": rows})
        b1 = apply_rule_once(prog.body, ColumnToRowReduce())
        assert b1 is not None
        c2r = dce(Program(prog.inputs, b1))
        mid, _ = run_program(c2r, {"m": rows})
        b2 = apply_rule_once(c2r.body, RowToColumnReduce())
        assert b2 is not None
        back, _ = run_program(dce(Program(c2r.inputs, b2)), {"m": rows})
        assert deep_eq(before, mid, tol=1e-6)
        assert deep_eq(mid, back, tol=1e-6)


class TestOptimizationInvariants:
    @given(pipeline_strategy, ints_data)
    @settings(**SETTINGS)
    def test_fusion_never_increases_loop_count(self, spec, data):
        from repro.core.multiloop import MultiLoop
        ops, sink = spec
        prog = build_pipeline(ops, sink)
        n_before = sum(1 for d in prog.body.stmts
                       if isinstance(d.op, MultiLoop))
        opt = dce(fuse_horizontal(fuse_vertical(cse(prog))))
        n_after = sum(1 for d in opt.body.stmts
                      if isinstance(d.op, MultiLoop))
        assert n_after <= n_before

    @given(pipeline_strategy)
    @settings(**SETTINGS)
    def test_compile_is_idempotent_on_results(self, spec):
        ops, sink = spec
        data = list(range(-5, 15))
        prog = build_pipeline(ops, sink)
        once_ = optimize(prog)
        twice = optimize(once_)
        a, _ = run_program(once_, {"xs": data})
        b, _ = run_program(twice, {"xs": data})
        assert deep_eq(a, b)


class TestRuntimeInvariants:
    @given(st.integers(min_value=0, max_value=2000),
           st.integers(min_value=1, max_value=64))
    @settings(**SETTINGS)
    def test_directory_partitions_exactly(self, length, parts):
        d = Directory.even(length, parts)
        ranges = [d.range_of(p) for p in range(d.num_partitions)]
        # ranges are contiguous, ordered, and cover [0, length) exactly
        assert ranges[0][0] == 0
        assert ranges[-1][1] == length
        for (a0, a1), (b0, b1) in zip(ranges, ranges[1:]):
            assert a1 == b0
        total = sum(hi - lo for lo, hi in ranges)
        assert total == length

    @given(st.lists(st.tuples(st.integers(0, 5), st.integers(-9, 9)),
                    min_size=0, max_size=40))
    @settings(**SETTINGS)
    def test_buckets_match_dict_semantics(self, pairs):
        b = Buckets(default=0)
        expect = {}
        order = []
        for k, v in pairs:
            pos = b.get_or_create(k, 0)
            b.values[pos] += v
            if k not in expect:
                order.append(k)
            expect[k] = expect.get(k, 0) + v
        assert dict(b.items()) == expect
        assert b.keys == order          # first-seen order
        for k in expect:
            assert b.lookup(k) == expect[k]
        assert b.lookup(999) == 0


#: the bundled apps, captured once each for the cost-model invariants
APPS = ("kmeans", "logreg", "gda", "q1", "gene", "pagerank", "triangle",
        "gibbs")


class TestCostModelInvariants:
    @given(st.integers(min_value=2, max_value=8))
    @settings(max_examples=5, deadline=None)
    def test_scale_is_monotone(self, factor):
        """Doubling the modeled dataset never makes simulated time smaller."""
        from repro.apps.kmeans import kmeans_shared_program
        from repro.data.datasets import gaussian_clusters
        from repro.runtime import (DMLL_CPP, NUMA_BOX, ExecOptions,
                                   Simulator, capture_run)
        matrix, _ = gaussian_clusters(60, 4, k=3)
        compiled = compile_program(kmeans_shared_program(), "distributed")
        cap = capture_run(compiled, {"matrix": matrix,
                                     "clusters": matrix[:3]})
        t1 = Simulator(compiled, NUMA_BOX, DMLL_CPP,
                       ExecOptions(scale=100.0)).price(cap).total_seconds
        t2 = Simulator(compiled, NUMA_BOX, DMLL_CPP,
                       ExecOptions(scale=100.0 * factor)).price(cap).total_seconds
        assert t2 >= t1

    @pytest.fixture(scope="class")
    def captures(self):
        from repro.bench import get_bundle
        # the numpy engine given explicitly: captures are identical on
        # both engines, and this one keeps the reference CI leg fast
        return [(b, b.capture("opt", backend="numpy"))
                for b in map(get_bundle, APPS)]

    @pytest.mark.parametrize("field", ["mem_bandwidth_gbs", "core_rate_gops"])
    @pytest.mark.parametrize("k", [1.5, 2.0, 4.0])
    def test_faster_sockets_are_never_slower(self, captures, field, k):
        """Scaling a socket's bandwidth or core rate up never raises
        simulated time. (More cores can: the runtime's serial dispatch term
        grows with the worker count — a modelled cost, not asserted.)"""
        from repro.runtime import DMLL_CPP, NUMA_BOX, ExecOptions, Simulator
        sock = NUMA_BOX.node.socket
        faster = dataclasses.replace(NUMA_BOX, node=dataclasses.replace(
            NUMA_BOX.node, socket=dataclasses.replace(
                sock, **{field: getattr(sock, field) * k})))
        for bundle, cap in captures:
            opts = ExecOptions(scale=bundle.scale,
                               data_scale=bundle.data_scale)
            base, fast = (Simulator(cap.compiled, cluster, DMLL_CPP, opts)
                          .price(cap).total_seconds
                          for cluster in (NUMA_BOX, faster))
            assert fast <= base, (bundle.name, field, k)
