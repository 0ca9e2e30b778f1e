"""Direct unit tests for the static analyses: every stencil lattice case
(§4.2) and the Algorithm 1 partitioning dataflow (§4.1)."""

import pytest

from repro import frontend as F
from repro.analysis import (DataLayout, Stencil, analyze_program,
                            join_stencil, partition_and_transform)
from repro.core import types as T
from repro.core.ir import def_index
from repro.core.multiloop import MultiLoop
from repro.pipeline import optimize


def build(fn, specs):
    return optimize(F.build(fn, specs), horizontal=False)


def loop_stencils(prog):
    """{loop sym name: {coll name: stencil}} for all top-level loops."""
    per_loop = analyze_program(prog)
    out = {}
    for ls in per_loop.values():
        out[ls.loop_sym.name] = {s.name: v for s, v in ls.reads.items()}
    return out


V = [F.vector_input("xs", partitioned=True)]
M = [F.matrix_input("m", partitioned=True)]


class TestStencilLattice:
    def test_interval_from_loop_index(self):
        prog = build(lambda xs: xs.map(lambda x: x + 1.0), V)
        st = loop_stencils(prog)
        assert st["map"]["xs"] is Stencil.INTERVAL

    def test_interval_joined_with_const_is_all(self):
        # analyzed pre-code-motion: xs read both at the index and at 0;
        # the conservative join of Interval and Const is All (broadcast)
        prog = F.build(lambda xs: xs.map(lambda x: x + xs[0]), V)
        st = loop_stencils(prog)
        assert st["map"]["xs"] is Stencil.ALL

    def test_const_only(self):
        # pre-code-motion (the optimizer would hoist the invariant read —
        # also a correct way to "broadcast the element")
        def fn(xs, ys):
            return xs.map(lambda x: x + ys[3])
        prog = F.build(fn, V + [F.vector_input("ys", partitioned=True)])
        st = loop_stencils(prog)
        assert st["map"]["ys"] is Stencil.CONST

    def test_all_from_nested_full_scan(self):
        def fn(xs, ys):
            return xs.map(lambda x: x * ys.sum())
        prog = build(fn, V + [F.vector_input("ys", partitioned=True)])
        # after code motion the ys.sum() is hoisted; force the dependent case
        def fn2(xs, ys):
            return xs.map(lambda x: ys.map_reduce(lambda y: y * x,
                                                  lambda a, b: a + b))
        prog2 = build(fn2, V + [F.vector_input("ys", partitioned=True)])
        st = loop_stencils(prog2)
        assert st["map"]["ys"] is Stencil.ALL

    def test_unknown_from_data_dependent_index(self):
        def fn(xs, idxs):
            return idxs.map(lambda i: xs[i])
        prog = build(fn, V + [F.InputSpec("idxs", T.Coll(T.INT), True)])
        st = loop_stencils(prog)
        assert st["map"]["xs"] is Stencil.UNKNOWN
        assert st["map"]["idxs"] is Stencil.INTERVAL

    def test_join_lattice(self):
        I, C, A, U = (Stencil.INTERVAL, Stencil.CONST, Stencil.ALL,
                      Stencil.UNKNOWN)
        assert join_stencil(I, I) is I
        assert join_stencil(C, C) is C
        assert join_stencil(I, C) is A
        assert join_stencil(I, A) is A
        assert join_stencil(A, U) is U
        assert join_stencil(I, U) is U


class TestPartitioning:
    def test_annotations_respected(self):
        def fn(xs, ys):
            return xs.sum() + ys.sum()
        prog = build(fn, [F.vector_input("xs", partitioned=True),
                          F.vector_input("ys", partitioned=False)])
        _, rep = partition_and_transform(prog, rules=())
        xs, ys = prog.inputs
        assert rep.layout(xs) is DataLayout.PARTITIONED
        assert rep.layout(ys) is DataLayout.LOCAL

    def test_collect_of_partitioned_is_partitioned(self):
        prog = build(lambda xs: xs.map(lambda x: x * 2.0), V)
        prog2, rep = partition_and_transform(prog, rules=())
        out_sym = prog2.body.results[0]
        assert rep.layout(out_sym) is DataLayout.PARTITIONED

    def test_reduce_of_partitioned_is_local(self):
        prog = build(lambda xs: xs.sum(), V)
        prog2, rep = partition_and_transform(prog, rules=())
        out_sym = prog2.body.results[0]
        assert rep.layout(out_sym) is DataLayout.LOCAL

    def test_local_only_loop_stays_local(self):
        def fn(xs, ys):
            return ys.map(lambda y: y + 1.0)
        prog = build(fn, [F.vector_input("xs", partitioned=True),
                          F.vector_input("ys", partitioned=False)])
        prog2, rep = partition_and_transform(prog, rules=())
        assert rep.layout(prog2.body.results[0]) is DataLayout.LOCAL

    def test_unknown_access_warns_without_rules(self):
        def fn(xs, idxs):
            return idxs.map(lambda i: xs[i]).sum()
        prog = build(fn, V + [F.InputSpec("idxs", T.Coll(T.INT), True)])
        _, rep = partition_and_transform(prog, rules=())
        assert any("falling back" in w for w in rep.warnings)

    def test_sequential_consumption_warns(self):
        from repro.core.ops import CollPrim
        def fn(xs, ys):
            # a top-level collection primitive consumes partitioned data
            return F.contains(xs, 3.0)
        prog = F.build(fn, [F.vector_input("xs", partitioned=True),
                            F.vector_input("ys", partitioned=False)])
        _, rep = partition_and_transform(prog, rules=())
        assert any("single location" in w for w in rep.warnings)

    def test_whitelist_allows_length(self):
        prog = F.build(lambda xs: xs.length(), V)
        _, rep = partition_and_transform(prog, rules=())
        assert rep.warnings == []

    def test_const_element_read_allowed(self):
        """x(0) at top level broadcasts one element (Const stencil)."""
        def fn(m):
            return m[0].length()
        prog = F.build(fn, M)
        _, rep = partition_and_transform(prog, rules=())
        assert rep.warnings == []

    def test_co_partitioning_detected(self):
        def fn(xs, ys):
            return xs.zip_with(ys, lambda a, b: a * b).sum()
        prog = build(fn, [F.vector_input("xs", partitioned=True),
                          F.vector_input("ys", partitioned=True)])
        _, rep = partition_and_transform(prog, rules=())
        infos = [i for i in rep.loops.values() if i.co_partitioned]
        assert infos and len(infos[0].co_partitioned) == 2

    def test_broadcast_recorded(self):
        # pre-code-motion so the Const read of theta stays in the loop
        def fn(xs, theta):
            return xs.map(lambda x: x * theta[0])
        prog = F.build(fn, [F.vector_input("xs", partitioned=True),
                            F.vector_input("theta", partitioned=True)])
        _, rep = partition_and_transform(prog, rules=())
        infos = [i for i in rep.loops.values() if i.broadcasts]
        assert infos  # theta is Const-read -> broadcast one element
