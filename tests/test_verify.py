"""The structural IR verifier: accepts every well-formed program the
compiler produces (staged, every PassManager intermediate, final, for all
three targets) and rejects deliberately corrupted programs."""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import frontend as F
from repro.core import types as T
from repro.core.ir import Block, Const, Def, Program, fresh
from repro.core.multiloop import MultiLoop, collect, loop_def
from repro.core.ops import InputSource, Prim
from repro.core.verify import IRVerificationError, verify_program
from repro.pipeline import compile_program
from repro.apps import PROGRAMS

SETTINGS = dict(max_examples=15, deadline=None,
                suppress_health_check=[HealthCheck.too_slow])

_OPS = [
    lambda r: r.map(lambda x: x + 3),
    lambda r: r.map(lambda x: x * 2),
    lambda r: r.filter(lambda x: x % 2 == 0),
    lambda r: r.filter(lambda x: x > 0),
]

_SINKS = [
    lambda r: r.sum(),
    lambda r: r.count(),
    lambda r: r,
    lambda r: r.group_by_reduce(lambda x: x % 3, lambda x: x,
                                lambda a, b: a + b),
]

pipeline_strategy = st.tuples(
    st.lists(st.sampled_from(_OPS), min_size=0, max_size=4),
    st.sampled_from(_SINKS))


def build_pipeline(spec):
    ops, sink = spec

    def fn(xs):
        r = xs
        for op in ops:
            r = op(r)
        return sink(r)

    return F.build(fn, [F.InputSpec("xs", T.Coll(T.INT), True)])


class TestAcceptsCompilerOutput:
    @pytest.mark.parametrize("app", sorted(PROGRAMS))
    def test_staged_apps_verify(self, app):
        verify_program(PROGRAMS[app]())

    @pytest.mark.parametrize("app", sorted(PROGRAMS))
    @pytest.mark.parametrize("target", ["cpu", "distributed", "gpu"])
    def test_every_pass_boundary_verifies(self, app, target):
        """verify=True re-checks the IR after *every* pass; a failure
        anywhere in the pipeline raises from inside the PassManager."""
        compiled = compile_program(PROGRAMS[app](), target, verify=True)
        verify_program(compiled.program)
        assert compiled.trace, "PassManager produced no trace"

    @given(pipeline_strategy, st.sampled_from(["cpu", "distributed", "gpu"]))
    @settings(**SETTINGS)
    def test_random_pipelines_verify_at_every_pass(self, spec, target):
        prog = build_pipeline(spec)
        verify_program(prog)
        compiled = compile_program(prog, target, verify=True)
        verify_program(compiled.program)


def _int_input(name="xs"):
    s = fresh(T.Coll(T.INT), name)
    return s, Def((s,), InputSource(T.Coll(T.INT), name, True))


class TestRejectsCorruptPrograms:
    def test_duplicate_def(self):
        s, d = _int_input()
        prog = Program((s,), Block((), (d, d), (s,)))
        with pytest.raises(IRVerificationError, match="defined twice"):
            verify_program(prog)

    def test_undefined_sym(self):
        s, d = _int_input()
        ghost = fresh(T.INT, "ghost")
        out = fresh(T.INT, "out")
        bad = Def((out,), Prim("add", (ghost, Const(1))))
        prog = Program((s,), Block((), (d, bad), (out,)))
        with pytest.raises(IRVerificationError, match="read before definition"):
            verify_program(prog)

    def test_dangling_result(self):
        s, d = _int_input()
        prog = Program((s,), Block((), (d,), (fresh(T.INT, "dangling"),)))
        with pytest.raises(IRVerificationError, match="out-of-scope"):
            verify_program(prog)

    def test_multiloop_sym_arity(self):
        s, d = _int_input()
        i = fresh(T.INT, "i")
        j = fresh(T.INT, "j")
        two_gen = MultiLoop(Const(3), (collect(Block((i,), (), (i,))),
                                       collect(Block((j,), (), (j,)))))
        only_one = fresh(T.Coll(T.INT), "l")
        prog = Program((s,), Block((), (d, Def((only_one,), two_gen)),
                                   (only_one,)))
        with pytest.raises(IRVerificationError, match="generator"):
            verify_program(prog)

    def test_nested_block_reads_undefined(self):
        s, d = _int_input()
        ghost = fresh(T.INT, "ghost")
        i = fresh(T.INT, "i")
        v = fresh(T.INT, "v")
        body = Block((i,), (Def((v,), Prim("add", (i, ghost))),), (v,))
        ld = loop_def(Const(3), [collect(body)])
        prog = Program((s,), Block((), (d, ld), (ld.syms[0],)))
        with pytest.raises(IRVerificationError, match="read before definition"):
            verify_program(prog)

    def test_generator_body_cannot_read_own_loop_output(self):
        """A generator block sees the scope *before* its loop's outputs."""
        s, d = _int_input()
        i = fresh(T.INT, "i")
        out = fresh(T.Coll(T.INT), "l")
        v = fresh(T.INT, "v")
        from repro.core.ops import ArrayApply
        body = Block((i,), (Def((v,), ArrayApply(out, i)),), (v,))
        loop = MultiLoop(Const(3), (collect(body),))
        prog = Program((s,), Block((), (d, Def((out,), loop)), (out,)))
        with pytest.raises(IRVerificationError, match="read before definition"):
            verify_program(prog)

    @given(pipeline_strategy, st.integers(min_value=0, max_value=2))
    @settings(**SETTINGS)
    def test_random_corruptions_rejected(self, spec, mode):
        prog = build_pipeline(spec)
        stmts = prog.body.stmts
        if mode == 0:    # duplicate an existing def
            bad = Block(prog.body.params, stmts + (stmts[0],),
                        prog.body.results)
        elif mode == 1:  # read a symbol that is never defined
            out = fresh(T.INT, "out")
            bad = Block(prog.body.params,
                        stmts + (Def((out,), Prim(
                            "add", (fresh(T.INT, "ghost"), Const(1)))),),
                        prog.body.results)
        else:            # dangle the program result
            bad = Block(prog.body.params, stmts,
                        (fresh(T.INT, "dangling"),))
        with pytest.raises(IRVerificationError):
            verify_program(Program(prog.inputs, bad))
