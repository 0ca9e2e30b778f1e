"""PassManager behaviors: tracing, the shared rule log (regression for the
dropped ``applied_log``), differential checking, DCE's program inputs
as live roots, and the three things that make a pass cost what it
changes (DESIGN.md §2, §6c): structure sharing, the per-block
``free_syms`` memo, and the fixpoint rule checked against a naive driver."""

import dataclasses
import itertools
from collections import Counter

import pytest
from hypothesis import given, settings

from repro import frontend as F
from repro.apps.kmeans import kmeans_grouped_program, kmeans_shared_program
from repro.core import run_program
from repro.core import types as T
from repro.core import ir
from repro.core.ir import (Block, Const, Def, Program, free_syms, fresh,
                           iter_defs, subst_block)
from repro.core.multiloop import MultiLoop, collect, reduce_gen
from repro.core.ops import ArrayApply, ArrayLength, InputSource, Prim
from repro.core.values import deep_eq
from repro.core.verify import IRVerificationError, verify_program
from repro.optim.dce import dce
from repro.obs.diagnostics import DiagCategory
from repro.obs.provenance import (DecisionKind, DecisionLedger, active,
                                  ledger_scope)
from repro.passes import (Pass, PassManager, PassSemanticsError, PassTrace,
                          function_pass, program_counts, rule_pass,
                          standard_passes, trace_table)
from repro.pipeline import CompiledProgram, compile_program, optimize
from repro.serve.cache import VARIANTS
from repro.transforms import GPU_RULES, GroupByReduce

from .test_backend import SETTINGS, build_pipeline, pipeline_strategy

MAT = [[1.0, 2.0], [8.0, 9.0], [1.2, 1.8], [7.5, 9.5], [0.8, 2.2]]
INPUTS = {"matrix": MAT, "clusters": MAT[:2]}


class TestTrace:
    def test_trace_lists_every_pass_with_counts(self):
        compiled = compile_program(kmeans_shared_program(), "distributed")
        assert len(compiled.trace) > 10
        for t in compiled.trace:
            assert t.name and t.phase
            assert t.stmts_before >= 0 and t.stmts_after >= 0
            assert t.loops_before >= 0 and t.loops_after >= 0
            assert t.wall_ms >= 0.0
        # the pipeline's named phases all appear
        phases = {t.phase for t in compiled.trace}
        assert {"soa", "opt-1", "opt-2", "partition", "finalize",
                "report"} <= phases

    def test_trace_table_renders(self):
        compiled = compile_program(kmeans_shared_program(), "distributed")
        table = trace_table(compiled.trace)
        assert "fuse-vertical" in table and "stmts" in table

    def test_program_counts(self):
        prog = kmeans_shared_program()
        stmts, loops = program_counts(prog)
        assert stmts > 0 and 0 < loops <= stmts


class TestSharedRuleLog:
    """Regression: ``compile_program`` used to drop ``applied_log`` in its
    second and final ``optimize()`` calls, so rules applied there never
    reached ``report.applied_rules``. All phases now log into one shared
    PassManager trace."""

    def test_grouped_kmeans_reports_every_rule_exactly_once(self):
        compiled = compile_program(kmeans_grouped_program(), "distributed")
        trace_rules = Counter(r for t in compiled.trace for r in t.rules)
        assert Counter(compiled.report.applied_rules) == trace_rules
        assert compiled.report.applied_rules.count("groupby-reduce") == 1

    def test_gpu_trace_includes_rules_from_every_phase(self):
        compiled = compile_program(kmeans_grouped_program(), "gpu")
        rules = compiled.report.applied_rules
        assert "groupby-reduce" in rules          # opt-1 phase
        assert "bucket-row-to-column-reduce" in rules  # gpu phase
        assert Counter(rules) == Counter(
            r for t in compiled.trace for r in t.rules)

    def test_later_optimize_phases_keep_logging(self):
        """The old bug: an ``optimize()`` call without ``applied_log``
        silently discarded its applications. Through a shared manager,
        every phase's applications land in the trace."""
        pm = PassManager()
        optimize(kmeans_grouped_program(), horizontal=False,
                 pm=pm, phase="first")
        optimize(kmeans_grouped_program(), horizontal=False,
                 pm=pm, phase="second")
        per_phase = Counter(t.phase for t in pm.traces if t.rules)
        assert per_phase["first"] == 1 and per_phase["second"] == 1
        assert pm.applied_rules().count("groupby-reduce") == 2


class TestVerifyKnob:
    def test_verifier_catches_broken_pass(self):
        breaker = Pass("break-ir", lambda prog, log: Program(
            prog.inputs,
            Block(prog.body.params, prog.body.stmts,
                  (fresh(T.INT, "dangling"),))))
        pm = PassManager(verify=True)
        with pytest.raises(IRVerificationError, match="break-ir"):
            pm.run_pass(kmeans_shared_program(), breaker, phase="x")

    def test_verify_off_lets_broken_ir_through(self):
        breaker = Pass("break-ir", lambda prog, log: Program(
            prog.inputs,
            Block(prog.body.params, prog.body.stmts,
                  (fresh(T.INT, "dangling"),))))
        pm = PassManager(verify=False)
        pm.run_pass(kmeans_shared_program(), breaker, phase="x")  # no raise


class TestDifferentialCheck:
    def test_clean_pipeline_passes(self):
        compiled = compile_program(kmeans_shared_program(), "distributed",
                                   differential_inputs=INPUTS)
        (out,), _ = run_program(compiled.program,
                                compiled.prepare_inputs(INPUTS))
        before, _ = run_program(kmeans_shared_program(), INPUTS)
        assert deep_eq((out,), before)

    def test_names_first_semantics_breaking_pass(self):
        def fn(xs):
            return xs.map(lambda x: x + 3).sum()
        prog = F.build(fn, [F.InputSpec("xs", T.Coll(T.INT), True)])

        def clobber(p, log):
            # semantically different but structurally valid: +3 -> +4
            def fx(xs):
                return xs.map(lambda x: x + 4).sum()
            return F.build(fx, [F.InputSpec("xs", T.Coll(T.INT), True)])

        pm = PassManager(verify=True,
                         differential_inputs={"xs": [1, 2, 3]})
        std = standard_passes()
        prog = pm.run_pass(prog, std["cse"], phase="ok")
        with pytest.raises(PassSemanticsError) as ei:
            pm.run_pass(prog, Pass("evil-rewrite", clobber), phase="bad")
        assert ei.value.pass_name == "evil-rewrite"
        assert ei.value.phase == "bad"


def _dead_input_program():
    """A program input bound by one generator of a two-output loop, where
    that generator (and the loop's size dependency) are otherwise dead."""
    n = fresh(T.INT, "n")
    size = Def((n,), Prim("add", (Const(2), Const(2))))
    i, j = fresh(T.INT, "i"), fresh(T.INT, "j")
    dead_gen = collect(Block((i,), (), (i,)))
    live_gen = collect(Block((j,), (), (j,)))
    dead_sym = fresh(T.Coll(T.INT), "dead_input")
    live_sym = fresh(T.Coll(T.INT), "live")
    loop = Def((dead_sym, live_sym), MultiLoop(n, (dead_gen, live_gen)))
    ln = fresh(T.INT, "ln")
    use = Def((ln,), ArrayLength(live_sym))
    body = Block((), (size, loop, use), (ln,))
    return Program((dead_sym,), body)


class TestDceInputReattachment:
    def test_single_sym_dead_input_kept(self):
        def fn(xs, ys):
            return xs.sum()
        prog = F.build(fn, [F.InputSpec("xs", T.Coll(T.INT), True),
                            F.InputSpec("ys", T.Coll(T.INT), False)])
        out = dce(prog)
        verify_program(out)
        defined = {s for d in out.body.stmts for s in d.syms}
        assert all(s in defined for s in out.inputs)

    def test_multi_sym_dead_input_reattached(self):
        prog = _dead_input_program()
        out = dce(prog)
        verify_program(out)
        defined = {s for d in out.body.stmts for s in d.syms}
        assert prog.inputs[0] in defined
        # the re-attached generator must not resurrect the live def twice
        assert sum(1 for d in out.body.stmts
                   for s in d.syms if s == prog.inputs[0]) == 1
        (r_before,), _ = run_program(prog, {})
        (r_after,), _ = run_program(out, {})
        assert r_before == r_after

    def test_dead_input_stays_in_its_loop(self):
        """An input is live from the start, so the loop that binds it
        keeps both of its generators, in one statement."""
        prog = _dead_input_program()
        out = dce(prog)
        loops = [d for d in out.body.stmts if isinstance(d.op, MultiLoop)]
        assert len(loops) == 1
        dead_sym, live_sym = prog.body.stmts[1].syms
        assert loops[0].syms == (dead_sym, live_sym)

    def test_entirely_dead_loop_input_with_deps(self):
        """The size dependency of the dead loop is resurrected too, in
        def-before-use order (the old code prepended single-sym defs only
        and would have produced ill-formed IR here)."""
        prog = _dead_input_program()
        # make *both* generators dead: result is a constant
        c = fresh(T.INT, "c")
        konst = Def((c,), Prim("add", (Const(1), Const(1))))
        body = Block((), prog.body.stmts[:2] + (konst,), (c,))
        prog2 = Program(prog.inputs, body)
        out = dce(prog2)
        verify_program(out)
        defined = {s for d in out.body.stmts for s in d.syms}
        assert prog2.inputs[0] in defined


class TestCompiledProgramSurface:
    def test_trace_field_defaults_empty(self):
        from repro.analysis.partitioning import PartitionReport
        cp = CompiledProgram(kmeans_shared_program(), PartitionReport())
        assert cp.trace == []

    def test_all_targets_expose_trace(self):
        for target in ("cpu", "distributed", "gpu"):
            compiled = compile_program(kmeans_shared_program(), target)
            names = [t.name for t in compiled.trace]
            assert "aos-to-soa" in names and "fuse-horizontal" in names


# ---------------------------------------------------------------------------
# A pass costs what it changes: sharing, the free_syms memo, the fixpoint rule
# ---------------------------------------------------------------------------

APPS = ["kmeans", "logreg", "gda", "q1", "gene", "pagerank", "triangle",
        "gibbs"]
SUITE = [(a, v) for a in APPS for v in VARIANTS]


def compile_variant(prog, variant):
    target, kwargs = VARIANTS[variant]
    return compile_program(prog, target, **kwargs)


@pytest.fixture(scope="module")
def suite():
    """The 24 compiled programs of the benchmark's ``compile_suite``."""
    from repro.bench import get_bundle
    return {(a, v): compile_variant(get_bundle(a)._factory(), v)
            for a, v in SUITE}


def all_blocks(block):
    yield block
    for d in iter_defs(block, recursive=True):
        yield from d.op.blocks()


class TestStructureSharing:
    def test_a_pass_returns_the_program_it_did_not_change(self, suite):
        passes = list(standard_passes().values()) + [
            rule_pass("groupby-reduce", (GroupByReduce(),)),
            rule_pass("gpu-rules", GPU_RULES)]
        for key, compiled in suite.items():
            x = compiled.program
            for p in passes:
                log = []
                out = p.fn(x, log)
                if log:   # a rule really fired (R2C on a CPU compile, ...)
                    assert out != x, (key, p.name)
                else:
                    assert out is x, (key, p.name)

    def test_empty_substitution_is_the_identity(self, suite):
        for compiled in suite.values():
            for b in all_blocks(compiled.program.body):
                assert subst_block(b, {}) is b
                # a substitution that touches nothing is the identity too
                assert subst_block(b, {fresh(T.INT): Const(0)}) is b

    def test_rewrite_keeps_untouched_siblings(self):
        # two independent loops; only the first has a dead statement
        def fn(xs):
            return F.pair(xs.map(lambda x: x + 1).sum(),
                          xs.map(lambda x: x * 2))
        prog = optimize(F.build(fn, [F.InputSpec("xs", T.Coll(T.INT),
                                                 True)]))
        dead = Def((fresh(T.INT, "dead"),), Prim("add", (Const(1), Const(2))))
        padded = Program(prog.inputs, Block(
            prog.body.params, prog.body.stmts + (dead,), prog.body.results))
        cleaned = dce(padded)
        assert cleaned is not padded and cleaned == prog
        for old, new in zip(prog.body.stmts, cleaned.body.stmts):
            assert new is old


class TestFreeSymsMemo:
    @staticmethod
    def from_scratch(block):
        """The uncached definition: reference order, one per reference."""
        bound = set(block.params)
        out = []
        for d in block.stmts:
            for e in d.op.inputs():
                if isinstance(e, ir.Sym) and e not in bound:
                    out.append(e)
            for b in d.op.blocks():
                out.extend(s for s in TestFreeSymsMemo.from_scratch(b)
                           if s not in bound)
            bound.update(d.syms)
        out.extend(r for r in block.results
                   if isinstance(r, ir.Sym) and r not in bound)
        return out

    def test_cached_answer_is_the_from_scratch_sequence(self, suite):
        cached = 0
        for compiled in suite.values():
            for b in all_blocks(compiled.program.body):
                cached += "_free_syms" in b.__dict__
                assert list(free_syms(b)) == self.from_scratch(b)
                assert free_syms(b) is free_syms(b)
        assert cached > 100   # the compiles left their answers on the nodes

    def test_cache_is_not_a_field(self):
        b = kmeans_shared_program().body
        twin = Block(b.params, b.stmts, b.results)
        before = (repr(b), hash(b))
        free_syms(b)
        assert (repr(b), hash(b)) == before and b == twin
        assert "_free_syms" not in dataclasses.replace(b).__dict__


def _naive_run_pass(self, prog, p, phase=""):
    """The driver without the fixpoint rule: every pass always runs."""
    if active() is not None:
        active().begin_pass(p.name, phase)
    log = []
    (s0, l0), new = program_counts(prog), p.fn(prog, log)
    s1, l1 = program_counts(new)
    self.traces.append(PassTrace(p.name, phase, 0.0, s0, s1, l0, l1, log,
                                 max(1, len(log))))
    return new


def observable(factory, variant, naive):
    """Everything a compile shows, with Sym ids restarted so that two
    compiles in one process are comparable byte for byte."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ir, "_sym_ids", itertools.count(1_000_000))
        if naive:
            mp.setattr(PassManager, "run_pass", _naive_run_pass)
        c = compile_variant(factory(), variant)
    rows = [dataclasses.replace(t, wall_ms=0.0) for t in c.trace]
    return (repr(c.program), c.provenance.to_json(), rows,
            c.report.applied_rules, c.warnings)


class TestFixpointRule:
    @pytest.mark.parametrize("app,variant", SUITE)
    def test_same_as_running_every_pass(self, app, variant):
        from repro.bench import get_bundle
        factory = get_bundle(app)._factory
        assert observable(factory, variant, naive=False) == \
            observable(factory, variant, naive=True)

    @given(pipeline_strategy)
    @settings(**SETTINGS)
    def test_same_as_running_every_pass_on_random_pipelines(self, spec):
        def factory():
            return build_pipeline(*spec)
        for variant in VARIANTS:
            assert observable(factory, variant, naive=False) == \
                observable(factory, variant, naive=True)

    def test_most_passes_are_replayed(self, suite):
        # a replayed row has the shape of any other unchanged row
        replay_like = [t for c in suite.values() for t in c.trace
                       if not t.changed]
        assert len(replay_like) > 800

    def test_replay_only_on_the_same_object_and_pass(self):
        calls = []

        def fn(prog, log):
            calls.append(prog)
            return prog
        p, q = Pass("noop", fn), Pass("noop", fn)
        a, b = kmeans_shared_program(), kmeans_shared_program()
        pm = PassManager()
        for prog, pas in ((a, p), (a, p), (a, q), (b, p), (a, p)):
            assert pm.run_pass(prog, pas) is prog
        # the second (a, p) is the only replay: q is another object, b
        # another program, and arriving at b dropped what was known of a
        assert [id(c) for c in calls] == [id(a), id(a), id(b), id(a)]
        assert len(pm.traces) == 5
        assert {(t.stmts_before, t.stmts_after) for t in pm.traces} == \
            {(program_counts(a)[0],) * 2}

    def test_replay_repeats_the_decisions_of_the_run(self):
        from repro.graph.optigraph import pagerank_pull_program
        led = DecisionLedger()
        prog = optimize(pagerank_pull_program(), horizontal=False)
        fv = standard_passes()["fuse-vertical"]
        with ledger_scope(led):
            pm = PassManager()
            pm.run(prog, [fv, fv, fv], phase="x")
        rejected = [d for d in led.decisions
                    if d.kind is DecisionKind.FUSION_VERTICAL]
        assert rejected and all(d.count == 3 for d in rejected)
        assert all((d.pass_name, d.snapshot) == ("fuse-vertical", 0)
                   for d in rejected)
        assert led.snapshot == 2

    def test_only_what_the_run_emitted_is_replayed(self):
        from repro.obs.provenance import REJECTED, emit
        p = Pass("noop", lambda prog, log: prog)
        prog = kmeans_shared_program()
        with ledger_scope(DecisionLedger()) as led:
            pm = PassManager()
            pm.run_pass(prog, p)
            # emitted between passes (compile_program's GPU diagnostics
            # are): lands in the ledger, belongs to no pass's replay
            emit(DecisionKind.TRANSFORM, "x1", REJECTED, "stray")
            pm.run_pass(prog, p)
        (stray,) = led.decisions
        assert stray.count == 1

    def test_a_logged_rule_is_never_a_fixpoint(self):
        runs = []

        def fn(prog, log):
            runs.append(1)
            log.append("claims-a-rule")
            return prog
        p = Pass("chatty", fn)
        prog = kmeans_shared_program()
        pm = PassManager()
        pm.run(prog, [p, p])
        assert len(runs) == 2

    def test_out_parameter_passes_still_run(self):
        staged = kmeans_shared_program()
        first = compile_program(staged, "distributed")
        second = compile_program(staged, "distributed")
        for c in (first, second):
            assert c.trace[-1].name == "partition-report"
            assert c.report.loops and c.report.layouts
        assert first.report is not second.report


class TestIterationCaps:
    """A rewrite loop that runs out of iterations says so (typed)."""

    @staticmethod
    def capped(led):
        return [d for d in led.decisions
                if d.kind is DecisionKind.DIAGNOSTIC
                and d.evidence.get("category")
                == DiagCategory.ITERATION_CAP.value]

    def test_fuse_vertical_cap(self):
        from repro.optim.fusion import fuse_vertical
        prog = kmeans_shared_program()
        with ledger_scope(DecisionLedger()) as led:
            fuse_vertical(prog, max_iters=1)
        (d,) = self.capped(led)
        assert d.evidence["pass"] == "fuse-vertical"
        assert d.evidence["cap"] == 1 and d.outcome == "warning"
        with ledger_scope(DecisionLedger()) as led:
            fuse_vertical(prog)
        assert not self.capped(led)

    def test_apply_rules_cap(self):
        from repro.transforms import apply_rules_everywhere
        prog = optimize(kmeans_grouped_program(), groupby_reduce=False)
        with ledger_scope(DecisionLedger()) as led:
            apply_rules_everywhere(prog, (GroupByReduce(),), max_iters=1)
        (d,) = self.capped(led)
        assert "groupby-reduce" in d.evidence["pass"]
        assert d.evidence["cap"] == 1
        with ledger_scope(DecisionLedger()) as led:
            apply_rules_everywhere(prog, (GroupByReduce(),))
        assert not self.capped(led)

    def test_partition_cap(self):
        from repro.analysis.partitioning import partition_and_transform
        from repro.apps.logreg import logreg_inputs

        def two_gradients(x, y, theta, alpha):
            rows, cols = x.length(), theta.length()

            def step(scale):
                return F.irange(cols).map(lambda j: theta[j] + scale * F.irange(
                    rows).sum(lambda i: x[i][j] * y[i]))
            return F.pair(step(alpha), step(alpha * 2.0))
        prog = optimize(F.build(two_gradients, logreg_inputs()),
                        horizontal=False)
        with ledger_scope(DecisionLedger()) as led:
            _, report = partition_and_transform(prog, max_rewrites=1)
        (d,) = self.capped(led)
        assert (d.evidence["pass"], d.evidence["cap"]) == ("partition", 1)
        assert report.applied_rules == ["column-to-row-reduce"]
        assert [g.category for g in report.diagnostics].count(
            DiagCategory.ITERATION_CAP) == 1
        with ledger_scope(DecisionLedger()) as led:
            _, report = partition_and_transform(prog)
        assert not self.capped(led)
        assert report.applied_rules == ["column-to-row-reduce"] * 2

    def test_bundled_apps_never_hit_a_cap(self, suite):
        for compiled in suite.values():
            assert not self.capped(compiled.provenance)
