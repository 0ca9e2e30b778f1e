"""The DMLL compiler driver.

Phase order (DESIGN.md §6)::

    staging -> CSE -> pipeline fusion -> length rewrites -> DCE
            -> code motion -> horizontal fusion -> DCE
            -> [distributed CPU] partitioning analysis (Alg. 1)
                 -> stencil-triggered Fig. 3 rewrites -> re-fuse
            -> [GPU] Row-to-Column Reduce (always, §3.2)

Every phase is a named ``Pass`` executed through a ``PassManager``
(``repro.passes``, DESIGN.md §6c): the manager verifies the IR after each
pass when asked, records a ``PassTrace`` per pass, and collects every
rewrite-rule application into one shared trace — ``report.applied_rules``
is derived from that trace, so no phase can silently drop one.

``compile_program`` returns a ``CompiledProgram`` bundling the optimized
IR with the partitioning/stencil report that the runtime executor
consumes, plus the pass trace.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from .analysis.partitioning import (DataLayout, PartitionReport,
                                    partition_and_transform)
from .analysis.stencil import LoopStencils, analyze_program
from .core import types as T
from .core.ir import Program
from .core.multiloop import GenKind, MultiLoop
from .obs.diagnostics import DiagCategory
from .obs.provenance import DecisionLedger, active, ledger_scope
from .optim.soa import soa_input_values
from .passes import (Pass, PassManager, PassTrace, partition_pass, rule_pass,
                     standard_passes)
from .transforms import GPU_RULES, GroupByReduce

#: default for the ``verify`` knob of ``optimize``/``compile_program``.
#: Off in production (verification costs a full IR walk per pass); the
#: test suite turns it on globally via ``tests/conftest.py`` so every
#: compile in CI checks every pass boundary.
DEFAULT_VERIFY = False

#: variant name -> (compile target, extra ``compile_program`` kwargs): the
#: three compiles a benchmark bundle and a served app exist in
VARIANTS: Dict[str, Tuple[str, Dict[str, Any]]] = {
    "opt": ("distributed", {}),
    "plain": ("distributed", {"apply_nested_transforms": False}),
    "gpu": ("gpu", {}),
}

_STD = standard_passes()
# The rule passes are singletons like ``_STD``: the PassManager recognises
# "this pass is at a fixpoint on this program" by Pass object identity.
_GROUPBY_REDUCE = rule_pass("groupby-reduce", (GroupByReduce(),))
_GPU_RULES = rule_pass("gpu-rules", GPU_RULES)


def optimize_passes(horizontal: bool = True,
                    groupby_reduce: bool = True,
                    fuse: bool = True) -> List[Pass]:
    """The target-independent optimization phase as a named pass list.

    Horizontal fusion is deferrable (``horizontal=False``) because the
    Fig. 3 rules match single-generator loops: transforms run on the
    vertically-fused program first, and the resulting bucket-reduces are
    then merged into one traversal — the Fig. 5 order of events.

    ``fuse=False`` drops both fusion passes entirely (the
    ``repro explain --explain-diff no-fusion`` ablation).

    GroupBy-Reduce runs here (not only on stencil triggers) because it is
    always profitable: Table 2 applies it even for sequential CPU code.
    """
    fv = [_STD["fuse-vertical"]] if fuse else []
    ps = [_STD["cse"], *fv, _STD["rewrite-lengths"],
          *fv, _STD["dce"], _STD["code-motion"],
          _STD["cse"], *fv]
    if groupby_reduce:
        ps += [_GROUPBY_REDUCE, *fv, _STD["dce"]]
    if horizontal and fuse:
        ps.append(_STD["fuse-horizontal"])
    ps.append(_STD["dce"])
    return ps


def optimize(prog: Program, horizontal: bool = True,
             groupby_reduce: bool = True,
             pm: Optional[PassManager] = None,
             phase: str = "optimize",
             fuse: bool = True) -> Program:
    """Run the target-independent optimization pipeline.

    When no ``pm`` is given a fresh PassManager is created (honoring
    ``DEFAULT_VERIFY``); passing one threads this phase into a larger
    shared trace.
    """
    if pm is None:
        pm = PassManager(verify=DEFAULT_VERIFY)
    return pm.run(prog, optimize_passes(horizontal, groupby_reduce, fuse),
                  phase)


@dataclass
class CompiledProgram:
    """An optimized program plus everything the runtime needs to place it."""

    program: Program
    report: PartitionReport
    stencils: Dict[int, LoopStencils] = field(default_factory=dict)
    target: str = "cpu"
    #: per-pass trace of the compilation (one entry per executed pass)
    trace: List[PassTrace] = field(default_factory=list)
    #: decision-provenance ledger of the compilation (DESIGN.md §8);
    #: rendered by ``repro explain``
    provenance: Optional[DecisionLedger] = None

    @property
    def warnings(self):
        return self.report.warnings

    @property
    def diagnostics(self):
        """Typed, loop-attributed events (repro.obs.diagnostics) behind the
        ``warnings`` string view."""
        return self.report.diagnostics

    def prepare_inputs(self, inputs: Dict[str, object]) -> Dict[str, object]:
        """Split AoS table inputs into the columns an SoA-transformed
        program expects."""
        return soa_input_values(self.program, inputs)

    def run(self, inputs: Dict[str, object], backend=None):
        """Execute on the selected backend, returning (results, stats).

        ``backend`` is resolved by ``repro.backend.resolve_backend``:
        explicit argument > ``REPRO_BACKEND`` env var > ``"numpy"``.
        The vectorized backend produces the reference interpreter's
        results and stats; any per-loop fallback it takes is recorded on
        the interpreter, not surfaced here (use ``capture_run`` for the
        full record)."""
        from .backend import engine
        interp = engine(backend)
        prepared = self.prepare_inputs(inputs)
        return interp.eval_program(self.program, prepared), interp.stats


def compile_program(prog: Program, target: str = "cpu",
                    apply_nested_transforms: bool = True,
                    verify: Optional[bool] = None,
                    differential_inputs: Optional[Dict[str, object]] = None,
                    fuse: bool = True) -> CompiledProgram:
    """Compile for ``target`` in {'cpu', 'distributed', 'gpu'}.

    ``apply_nested_transforms=False`` disables the Fig. 3 rewrites (used by
    the ablation benchmarks that measure their impact); ``fuse=False``
    disables vertical and horizontal fusion (the ``--explain-diff``
    ablation of ``repro explain``).

    ``verify`` re-runs the structural IR verifier after every pass
    (default: ``DEFAULT_VERIFY``). ``differential_inputs``, when given,
    additionally re-interprets the program on those inputs after every
    pass and raises ``PassSemanticsError`` naming the first pass whose
    output diverges from the staged program's results.

    Every compile records its decision provenance: if a ledger scope is
    already active (``repro explain`` shares one across compile + backend
    planning) decisions land there, otherwise a fresh ledger is created.
    Either way it is attached as ``CompiledProgram.provenance``.
    """
    nt = apply_nested_transforms
    pm = PassManager(verify=DEFAULT_VERIFY if verify is None else verify,
                     differential_inputs=differential_inputs)
    # NB: an empty ledger is falsy (len == 0), so test against None —
    # `active() or ...` would discard the explain CLI's shared ledger
    led = active()
    if led is None:
        led = DecisionLedger()
    with ledger_scope(led):
        # SoA runs twice: once on raw inputs, and once after fusion has
        # inlined struct elements that previously escaped through
        # filter/groupBy chains
        prog = pm.run_pass(prog, _STD["aos-to-soa"], phase="soa")
        prog = optimize(prog, horizontal=False, groupby_reduce=nt,
                        pm=pm, phase="opt-1", fuse=fuse)
        prog = pm.run_pass(prog, _STD["aos-to-soa"], phase="soa")
        prog = optimize(prog, horizontal=False, groupby_reduce=nt,
                        pm=pm, phase="opt-2", fuse=fuse)

        if target in ("distributed", "cpu") and nt:
            prog = pm.run_pass(prog, partition_pass("partition"),
                               phase="partition")
            prog = optimize(prog, horizontal=False, pm=pm, phase="re-fuse",
                            fuse=fuse)

        if target == "gpu" and nt:
            # distribute across the cluster first (C2R direction)...
            prog = pm.run_pass(prog, partition_pass("partition"),
                               phase="partition")
            # ...then invert for the device kernel (§3.2: always R2C on
            # GPUs). Code motion first (it exposes the loop-invariant
            # prefix that R2C's fission step materializes, e.g. LogReg's
            # per-sample error), but *no* fusion yet: the bucket keys must
            # stay plain reads of materialized values (the k-means
            # assignment vector) so the transposed per-column reductions
            # share them between kernels.
            prog = pm.run(prog, [_STD["code-motion"], _STD["cse"],
                                 _STD["dce"], _GPU_RULES],
                          phase="gpu")
            prog = optimize(prog, horizontal=False, pm=pm, phase="re-fuse",
                            fuse=fuse)

        # horizontal fusion merges the transformed traversals (Fig. 5)
        prog = optimize(prog, horizontal=True, groupby_reduce=nt,
                        pm=pm, phase="finalize", fuse=fuse)

        # final analysis-only pass for the report (no rewriting)
        reports: List[PartitionReport] = []
        prog = pm.run_pass(prog, partition_pass("partition-report", rules=(),
                                                reports=reports),
                           phase="report")
        report = reports[0]
        report.applied_rules = pm.applied_rules()
        if target == "gpu":
            _diagnose_gpu_vector_reduces(prog, report)
        stencils = analyze_program(prog)
    return CompiledProgram(prog, report, stencils, target, pm.traces, led)


def _diagnose_gpu_vector_reduces(prog: Program,
                                 report: PartitionReport) -> None:
    """Flag vector-typed reductions that survived the GPU pipeline — the
    CUDA backend emits them as slow global-memory reductions (§6:
    "reducing non-scalar types on a GPU is typically very inefficient").
    These used to exist only as ``// WARNING`` comments inside the
    generated kernel source; as diagnostics they carry the loop symbol
    and are visible without generating code."""
    for d in prog.body.stmts:
        if not isinstance(d.op, MultiLoop):
            continue
        for s, g in zip(d.syms, d.op.gens):
            if (g.kind in (GenKind.REDUCE, GenKind.BUCKET_REDUCE)
                    and isinstance(g.value.result_type,
                                   (T.Coll, T.KeyedColl))):
                report.diagnose(
                    DiagCategory.CUDA_VECTOR_REDUCE,
                    f"loop {d.syms[0]!r}: vector-typed reduction for "
                    f"{s!r}: temporaries exceed shared memory; expect "
                    f"poor performance (apply Row-to-Column Reduce, §3.2)",
                    loop=d.syms[0].name, sym=str(s), kind=g.kind.name)
