"""Pass management: named passes, per-pass verification and tracing, and
a differential (per-pass semantics bisection) mode.

Every phase of the compile pipeline runs through a :class:`PassManager`.
After each pass the manager optionally re-verifies the IR
(:mod:`repro.core.verify`) and optionally re-interprets the program on a
small canned input, comparing against the staged program's results — so a
semantics-breaking rewrite is attributed to the exact pass that
introduced it rather than discovered at the end of the pipeline. Each
pass run leaves a :class:`PassTrace` (wall time, statement and loop
counts before/after, rules applied), which is the single source of truth
for ``report.applied_rules``.

A pass that returned the program object it was given is at a fixpoint on
it; while the manager stays at that object, running the pass again is
replaced by replaying the decisions it emitted (DESIGN.md §6c).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from .core.ir import Program, iter_defs
from .core.multiloop import MultiLoop
from .core.verify import IRVerificationError, verify_program
from .obs import provenance


@dataclass
class PassTrace:
    """Observable record of one pass run (executed or replayed)."""

    name: str
    phase: str
    wall_ms: float
    stmts_before: int
    stmts_after: int
    loops_before: int
    loops_after: int
    #: rewrite-rule names this pass applied, in application order
    rules: List[str] = field(default_factory=list)
    #: rule applications / internal fixpoint rounds, when the pass has them
    iterations: int = 1

    @property
    def changed(self) -> bool:
        return (self.stmts_before != self.stmts_after
                or self.loops_before != self.loops_after
                or bool(self.rules))

    def row(self) -> str:
        delta = "" if not self.rules else " [" + ", ".join(self.rules) + "]"
        return (f"{self.phase:<12} {self.name:<18} "
                f"stmts {self.stmts_before:>3} -> {self.stmts_after:<3} "
                f"loops {self.loops_before:>2} -> {self.loops_after:<2} "
                f"{self.wall_ms:7.2f} ms{delta}")


@dataclass(frozen=True, eq=False)
class Pass:
    """A named rewrite: ``fn(program, rule_log) -> program``.

    Compared and hashed by identity: two passes of one name may close over
    different state (``partition_pass`` carries an out-parameter), so what
    the manager learns about one object says nothing about another."""

    name: str
    fn: Callable[[Program, List[str]], Program]


class PassSemanticsError(Exception):
    """Differential checking found the first pass that changed results."""

    def __init__(self, pass_name: str, phase: str, expected, got):
        self.pass_name = pass_name
        self.phase = phase
        self.expected = expected
        self.got = got
        super().__init__(
            f"pass {pass_name!r} (phase {phase!r}) changed program "
            f"semantics: expected {expected!r}, got {got!r}")


def program_counts(prog: Program) -> Tuple[int, int]:
    """(total statements, total multiloops) across all nesting levels."""
    stmts = loops = 0
    for d in iter_defs(prog.body, recursive=True):
        stmts += 1
        if isinstance(d.op, MultiLoop):
            loops += 1
    return stmts, loops


# ---------------------------------------------------------------------------
# Pass constructors
# ---------------------------------------------------------------------------

def function_pass(fn: Callable[[Program], Program],
                  name: Optional[str] = None) -> Pass:
    """Wrap a plain ``Program -> Program`` function."""
    pname = name or getattr(fn, "pass_name", fn.__name__)
    return Pass(pname, lambda prog, log: fn(prog))


def logging_pass(fn: Callable[..., Program],
                 name: Optional[str] = None) -> Pass:
    """Wrap a function with a ``log=`` rule-log keyword (e.g. aos_to_soa)."""
    pname = name or getattr(fn, "pass_name", fn.__name__)
    return Pass(pname, lambda prog, log: fn(prog, log=log))


def rule_pass(name: str, rules: Sequence) -> Pass:
    """Exhaustive application of Fig. 3 rewrite rules as one pass."""
    from .transforms import apply_rules_everywhere

    def fn(prog: Program, log: List[str]) -> Program:
        return apply_rules_everywhere(prog, tuple(rules), log=log)

    return Pass(name, fn)


def partition_pass(name: str, rules=None,
                   reports: Optional[list] = None) -> Pass:
    """Algorithm 1 partitioning (+ stencil-triggered rewrites) as a pass.

    The produced :class:`PartitionReport` is appended to ``reports``; the
    rules it applied go to the trace like any other pass's.
    """
    from .analysis.partitioning import partition_and_transform
    from .transforms import DISTRIBUTION_RULES

    def fn(prog: Program, log: List[str]) -> Program:
        p, rep = partition_and_transform(
            prog, rules=DISTRIBUTION_RULES if rules is None else rules)
        log.extend(rep.applied_rules)
        if reports is not None:
            reports.append(rep)
        return p

    return Pass(name, fn)


def standard_passes() -> Dict[str, Pass]:
    """The named generic optimizations (stable names, DESIGN.md §6c)."""
    from .optim.code_motion import code_motion
    from .optim.cse import cse
    from .optim.dce import dce
    from .optim.fusion import fuse_horizontal, fuse_vertical
    from .optim.length_rewrite import rewrite_lengths
    from .optim.soa import aos_to_soa
    out = {}
    for p in (function_pass(cse), function_pass(dce),
              function_pass(fuse_vertical), function_pass(fuse_horizontal),
              function_pass(rewrite_lengths), function_pass(code_motion),
              logging_pass(aos_to_soa)):
        out[p.name] = p
    return out


# ---------------------------------------------------------------------------
# The manager
# ---------------------------------------------------------------------------

class PassManager:
    """Runs passes; verifies, traces, and differentially checks each one.

    ``verify``
        re-run the structural IR verifier after every pass (cheap).
    ``differential_inputs``
        a dict of program inputs; when given, the program is interpreted
        after every pass and compared against the results of the program
        the manager first saw — turning the end-to-end
        ``interp(optimize(g)) == interp(g)`` property into a bisection
        tool that names the first semantics-breaking pass.
    """

    def __init__(self, verify: bool = False,
                 differential_inputs: Optional[Dict[str, object]] = None,
                 tol: float = 1e-9):
        self.verify = verify
        self.differential_inputs = differential_inputs
        self.tol = tol
        self.traces: List[PassTrace] = []
        self._reference: Optional[tuple] = None
        # facts about the one program object the manager is currently at
        # (under one ledger): its counts, and the passes known to be at a
        # fixpoint on it with the decisions each emitted getting there
        self._at: Optional[Program] = None
        self._led: Optional[provenance.DecisionLedger] = None
        self._counts: Tuple[int, int] = (0, 0)
        self._fixpoints: Dict[Pass, tuple] = {}

    # -- execution -------------------------------------------------------

    def run(self, prog: Program, passes: Sequence[Pass],
            phase: str = "") -> Program:
        for p in passes:
            prog = self.run_pass(prog, p, phase)
        return prog

    def _arrive(self, prog: Program, led) -> Tuple[int, int]:
        """Counts of ``prog``; a program object (or ledger) other than the
        current one drops what was known about the current one."""
        if prog is not self._at or led is not self._led:
            self._at, self._led = prog, led
            self._counts = program_counts(prog)
            self._fixpoints = {}
        return self._counts

    def run_pass(self, prog: Program, p: Pass, phase: str = "") -> Program:
        if self.differential_inputs is not None and self._reference is None:
            self._reference = self._interpret(prog)
        led = provenance.active()
        # decisions emitted during this pass carry its name/phase and
        # the ordinal of the IR snapshot they were taken on
        emitted = led.begin_pass(p.name, phase) if led is not None else []
        stmts_before, loops_before = self._arrive(prog, led)
        # Fixpoint rule (DESIGN.md §6c): ``p`` already ran on this very
        # object, returned it and logged no rule. The IR is immutable, so
        # running it again could only repeat itself: replay its decisions
        # (rejections fold into ledger counts) instead of its walk.
        fixpoint = self._fixpoints.get(p)
        log: List[str] = []
        new_prog = prog
        t0 = time.perf_counter()
        if fixpoint is None:
            new_prog = p.fn(prog, log)
        elif led is not None:
            led.replay(fixpoint)
        wall_ms = (time.perf_counter() - t0) * 1e3
        if fixpoint is None and new_prog is prog and not log:
            # a copy: the ledger keeps appending to ``emitted`` until the
            # next begin_pass, and only what *this run* emitted may replay
            self._fixpoints[p] = tuple(emitted)
        stmts_after, loops_after = self._arrive(new_prog, led)
        self.traces.append(PassTrace(
            name=p.name, phase=phase, wall_ms=wall_ms,
            stmts_before=stmts_before, stmts_after=stmts_after,
            loops_before=loops_before, loops_after=loops_after,
            rules=log, iterations=max(1, len(log))))
        if fixpoint is not None:
            return prog  # this object already passed the checks below
        if self.verify:
            try:
                verify_program(new_prog)
            except IRVerificationError as e:
                raise IRVerificationError(
                    f"IR broken after pass {p.name!r} (phase {phase!r}): {e}",
                    e.offending, e.path) from e
        if self.differential_inputs is not None:
            got = self._interpret(new_prog)
            from .core.values import deep_eq
            if not deep_eq(self._reference, got, tol=self.tol):
                raise PassSemanticsError(p.name, phase, self._reference, got)
        return new_prog

    def _interpret(self, prog: Program) -> tuple:
        from .core.interp import run_program
        from .optim.soa import soa_input_values
        inputs = soa_input_values(prog, dict(self.differential_inputs))
        results, _ = run_program(prog, inputs)
        return results

    # -- trace accessors -------------------------------------------------

    def applied_rules(self) -> List[str]:
        """All rewrite-rule applications, across every phase, in order."""
        return [r for t in self.traces for r in t.rules]


def trace_table(traces: Sequence[PassTrace]) -> str:
    """Human-readable per-pass table (the ``repro.tools --trace`` output)."""
    header = (f"{'phase':<12} {'pass':<18} {'stmts':<16} "
              f"{'loops':<12} {'time':>10}")
    return "\n".join([header] + [t.row() for t in traces])
