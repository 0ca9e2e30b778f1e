"""Structural IR verifier.

Checks the well-formedness invariants every pass must preserve, so the
PassManager can catch a broken rewrite at the pass boundary that
introduced it instead of ten passes later in the interpreter:

- every ``Sym`` an op reads is in scope — defined by an earlier statement,
  bound as a block parameter, or listed as a program input;
- no ``Sym`` is defined twice anywhere in the program;
- a ``MultiLoop`` def binds exactly one output symbol per generator;
- block results reference in-scope symbols;
- op result arities match the number of bound symbols, and each op's
  ``result_types()`` is computable (which exercises the per-op type
  checks, e.g. field access on non-structs).

Violations raise :class:`IRVerificationError` with the offending
statement pretty-printed and the path of enclosing defs that leads to it.
"""

from __future__ import annotations

from typing import List, Optional, Set, Tuple

from .ir import Block, Def, Program, Sym
from .multiloop import MultiLoop


class IRVerificationError(Exception):
    """A structural invariant of the IR does not hold.

    ``offending`` is the statement (or block) where the violation was
    detected; ``path`` names the chain of enclosing defs.
    """

    def __init__(self, message: str, offending: Optional[Def] = None,
                 path: Tuple[str, ...] = ()):
        self.offending = offending
        self.path = path
        where = f" (in {' > '.join(path)})" if path else ""
        shown = f"\n  offending def: {offending!r}" if offending is not None else ""
        super().__init__(message + where + shown)


def _op_direct_syms(op) -> List[Sym]:
    return [e for e in op.inputs() if isinstance(e, Sym)]


class _Verifier:
    def __init__(self, prog: Program):
        self.prog = prog
        self.defined: Set[Sym] = set()

    def fail(self, message: str, offending: Optional[Def],
             path: Tuple[str, ...]) -> None:
        raise IRVerificationError(message, offending, path)

    def verify(self) -> None:
        scope: Set[Sym] = set(self.prog.inputs)
        self.verify_block(self.prog.body, scope, ("program",))

    def verify_block(self, block: Block, outer_scope: Set[Sym],
                     path: Tuple[str, ...]) -> None:
        scope = set(outer_scope)
        for p in block.params:
            if p in self.defined:
                self.fail(f"block parameter {p!r} shadows a defined symbol",
                          None, path)
            scope.add(p)
        for d in block.stmts:
            self.verify_def(d, scope, path)
            scope.update(d.syms)
        for r in block.results:
            if isinstance(r, Sym) and r not in scope:
                self.fail(f"block result references out-of-scope symbol {r!r}",
                          None, path)

    def verify_def(self, d: Def, scope: Set[Sym],
                   path: Tuple[str, ...]) -> None:
        op = d.op
        for s in _op_direct_syms(op):
            if s not in scope:
                self.fail(f"symbol {s!r} read before definition", d, path)
        if not d.syms:
            self.fail("statement binds no symbols", d, path)
        if isinstance(op, MultiLoop) and len(d.syms) != len(op.gens):
            self.fail(
                f"multiloop with {len(op.gens)} generator(s) binds "
                f"{len(d.syms)} symbol(s); must bind exactly one per "
                f"generator", d, path)
        try:
            n_results = len(op.result_types())
        except Exception as e:
            self.fail(f"op {op.op_name()} is ill-typed: {e}", d, path)
            return  # unreachable; fail raises
        if len(d.syms) != n_results:
            self.fail(
                f"op {op.op_name()} produces {n_results} result(s) but the "
                f"statement binds {len(d.syms)} symbol(s)", d, path)
        for s in d.syms:
            if s in self.defined:
                self.fail(f"symbol {s!r} is defined twice", d, path)
            self.defined.add(s)
        sub_path = path + (f"{'/'.join(map(repr, d.syms))} = {op.op_name()}",)
        # nested blocks see the enclosing scope as of *this* statement:
        # a generator body may not reference its own loop's outputs
        for b in op.blocks():
            self.verify_block(b, scope, sub_path)


def verify_program(prog: Program) -> None:
    """Raise :class:`IRVerificationError` if ``prog`` is ill-formed."""
    _Verifier(prog).verify()
