"""Staging context: accumulates IR statements while frontend code runs.

The frontend (``repro.frontend``) is a shallowly-embedded DSL: user code
manipulates ``Rep`` wrappers whose operators emit ``Def`` statements into
the innermost open scope. ``stage_block`` runs a Python function against
fresh parameter symbols to reify it as an IR ``Block`` — this is how every
generator function (condition / key / value / reduction) is captured.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Sequence, Tuple

from . import types as T
from .ir import Block, Def, Exp, Op, Program, Sym, fresh


class StagingError(Exception):
    """Raised when frontend code is used outside a staging scope."""


_scope_stack: List[List[Def]] = []


def open_scope() -> None:
    _scope_stack.append([])


def close_scope() -> List[Def]:
    if not _scope_stack:
        raise StagingError("no open staging scope")
    return _scope_stack.pop()


def emit_def(d: Def) -> None:
    if not _scope_stack:
        raise StagingError(
            "DMLL operations may only be used inside a staged program "
            "(see repro.frontend.stage)")
    _scope_stack[-1].append(d)


def emit(op: Op, names: Optional[Sequence[str]] = None) -> Tuple[Sym, ...]:
    tps = op.result_types()
    names = names or ["x"] * len(tps)
    syms = tuple(fresh(t, n) for t, n in zip(tps, names))
    emit_def(Def(syms, op))
    return syms


def emit1(op: Op, name: str = "x") -> Sym:
    return emit(op, [name])[0]


def stage_block(param_types: Sequence[T.Type], fn: Callable,
                param_names: Optional[Sequence[str]] = None,
                wrap: Optional[Callable[[Exp], object]] = None,
                unwrap: Optional[Callable[[object], Exp]] = None) -> Block:
    """Reify a Python function as an IR ``Block``.

    ``wrap``/``unwrap`` convert between raw expressions and the frontend's
    ``Rep`` wrappers; the defaults pass expressions through untouched.
    """
    wrap = wrap or (lambda e: e)
    unwrap = unwrap or _default_unwrap
    names = param_names or ["i"] * len(param_types)
    params = tuple(fresh(t, n) for t, n in zip(param_types, names))
    open_scope()
    try:
        result = fn(*(wrap(p) for p in params))
    except BaseException:
        close_scope()
        raise
    stmts = tuple(close_scope())
    results = _as_result_tuple(result, unwrap)
    return Block(params, stmts, results)


def _default_unwrap(x: object) -> Exp:
    if isinstance(x, Exp):
        return x
    raise StagingError(f"expected a staged expression, got {x!r}")


def _as_result_tuple(result, unwrap) -> Tuple[Exp, ...]:
    if isinstance(result, tuple):
        return tuple(unwrap(r) for r in result)
    return (unwrap(result),)


def build_program(fn: Callable, make_inputs: Callable[[], Sequence[object]],
                  unwrap: Optional[Callable[[object], Exp]] = None) -> Program:
    """Stage a whole program.

    ``make_inputs`` runs inside the fresh top-level scope and emits the
    ``InputSource`` defs (carrying partitioning annotations); ``fn`` is the
    user program over those inputs.
    """
    unwrap = unwrap or _default_unwrap
    open_scope()
    try:
        inputs = list(make_inputs())
        result = fn(*inputs)
    except BaseException:
        close_scope()
        raise
    stmts = tuple(close_scope())
    results = _as_result_tuple(result, unwrap)
    input_syms = tuple(unwrap(i) for i in inputs)
    for s in input_syms:
        if not isinstance(s, Sym):
            raise StagingError("program inputs must be symbols")
    return Program(input_syms, Block((), stmts, results))
