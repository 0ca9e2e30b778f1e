"""Pretty printer for DMLL IR — indispensable for debugging rewrites."""

from __future__ import annotations

from typing import List

from .ir import Block, Const, Def, Exp, Program, Sym
from .multiloop import Generator, MultiLoop
from .ops import IfThenElse


def fmt_exp(e: Exp) -> str:
    if isinstance(e, Const):
        return repr(e.value)
    if isinstance(e, Sym):
        return f"{e.name}{e.id}"
    return repr(e)


def _fmt_gen(g: Generator, indent: str) -> List[str]:
    lines = [f"{indent}{g.kind.value}{'*' if g.flatten else ''}:"]
    if g.cond is not None:
        lines.extend(_fmt_block("cond", g.cond, indent + "  "))
    if g.key is not None:
        lines.extend(_fmt_block("key", g.key, indent + "  "))
    lines.extend(_fmt_block("value", g.value, indent + "  "))
    if g.reducer is not None:
        lines.extend(_fmt_block("reduce", g.reducer, indent + "  "))
    return lines


def _fmt_block(label: str, b: Block, indent: str) -> List[str]:
    params = ", ".join(fmt_exp(p) for p in b.params)
    results = ", ".join(fmt_exp(r) for r in b.results)
    if not b.stmts:
        return [f"{indent}{label} ({params}) => {results}"]
    lines = [f"{indent}{label} ({params}) => {{"]
    for d in b.stmts:
        lines.extend(_fmt_def(d, indent + "  "))
    lines.append(f"{indent}  -> {results}")
    lines.append(f"{indent}}}")
    return lines


def _fmt_def(d: Def, indent: str) -> List[str]:
    lhs = ", ".join(fmt_exp(s) for s in d.syms)
    op = d.op
    if isinstance(op, MultiLoop):
        lines = [f"{indent}{lhs} = MultiLoop(size={fmt_exp(op.size)}) {{"]
        for g in op.gens:
            lines.extend(_fmt_gen(g, indent + "  "))
        lines.append(f"{indent}}}")
        return lines
    if isinstance(op, IfThenElse):
        lines = [f"{indent}{lhs} = if {fmt_exp(op.cond)} {{"]
        lines.extend(_fmt_block("then", op.then_block, indent + "  "))
        lines.extend(_fmt_block("else", op.else_block, indent + "  "))
        lines.append(f"{indent}}}")
        return lines
    return [f"{indent}{lhs} = {op!r}"]


def pretty(prog: Program) -> str:
    lines = ["program(inputs=[%s])" % ", ".join(fmt_exp(s) for s in prog.inputs)]
    for d in prog.body.stmts:
        lines.extend(_fmt_def(d, "  "))
    lines.append("  return " + ", ".join(fmt_exp(r) for r in prog.body.results))
    return "\n".join(lines)
