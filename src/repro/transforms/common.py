"""Shared machinery for the nested pattern transformations (Fig. 3).

Each rule is a ``Rule`` subclass that tries to rewrite one statement of a
scope. The driver applies a single rule at a time — the paper keeps the
search linear and order-independent this way (§4.2: "we only try to apply
a single rule at a time rather than an exponential combination").
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Set

from ..core.ir import (Block, Def, Exp, Program, Sym, def_index,
                       free_sym_set, map_blocks, op_used_syms, rebuild_block,
                       rebuild_def, rebuild_program)
from ..obs.diagnostics import emit_diagnostic, iteration_cap
from ..obs.provenance import APPLIED, REJECTED, DecisionKind, emit


class Rule:
    """One rewrite rule over a statement in a scope."""

    name: str = "rule"

    def apply_to(self, block: Block, pos: int) -> Optional[List[Def]]:
        """Attempt to rewrite ``block.stmts[pos]``.

        Returns the replacement statement list (which may include hoisted
        defs placed before the rewritten consumer), or ``None`` when the
        pattern does not match.
        """
        raise NotImplementedError

    def reject(self, d: Def, reason: str, **evidence) -> None:
        """Record "this rule matched the anchor pattern at ``d`` but a
        precondition failed" into the active decision ledger, and return
        ``None`` for convenience (``return self.reject(...)``).

        Rules call this only after recognizing their anchor — trivial
        "not even the right op" misses stay silent, so the ledger reports
        interesting near-misses rather than every statement."""
        emit(DecisionKind.TRANSFORM, repr(d.syms[0]), REJECTED,
             f"{self.name}: {reason}", rule=self.name, **evidence)
        return None


def locals_of(block: Block) -> Set[Sym]:
    """Params plus symbols defined anywhere at the top level of ``block``."""
    out = set(block.params)
    for d in block.stmts:
        out.update(d.syms)
    return out


def block_is_free_of(b: Block, forbidden: Set[Sym]) -> bool:
    """True if ``b`` references none of ``forbidden`` (they may be shadowed
    by b's own binders, which ``free_sym_set`` accounts for)."""
    return not (free_sym_set(b) & forbidden)


def exp_is_free_of(e: Exp, block: Block, forbidden: Set[Sym]) -> bool:
    """Whether ``e``, with definitions drawn from ``block``, transitively
    avoids all of ``forbidden``."""
    idx = def_index(block)
    seen: Set[Sym] = set()

    def visit(x: Exp) -> bool:
        if not isinstance(x, Sym):
            return True
        if x in forbidden:
            return False
        if x in seen:
            return True
        seen.add(x)
        d = idx.get(x)
        if d is None:
            return True
        return all(visit(s) for s in op_used_syms(d.op))

    return visit(e)


def slice_deps(block: Block, targets: Sequence[Exp]) -> List[Def]:
    """Minimal ordered subset of ``block.stmts`` needed to compute
    ``targets`` (dependencies resolved within the block only)."""
    idx = def_index(block)
    needed: Set[int] = set()
    work = [t for t in targets if isinstance(t, Sym)]
    while work:
        s = work.pop()
        d = idx.get(s)
        if d is None or id(d) in needed:
            continue
        needed.add(id(d))
        work.extend(x for x in op_used_syms(d.op) if isinstance(x, Sym))
    return [d for d in block.stmts if id(d) in needed]


def replace_stmt(block: Block, pos: int, replacement: Sequence[Def]) -> Block:
    return rebuild_block(
        block, block.stmts[:pos] + tuple(replacement) + block.stmts[pos + 1:])


def apply_rule_once(block: Block, rule: Rule) -> Optional[Block]:
    """Apply ``rule`` at the first matching statement of ``block`` (this
    scope only). Returns the new block or ``None``."""
    for pos in range(len(block.stmts)):
        replacement = rule.apply_to(block, pos)
        if replacement is not None:
            # emitted here, not inside apply_to: the partitioning driver
            # also calls apply_to speculatively and may discard the result
            emit(DecisionKind.TRANSFORM, repr(block.stmts[pos].syms[0]),
                 APPLIED,
                 f"{rule.name}: nested-pattern rewrite fired (Fig. 3)",
                 rule=rule.name, new_stmts=len(replacement))
            return replace_stmt(block, pos, replacement)
    return None


def apply_rules_everywhere(prog: Program, rules: Sequence[Rule],
                           max_iters: int = 10,
                           log: Optional[List[str]] = None) -> Program:
    """Exhaustively apply rules through all scopes, one rule at a time.
    Applied rule names are appended to ``log`` when given."""

    def rewrite_block(block: Block) -> Block:
        changed = True
        iters = 0
        while changed and iters < max_iters:
            changed = False
            iters += 1
            for rule in rules:
                nb = apply_rule_once(block, rule)
                if nb is not None:
                    block = nb
                    changed = True
                    if log is not None:
                        log.append(rule.name)
        if changed:
            emit_diagnostic(iteration_cap(
                "apply-rules(" + ", ".join(r.name for r in rules) + ")",
                max_iters))
        # recurse into nested blocks
        return rebuild_block(block, [
            rebuild_def(d, map_blocks(d.op, rewrite_block))
            for d in block.stmts])

    return rebuild_program(prog, rewrite_block(prog.body))
