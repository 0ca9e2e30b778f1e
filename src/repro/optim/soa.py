"""Array-of-struct to struct-of-array (AoS→SoA) and dead field elimination.

Collections of records (``Coll[Struct]``) are split into one collection
per field; element reads followed by field projections become direct reads
of the field columns. Fields that are never read are then removed by
ordinary DCE — that is dead field elimination (§5). Besides removing
indirections, this is what lets TPC-H Q1's table live as flat primitive
arrays (Table 2) and simplifies the stencil analysis.

The transform is conservative: a collection is only split when every use
is ``len(C)`` or ``C(i).field`` — if any element escapes as a whole
struct, the collection keeps its AoS layout.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from ..core import types as T
from ..core.ir import (Block, Def, Exp, Program, Sym, fresh, iter_defs,
                       map_blocks, rebuild_block, rebuild_def, refresh_block)
from ..core.multiloop import GenKind, Generator, MultiLoop
from ..core.ops import ArrayApply, ArrayLength, InputSource, StructField, StructNew
from ..obs.provenance import APPLIED, REJECTED, DecisionKind, emit


def _candidates(prog: Program) -> List[Def]:
    out = []
    for d in prog.body.stmts:
        if len(d.syms) != 1:
            continue
        t = d.syms[0].tpe
        if not (isinstance(t, T.Coll) and isinstance(t.elem, T.Struct)):
            continue
        if isinstance(d.op, InputSource):
            out.append(d)
        elif isinstance(d.op, MultiLoop) and len(d.op.gens) == 1:
            g = d.op.gens[0]
            if g.kind is GenKind.COLLECT and not g.flatten:
                out.append(d)
    return out


def _uses_splittable(prog: Program, c: Sym) -> bool:
    """Every use of ``c`` must be len(c) or a projection c(i).field."""
    elem_syms: List[Sym] = []

    def scan(block: Block) -> bool:
        for d in block.stmts:
            op = d.op
            if isinstance(op, ArrayApply) and op.arr == c:
                elem_syms.append(d.sym)
                continue
            if isinstance(op, ArrayLength) and op.arr == c:
                continue
            # direct operand uses other than the two above are blockers;
            # uses inside nested blocks are checked by the recursion
            if any(e == c for e in op.inputs() if isinstance(e, Sym)):
                return False
            for b in op.blocks():
                if not scan(b):
                    return False
        return not any(r == c for r in block.results)

    if not scan(prog.body):
        return False
    # every element read must only be projected
    for e in elem_syms:
        if not _elem_only_projected(prog.body, e):
            return False
    return True


def _used_fields(prog: Program, c: Sym) -> set:
    """Field names ever projected from elements of ``c``."""
    elems: set = set()
    fields: set = set()
    for d in iter_defs(prog.body, recursive=True):
        op = d.op
        if isinstance(op, ArrayApply) and op.arr == c:
            elems.add(d.sym)
        elif isinstance(op, StructField) and op.struct in elems:
            fields.add(op.fname)
    return fields


def _elem_only_projected(block: Block, e: Sym) -> bool:
    for d in iter_defs(block, recursive=True):
        op = d.op
        if isinstance(op, StructField) and op.struct == e:
            continue
        if any(x == e for x in op.inputs() if isinstance(x, Sym)):
            return False
        for b in op.blocks():
            if any(r == e for r in b.results):
                return False
    return not any(r == e for r in block.results)


def _split_producer(d: Def) -> Tuple[List[Def], Dict[str, Sym]]:
    """Produce one column def per struct field."""
    c = d.syms[0]
    st: T.Struct = c.tpe.elem  # type: ignore[union-attr]
    cols: Dict[str, Sym] = {}
    defs: List[Def] = []
    if isinstance(d.op, InputSource):
        for fname, ft in st.fields:
            s = fresh(T.Coll(ft), f"{c.name}_{fname}")
            defs.append(Def((s,), InputSource(T.Coll(ft),
                                              f"{d.op.label}.{fname}",
                                              d.op.partitioned)))
            cols[fname] = s
        return defs, cols
    # Collect loop: one generator per field, sharing one traversal
    loop: MultiLoop = d.op  # type: ignore[assignment]
    g = loop.gens[0]
    gens: List[Generator] = []
    syms: List[Sym] = []
    for fname, ft in st.fields:
        vb = refresh_block(g.value)
        vb = _project_result(vb, fname, ft)
        cond = refresh_block(g.cond) if g.cond is not None else None
        gens.append(Generator(GenKind.COLLECT, vb, cond=cond))
        s = fresh(T.Coll(ft), f"{c.name}_{fname}")
        syms.append(s)
        cols[fname] = s
    defs.append(Def(tuple(syms), MultiLoop(loop.size, tuple(gens))))
    return defs, cols


def _project_result(vb: Block, fname: str, ft: T.Type) -> Block:
    res = vb.result
    # if the block builds the struct locally, take the field directly
    if isinstance(res, Sym):
        for d in vb.stmts:
            if d.syms and d.syms[0] == res and isinstance(d.op, StructNew):
                names = d.op.struct_type.field_names()
                fexp = d.op.values[names.index(fname)]
                return Block(vb.params, vb.stmts, (fexp,))
    p = fresh(ft, fname)
    return Block(vb.params, vb.stmts + (Def((p,), StructField(res, fname)),),
                 (p,))


def _rewrite_uses(block: Block, c: Sym, cols: Dict[str, Sym],
                  first_col: Sym) -> Block:
    return _rewrite_uses_nested(block, c, cols, first_col, {})


def _rewrite_uses_nested(block: Block, c: Sym, cols: Dict[str, Sym],
                         first_col: Sym, outer_elems: Dict[Sym, Exp]) -> Block:
    new_stmts: List[Def] = []
    elem_reads = dict(outer_elems)
    for d in block.stmts:
        op = d.op
        if isinstance(op, ArrayApply) and op.arr == c:
            elem_reads[d.sym] = op.idx
            continue
        if isinstance(op, ArrayLength) and op.arr == c:
            new_stmts.append(Def(d.syms, ArrayLength(first_col)))
            continue
        if isinstance(op, StructField) and isinstance(op.struct, Sym) \
                and op.struct in elem_reads:
            idx = elem_reads[op.struct]
            new_stmts.append(Def(d.syms, ArrayApply(cols[op.fname], idx)))
            continue
        op = map_blocks(op, lambda b: _rewrite_uses_nested(
            b, c, cols, first_col, elem_reads))
        new_stmts.append(rebuild_def(d, op))
    return rebuild_block(block, new_stmts)


def aos_to_soa(prog: Program, log: Optional[List[str]] = None) -> Program:
    """Split every splittable struct collection into field columns.

    Split column inputs are intentionally *not* added to ``Program.inputs``
    so that DCE can drop the never-read ones — that is dead field
    elimination. The interpreter resolves inputs by InputSource label."""
    changed = True
    while changed:
        changed = False
        for cand in _candidates(prog):
            c = cand.syms[0]
            if not _uses_splittable(prog, c):
                emit(DecisionKind.SOA, repr(c), REJECTED,
                     "a collection element escapes as a whole struct (a "
                     "use is neither len(C) nor C(i).field); kept AoS")
                continue
            col_defs, cols = _split_producer(cand)
            st: T.Struct = c.tpe.elem  # type: ignore[union-attr]
            # lengths are rewritten against a column that is genuinely read,
            # so never-read columns stay dead for DFE
            used = _used_fields(prog, c)
            dead_fields = [n for n, _ in st.fields if n not in used]
            emit(DecisionKind.SOA, repr(c), APPLIED,
                 f"split struct collection into {len(st.fields)} field "
                 f"columns ({', '.join(n for n, _ in st.fields)})"
                 + (f"; never-read columns {', '.join(dead_fields)} left "
                    f"for dead field elimination" if dead_fields else ""),
                 fields=[n for n, _ in st.fields], dead_fields=dead_fields)
            anchor = next((n for n, _ in st.fields if n in used),
                          st.fields[0][0])
            first_col = cols[anchor]
            # replace the producer and rewrite all uses
            new_stmts: List[Def] = []
            for d in prog.body.stmts:
                if d.syms and d.syms[0] == c:
                    new_stmts.extend(col_defs)
                else:
                    new_stmts.append(d)
            body = _rewrite_uses(rebuild_block(prog.body, new_stmts),
                                 c, cols, first_col)
            new_inputs = tuple(s for s in prog.inputs if s != c)
            prog = Program(new_inputs, body)
            if log is not None:
                log.append("aos-to-soa")
            changed = True
            break  # candidates are stale after a rewrite; re-scan
    return prog


aos_to_soa.pass_name = "aos-to-soa"


def soa_input_values(prog: Program, inputs: Dict[str, object]) -> Dict[str, object]:
    """Split user-supplied AoS input values into the column inputs an
    SoA-transformed program expects (labels ``table.field``).

    Struct rows may be tuples (field order) or dicts (by name)."""
    out = dict(inputs)
    for d in prog.body.stmts:
        if not isinstance(d.op, InputSource):
            continue
        label = d.op.label
        if "." not in label or label in out:
            continue
        base, fname = label.rsplit(".", 1)
        if base not in inputs:
            continue
        rows = inputs[base]
        t = d.op.tpe
        st_fields = None
        first = rows[0] if len(rows) else None  # type: ignore[index]
        if isinstance(first, dict):
            out[label] = [r[fname] for r in rows]  # type: ignore[union-attr]
        else:
            # positional tuples: field index comes from the declared order
            idx = _field_index_from_program(prog, base, fname)
            out[label] = [r[idx] for r in rows]  # type: ignore[index]
    return out


_FIELD_ORDERS: Dict[str, Tuple[str, ...]] = {}


def register_table_schema(label: str, struct: T.Struct) -> None:
    """Record a table's field order so ``soa_input_values`` can split
    positional-tuple rows."""
    _FIELD_ORDERS[label] = struct.field_names()


def _field_index_from_program(prog: Program, base: str, fname: str) -> int:
    order = _FIELD_ORDERS.get(base)
    if order is None:
        raise KeyError(
            f"unknown field order for table {base!r}; call "
            f"register_table_schema or pass dict rows")
    return order.index(fname)
