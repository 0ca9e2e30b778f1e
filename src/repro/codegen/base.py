"""Code generation base: shared expression/statement emission.

DMLL reuses Delite's heterogeneous code generators (§5: Scala, C++,
CUDA). These emitters produce human-readable source demonstrating how the
*same* multiloop lowers differently per target — e.g. a ``Collect`` is an
append loop on the CPU but a two-phase size-then-write kernel on the GPU,
and buckets hash on the CPU but sort on the GPU (§3.1).

One generator, many lowerings: the ``cond -> key -> value -> sink`` walk
over a generator (Fig. 2) is written once, in :meth:`Emitter.emit_gen`; a
target supplies its type and statement tables, its accumulator
declarations and loop header (``emit_loop``), and what becomes of a
generated value (``sink``).

The generated sources are artifacts (inspectable, testable for structure);
execution in this reproduction happens on the simulated runtime.
"""

from __future__ import annotations

from typing import Dict, List

from ..core import types as T
from ..core.ir import Block, Const, Def, Exp, Program, Sym
from ..core.multiloop import Generator, MultiLoop
from ..core.ops import (ArrayApply, ArrayLength, ArrayLit, BucketKeys,
                        BucketLookup, CollPrim, IfThenElse, InputSource,
                        MakeKeyed, Prim, StructField, StructNew)

_INFIX = {
    "add": "+", "sub": "-", "mul": "*", "div": "/", "mod": "%",
    "eq": "==", "ne": "!=", "lt": "<", "le": "<=", "gt": ">", "ge": ">=",
    "and": "&&", "or": "||",
}

_CALLS = {
    "exp": "exp", "log": "log", "sqrt": "sqrt", "abs": "fabs",
    "pow": "pow", "min": "min", "max": "max", "sigmoid": "sigmoid",
    "neg": "-", "not": "!",
}


class Emitter:
    """Base class; the defaults are the C family's, subclasses override
    the tables and the loop lowering."""

    target = "generic"
    comment = "//"
    #: type names: scalars by table, collections by a format every target
    #: sets (``COLL`` of the element, ``KEYED`` of key and element)
    SCALARS = {T.BOOL: "bool", T.INT: "int32_t", T.LONG: "int64_t",
               T.DOUBLE: "double"}
    COLL: str
    KEYED: str
    ANY = "auto"
    #: statement syntax: bind a block's index parameter, bind a reducer
    #: parameter, update an accumulator, hand over the program's results
    INDEX_LET = "const int64_t {} = {};"
    REF_LET = "const auto& {} = {};"
    STORE = "{} = {};"
    RESULTS = "ctx.set_results({});"

    def __init__(self) -> None:
        self.lines: List[str] = []
        self.indent = 0
        self.struct_defs: Dict[str, T.Struct] = {}

    # -- helpers -----------------------------------------------------------

    def out(self, line: str = "") -> None:
        self.lines.append("  " * self.indent + line if line else "")

    def name(self, s: Sym) -> str:
        return f"{s.name}_{s.id}"

    def exp(self, e: Exp) -> str:
        if isinstance(e, Const):
            return self.literal(e)
        assert isinstance(e, Sym)
        return self.name(e)

    def literal(self, c: Const) -> str:
        v = c.value
        if isinstance(v, bool):
            return "true" if v else "false"
        if isinstance(v, float):
            return repr(v)
        if isinstance(v, str):
            return f"\"{v}\""
        if isinstance(v, (list, tuple)) and not v:
            return self.empty_coll(c.tpe)
        return str(v)

    def empty_coll(self, tpe: T.Type) -> str:
        return "{}"

    def type_name(self, t: T.Type) -> str:
        if isinstance(t, T.Coll):
            return self.COLL.format(self.type_name(t.elem))
        if isinstance(t, T.KeyedColl):
            return self.KEYED.format(self.type_name(t.key),
                                     self.type_name(t.elem))
        if isinstance(t, T.Struct):
            return t.name
        return self.SCALARS.get(t, self.ANY)

    def _collect_structs(self, t: T.Type) -> None:
        if isinstance(t, T.Struct):
            self.struct_defs[t.name] = t
            for _, ft in t.fields:
                self._collect_structs(ft)
        elif isinstance(t, (T.Coll, T.KeyedColl)):
            self._collect_structs(t.elem)

    # -- program -----------------------------------------------------------

    def emit_program(self, prog: Program, name: str = "dmll_main") -> str:
        self.lines = []
        for d in prog.body.stmts:
            for s in d.syms:
                self._collect_structs(s.tpe)
        self.prelude(prog, name)
        scopes = self.indent  # what the prelude opened, closed by count
        for d in prog.body.stmts:
            self.emit_def(d, top=True)
        self.out(self.RESULTS.format(
            ", ".join(self.exp(r) for r in prog.body.results)))
        for _ in range(scopes):
            self.indent -= 1
            self.out("}")
        return "\n".join(self.lines)

    def prelude(self, prog: Program, name: str) -> None:
        raise NotImplementedError

    def c_struct(self, st: T.Struct) -> None:
        self.out(f"struct {st.name} {{")
        self.indent += 1
        for fn, ft in st.fields:
            self.out(f"{self.type_name(ft)} {fn};")
        self.indent -= 1
        self.out("};")

    # -- statements ----------------------------------------------------------

    def emit_block_stmts(self, b: Block) -> None:
        for d in b.stmts:
            self.emit_def(d)

    def emit_def(self, d: Def, top: bool = False) -> None:
        op = d.op
        if isinstance(op, MultiLoop):
            self.emit_loop(d, op, top)
            return
        if isinstance(op, IfThenElse):
            s = d.sym
            self.declare(s)
            self.out(f"if ({self.exp(op.cond)}) {{")
            self.indent += 1
            self.emit_block_stmts(op.then_block)
            self.assign(s, self.exp(op.then_block.result))
            self.indent -= 1
            self.out("} else {")
            self.indent += 1
            self.emit_block_stmts(op.else_block)
            self.assign(s, self.exp(op.else_block.result))
            self.indent -= 1
            self.out("}")
            return
        self.define(d.sym, self.rhs(op, d))

    def rhs(self, op, d: Def) -> str:
        if isinstance(op, Prim):
            args = [self.exp(a) for a in op.args]
            if op.name in _INFIX:
                return f"({args[0]} {_INFIX[op.name]} {args[1]})"
            if op.name in ("to_double", "to_int", "to_long"):
                return self.cast(op.name, args[0])
            if op.name in ("neg", "not"):
                return f"({_CALLS[op.name]}{args[0]})"
            fn = _CALLS.get(op.name, op.name)
            return f"{fn}({', '.join(args)})"
        if isinstance(op, ArrayApply):
            return self.array_read(self.exp(op.arr), self.exp(op.idx))
        if isinstance(op, ArrayLength):
            return self.array_len(self.exp(op.arr))
        if isinstance(op, StructField):
            return f"{self.exp(op.struct)}.{op.fname}"
        if isinstance(op, StructNew):
            vals = ", ".join(self.exp(v) for v in op.values)
            return self.struct_ctor(op.struct_type, vals)
        if isinstance(op, BucketLookup):
            return self.bucket_lookup(self.exp(op.coll), self.exp(op.key))
        if isinstance(op, BucketKeys):
            return f"{self.exp(op.coll)}.keys()"
        if isinstance(op, MakeKeyed):
            return self.make_keyed(self.exp(op.keys), self.exp(op.values))
        if isinstance(op, ArrayLit):
            return self.array_lit(op)
        if isinstance(op, InputSource):
            return self.input_read(op)
        if isinstance(op, CollPrim):
            args = ", ".join(self.exp(a) for a in op.args)
            return f"dmll::{op.name}({args})"
        return f"/* unhandled {op.op_name()} */"

    # -- hooks ---------------------------------------------------------------

    def declare(self, s: Sym) -> None:
        self.out(f"{self.type_name(s.tpe)} {self.name(s)};")

    def define(self, s: Sym, rhs: str) -> None:
        self.out(f"{self.type_name(s.tpe)} {self.name(s)} = {rhs};")

    def assign(self, s: Sym, rhs: str) -> None:
        self.out(f"{self.name(s)} = {rhs};")

    def cast(self, kind: str, arg: str) -> str:
        t = {"to_double": "double", "to_int": "int32_t",
             "to_long": "int64_t"}[kind]
        return f"(({t}) {arg})"

    def array_read(self, arr: str, idx: str) -> str:
        return f"{arr}[{idx}]"

    def array_len(self, arr: str) -> str:
        return f"{arr}.size()"

    def struct_ctor(self, st: T.Struct, vals: str) -> str:
        return f"{st.name}{{{vals}}}"

    def bucket_lookup(self, coll: str, key: str) -> str:
        return f"{coll}.lookup({key})"

    def make_keyed(self, keys: str, values: str) -> str:
        return f"dmll::make_keyed({keys}, {values})"

    def array_lit(self, op: ArrayLit) -> str:
        inner = ", ".join(self.exp(e) for e in op.elems)
        return f"{{{inner}}}"

    def input_read(self, op: InputSource) -> str:
        return f"dmll::read_input<{self.type_name(op.tpe)}>(\"{op.label}\")"

    def emit_loop(self, d: Def, loop: MultiLoop, top: bool) -> None:
        raise NotImplementedError

    # -- generators ----------------------------------------------------------

    def emit_gen(self, s: Sym, g: Generator, idx: str) -> None:
        """One generator at index ``idx``: condition, key and value
        functions in that order, each with its index parameter bound, then
        the target's ``sink`` for the value — inside the condition."""
        def at_index(b: Block) -> str:
            self.out(self.INDEX_LET.format(self.name(b.params[0]), idx))
            self.emit_block_stmts(b)
            return self.exp(b.result)

        if g.cond is not None:
            self.out(f"if ({at_index(g.cond)}) {{")
            self.indent += 1
        if g.key is not None:
            at_index(g.key)
        self.sink(s, g, at_index(g.value), idx)
        if g.cond is not None:
            self.indent -= 1
            self.out("}")

    def sink(self, s: Sym, g: Generator, val: str, idx: str) -> None:
        raise NotImplementedError

    def inline_reducer(self, first: str, acc: str, val: str,
                       g: Generator) -> None:
        """``first`` stores the first value and opens the else branch that
        folds every later one into ``acc`` through the inlined reducer."""
        a, b = g.reducer.params
        self.out(first)
        self.indent += 1
        self.out(self.REF_LET.format(self.name(a), acc))
        self.out(self.REF_LET.format(self.name(b), val))
        self.emit_block_stmts(g.reducer)
        self.out(self.STORE.format(acc, self.exp(g.reducer.result)))
        self.indent -= 1
        self.out("}")
