"""Unit tests for IR node mechanics: substitution, free symbols, refresh."""

from repro.core import types as T
from repro.core.ir import (Block, Const, Def, Sym, def_index, free_sym_set,
                           fresh, inline_block, refresh_block, subst_block)
from repro.core.multiloop import MultiLoop, collect
from repro.core.ops import ArrayApply, Prim


def _add_block(extra: Sym) -> Block:
    """(i) => { t = add(i, extra); t }"""
    i = fresh(T.INT, "i")
    t = fresh(T.INT, "t")
    return Block((i,), (Def((t,), Prim("add", (i, extra))),), (t,))


def test_const_type_inference():
    assert Const(True).tpe == T.BOOL
    assert Const(3).tpe == T.INT
    assert Const(1.5).tpe == T.DOUBLE
    assert Const("s").tpe == T.STRING


def test_sym_identity():
    a = fresh(T.INT)
    b = fresh(T.INT)
    assert a != b
    assert a == Sym(a.id, T.INT, "other_name")  # identity is the id
    assert len({a, b, Sym(a.id, T.INT)}) == 2


def test_free_syms():
    outer = fresh(T.INT, "free")
    blk = _add_block(outer)
    assert free_sym_set(blk) == {outer}


def test_free_syms_shadowed_by_defs():
    i = fresh(T.INT, "i")
    t = fresh(T.INT, "t")
    u = fresh(T.INT, "u")
    blk = Block((i,), (Def((t,), Prim("add", (i, i))),
                       Def((u,), Prim("mul", (t, t)))), (u,))
    assert free_sym_set(blk) == set()


def test_subst_block_replaces_free_only():
    outer = fresh(T.INT, "free")
    repl = fresh(T.INT, "repl")
    blk = _add_block(outer)
    blk2 = subst_block(blk, {outer: repl})
    assert free_sym_set(blk2) == {repl}
    # param is never substituted
    blk3 = subst_block(blk, {blk.params[0]: repl})
    assert blk3 == blk


def test_refresh_block_freshens_everything():
    outer = fresh(T.INT, "free")
    blk = _add_block(outer)
    blk2 = refresh_block(blk)
    assert blk2.params[0] != blk.params[0]
    assert blk2.stmts[0].sym != blk.stmts[0].sym
    assert free_sym_set(blk2) == {outer}  # free syms preserved


def test_inline_block():
    outer = fresh(T.INT, "free")
    blk = _add_block(outer)
    arg = fresh(T.INT, "arg")
    stmts = []
    res = inline_block(blk, [arg], stmts)
    assert len(stmts) == 1
    assert isinstance(res, Sym)
    op = stmts[0].op
    assert isinstance(op, Prim) and op.name == "add"
    assert op.args == (arg, outer)


def test_def_index_and_uses():
    arr = fresh(T.Coll(T.INT), "arr")
    i = fresh(T.INT, "i")
    e = fresh(T.INT, "e")
    t = fresh(T.INT, "t")
    blk = Block((i,), (Def((e,), ArrayApply(arr, i)),
                       Def((t,), Prim("add", (e, e)))), (t,))
    idx = def_index(blk)
    assert idx[e].op == ArrayApply(arr, i)


def test_multiloop_result_types_and_rebuild():
    arr = fresh(T.Coll(T.DOUBLE), "arr")
    i = fresh(T.INT, "i")
    e = fresh(T.DOUBLE, "e")
    value = Block((i,), (Def((e,), ArrayApply(arr, i)),), (e,))
    loop = MultiLoop(Const(10), (collect(value),))
    assert loop.result_types() == (T.Coll(T.DOUBLE),)
    rebuilt = loop.with_children(list(loop.inputs()), list(loop.blocks()))
    assert rebuilt == loop
