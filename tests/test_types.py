"""Unit tests for the DMLL type system."""

import pytest

from repro.core import types as T


def test_scalar_sizes():
    assert T.BOOL.byte_size == 1
    assert T.INT.byte_size == 4
    assert T.DOUBLE.byte_size == 8
    assert T.UNIT.byte_size == 0


def test_coll_nesting():
    m = T.Coll(T.Coll(T.DOUBLE))
    assert T.is_collection(m)
    assert T.element_type(m) == T.Coll(T.DOUBLE)
    assert T.element_type(T.element_type(m)) == T.DOUBLE


def test_element_type_rejects_scalar():
    with pytest.raises(TypeError):
        T.element_type(T.INT)


def test_struct_fields():
    s = T.Struct("Point", (("x", T.DOUBLE), ("y", T.DOUBLE), ("tag", T.INT)))
    assert s.field_type("x") == T.DOUBLE
    assert s.field_type("tag") == T.INT
    assert s.field_names() == ("x", "y", "tag")
    assert s.byte_size == 8 + 8 + 4
    with pytest.raises(KeyError):
        s.field_type("z")


def test_tuple_type():
    t = T.tuple_type(T.DOUBLE, T.INT)
    assert t.field_names() == ("_0", "_1")
    assert t.field_type("_1") == T.INT


def test_zero_values():
    assert T.zero_value(T.INT) == 0
    assert T.zero_value(T.DOUBLE) == 0.0
    assert T.zero_value(T.BOOL) is False
    assert T.zero_value(T.Coll(T.INT)) == []
    tup = T.tuple_type(T.DOUBLE, T.INT)
    assert T.zero_value(tup) == (0.0, 0)


def test_keyed_coll():
    kc = T.KeyedColl(T.INT, T.DOUBLE)
    assert T.element_type(kc) == T.DOUBLE
    assert T.is_collection(kc)


def test_numeric_promotion():
    assert T.join_numeric(T.INT, T.INT) == T.INT
    assert T.join_numeric(T.INT, T.DOUBLE) == T.DOUBLE
    assert T.join_numeric(T.LONG, T.INT) == T.LONG
