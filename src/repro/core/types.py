"""Type system for the DMLL intermediate representation.

The paper's generators are typed (Fig. 2a): ``Collect : Coll[V]``,
``Reduce : V``, ``BucketCollect : Coll[Coll[V]]``, ``BucketReduce : Coll[V]``.
This module defines the small set of types those signatures need: scalars,
collections, structs (records), and keyed collections (the result of bucket
generators, which are indexable both by dense position and by key).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple


class Type:
    """Base class for all DMLL types."""

    #: size in bytes of one value of this type, used by the cost model
    byte_size: int = 8

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return self.__class__.__name__


@dataclass(frozen=True)
class Scalar(Type):
    name: str
    byte_size: int = 8

    def __repr__(self) -> str:
        return self.name


BOOL = Scalar("Bool", 1)
INT = Scalar("Int", 4)
LONG = Scalar("Long", 8)
DOUBLE = Scalar("Double", 8)
STRING = Scalar("String", 16)
UNIT = Scalar("Unit", 0)


@dataclass(frozen=True)
class Coll(Type):
    """A flat parallel collection with elements of type ``elem``."""

    elem: Type

    @property
    def byte_size(self) -> int:  # type: ignore[override]
        # size of a reference to the collection, not its payload
        return 8

    def __repr__(self) -> str:
        return f"Coll[{self.elem!r}]"


@dataclass(frozen=True)
class KeyedColl(Type):
    """Result type of bucket generators: dense values plus a key directory.

    Supports dense positional access (like ``Coll``) and key lookup
    (``BucketLookup``). ``BucketCollect`` produces ``KeyedColl`` whose
    element type is itself a ``Coll``.
    """

    key: Type
    elem: Type

    @property
    def byte_size(self) -> int:  # type: ignore[override]
        return 8

    def __repr__(self) -> str:
        return f"KeyedColl[{self.key!r},{self.elem!r}]"


@dataclass(frozen=True)
class Struct(Type):
    """A named record type. Field order is significant."""

    name: str
    fields: Tuple[Tuple[str, Type], ...]

    @property
    def byte_size(self) -> int:  # type: ignore[override]
        return sum(t.byte_size for _, t in self.fields)

    def field_type(self, fname: str) -> Type:
        for n, t in self.fields:
            if n == fname:
                return t
        raise KeyError(f"struct {self.name} has no field {fname!r}")

    def field_names(self) -> Tuple[str, ...]:
        return tuple(n for n, _ in self.fields)

    def __repr__(self) -> str:
        inner = ",".join(f"{n}:{t!r}" for n, t in self.fields)
        return f"{self.name}{{{inner}}}"


def tuple_type(*elems: Type) -> Struct:
    """An anonymous tuple, modeled as a struct with positional fields."""
    return Struct("Tuple%d" % len(elems), tuple((f"_{i}", t) for i, t in enumerate(elems)))


def is_collection(t: Type) -> bool:
    return isinstance(t, (Coll, KeyedColl))


def element_type(t: Type) -> Type:
    if isinstance(t, (Coll, KeyedColl)):
        return t.elem
    raise TypeError(f"{t!r} is not a collection type")


def zero_value(t: Type):
    """The reduction identity for a type (``identity[V]`` in Fig. 2b)."""
    if t is BOOL:
        return False
    if t in (INT, LONG):
        return 0
    if t is DOUBLE:
        return 0.0
    if t is STRING:
        return ""
    if isinstance(t, Coll):
        return []
    if isinstance(t, Struct):
        return tuple(zero_value(ft) for _, ft in t.fields)
    raise TypeError(f"no zero value for {t!r}")


def join_numeric(a: Type, b: Type) -> Type:
    """Numeric promotion for binary arithmetic."""
    if DOUBLE in (a, b):
        return DOUBLE
    if LONG in (a, b):
        return LONG
    return INT
