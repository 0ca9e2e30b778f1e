"""DMLL frontend: an implicitly-parallel, pattern-based collections DSL.

Write programs as plain Python functions over staged collections::

    from repro import frontend as F

    def prog(xs):
        return xs.map(lambda x: x * x).sum()

    program = F.build(prog, [F.vector_input("xs", partitioned=True)])

The staged ``Program`` is then optimized and executed by
``repro.pipeline`` / ``repro.runtime``.
"""

from .program import (InputSpec, build, matrix_input, scalar_input,
                      table_input, vector_input)
from .reps import (ArrayRep, BoolRep, KeyedRep, NumRep, Rep, StrRep,
                   StructRep, array_lit, contains, fexp, fmax, fmin, fsqrt,
                   intersect_size, irange, pair, sigmoid, struct, unwrap,
                   where, wrap)

__all__ = [
    "InputSpec", "build", "matrix_input", "scalar_input", "table_input",
    "vector_input",
    "ArrayRep", "BoolRep", "KeyedRep", "NumRep", "Rep", "StrRep", "StructRep",
    "array_lit", "contains", "fexp", "fmax", "fmin", "fsqrt",
    "intersect_size", "irange", "pair", "sigmoid", "struct",
    "unwrap", "where", "wrap",
]
