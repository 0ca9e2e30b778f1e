"""Logistic regression — the §3.2 loop-interchange example.

``logreg_program`` is the textbook column-major formulation: for each
feature ``j``, a nested summation over all samples. The Column-to-Row
Reduce rule turns the "vector of sums" into a "sum of vectors" so the
sample dimension can be partitioned; Row-to-Column Reduce inverts it again
inside GPU kernels.
"""

from __future__ import annotations

import math
from typing import List, Sequence

from .. import frontend as F
from ..core import types as T
from ..core.ir import Program


def logreg_inputs():
    return [F.matrix_input("x", partitioned=True),
            F.vector_input("y", partitioned=True),
            F.vector_input("theta", partitioned=False),
            F.scalar_input("alpha", T.DOUBLE)]


def logreg_program() -> Program:
    """One batch-gradient step, written exactly as the paper's snippet."""

    def prog(x: F.ArrayRep, y: F.ArrayRep, theta: F.ArrayRep, alpha):
        rows = x.length()
        cols = theta.length()

        def hyp(xi: F.ArrayRep) -> F.NumRep:
            dot = F.irange(cols).sum(lambda j2: theta[j2] * xi[j2])
            return F.sigmoid(dot)

        def new_theta_j(j):
            gradient = F.irange(rows).sum(
                lambda i: x[i][j] * (y[i] - hyp(x[i])))
            return theta[j] + alpha * gradient

        return F.irange(cols).map(new_theta_j)

    return F.build(prog, logreg_inputs())


def logreg_oracle(x: Sequence[Sequence[float]], y: Sequence[float],
                  theta: Sequence[float], alpha: float) -> List[float]:
    def hyp(xi):
        d = sum(t * v for t, v in zip(theta, xi))
        return 1.0 / (1.0 + math.exp(-d)) if d > -700 else 0.0

    cols = len(theta)
    out = []
    for j in range(cols):
        g = sum(x[i][j] * (y[i] - hyp(x[i])) for i in range(len(x)))
        out.append(theta[j] + alpha * g)
    return out

