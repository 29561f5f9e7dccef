"""Sparse equality-form linear programs: the primal oracle of the
semiparametric statistic.

A program is  min c'x  s.t.  A x = b,  x >= 0,  with A a ``scipy.sparse``
matrix, solved by HiGHS (scipy.optimize.linprog).  Every optimal return is
verified for primal feasibility, dual feasibility, complementary slackness
and strong duality at 1e-9 before being handed back.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np
from scipy import sparse
from scipy.optimize import linprog

from .errors import DimensionMismatch, IterationLimit, LpFailure

#: Feasibility / duality-gap tolerance on verified optimal returns.
TOLERANCE = 1e-9

#: Guard on the stored nonzeros of A.  Each costs about 12 bytes here and
#: again in each copy scipy and HiGHS make, so a program stays near 100 MB.
MAX_NONZEROS = 10**6


class Status(enum.Enum):
    OPTIMAL = "optimal"
    INFEASIBLE = "infeasible"
    UNBOUNDED = "unbounded"


@dataclass(frozen=True)
class LinearProgram:
    """min c'x  s.t.  a x = b,  x >= 0.

    ``a`` may be dense or sparse; it is held as a CSC array without explicit
    zeros, the matrix HiGHS receives.
    """

    c: np.ndarray
    a: sparse.csc_array
    b: np.ndarray

    def __post_init__(self):
        c = np.atleast_1d(np.asarray(self.c, dtype=float))
        b = np.atleast_1d(np.asarray(self.b, dtype=float))
        a = sparse.csc_array(self.a, dtype=float, copy=True)
        a.eliminate_zeros()
        a.sort_indices()
        object.__setattr__(self, "c", c)
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        if a.shape != (b.size, c.size):
            raise DimensionMismatch(f"constraint matrix is {a.shape}, expected {(b.size, c.size)}")
        if not (np.isfinite(c).all() and np.isfinite(a.data).all() and np.isfinite(b).all()):
            raise DimensionMismatch("all problem entries must be finite")
        if a.nnz > MAX_NONZEROS:
            raise DimensionMismatch(
                f"constraint matrix has {a.nnz} nonzeros, above the guard of {MAX_NONZEROS}"
            )


@dataclass(frozen=True)
class Solution:
    status: Status
    x: np.ndarray | None
    objective: float | None
    duals: np.ndarray | None  # one multiplier per constraint row
    iterations: int = 0       # solver iterations (HiGHS ``nit``)


def solve(program: LinearProgram) -> Solution:
    """Solve the program; optimal returns are residual-verified at 1e-9."""
    res = linprog(program.c, A_eq=program.a, b_eq=program.b, bounds=(0, None), method="highs")
    if res.status == 2:
        return Solution(Status.INFEASIBLE, None, None, None)
    if res.status == 3:
        return Solution(Status.UNBOUNDED, None, None, None)
    if res.status == 1:
        raise IterationLimit(f"solver hit its iteration limit: {res.message}")
    if res.status != 0:
        raise LpFailure(f"solver failure: {res.message}")
    duals = res.eqlin.marginals
    _verify(program, res.x, duals)
    return Solution(Status.OPTIMAL, res.x, float(res.fun), duals, int(res.nit))


def _verify(program: LinearProgram, x: np.ndarray, duals: np.ndarray):
    a, b, c = program.a, program.b, program.c
    scale = 1.0 + max(np.abs(b).max(initial=0.0), np.abs(x).max(initial=0.0))
    resid = a @ x - b
    bad = np.flatnonzero(np.abs(resid) > TOLERANCE * scale)
    if bad.size:
        raise LpFailure(f"primal residual {resid[bad[0]]:.3e} on row {bad[0]}")
    # reduced costs: z = c - a' y must be >= 0 (variables bounded below by 0)
    z = c - a.T @ duals
    if (z < -TOLERANCE * (1.0 + np.abs(c).max(initial=0.0))).any():
        raise LpFailure("dual infeasibility in returned multipliers")
    dual_obj = float(duals @ b)
    gap = abs(dual_obj - float(c @ x))
    if gap > TOLERANCE * (1.0 + abs(dual_obj)):
        raise LpFailure(f"duality gap {gap:.3e} exceeds tolerance")
    # complementary slackness on the rows and on the bounds x >= 0
    if (np.abs(duals * resid) > TOLERANCE * scale).any():
        raise LpFailure("complementary slackness violated")
    if (np.abs(z * x) > TOLERANCE * scale * (1.0 + np.abs(z).max(initial=0.0))).any():
        raise LpFailure("complementary slackness violated on variable bounds")
