"""Dense linear program solver used as the primal oracle for general costs
and the semiparametric primal.

Backed by HiGHS (scipy.optimize.linprog); every optimal return is verified for
primal feasibility, dual feasibility, complementary slackness and strong
duality at 1e-9 before being handed back.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Sequence

import numpy as np
from scipy.optimize import linprog

from .errors import DimensionMismatch, IterationLimit, LpFailure

#: Feasibility / duality-gap tolerance on verified optimal returns.
TOLERANCE = 1e-9

#: Desk-scale guard on problem size.
MAX_NONZEROS = 10**4


class Status(enum.Enum):
    OPTIMAL = "optimal"
    INFEASIBLE = "infeasible"
    UNBOUNDED = "unbounded"


@dataclass(frozen=True)
class LinearProgram:
    """min c'x  s.t.  a x (<=|=|>=) b,  x >= lower (componentwise, default 0)."""

    c: np.ndarray
    a: np.ndarray
    b: np.ndarray
    senses: tuple[str, ...]
    lower: np.ndarray | None = None

    def __post_init__(self):
        c = np.atleast_1d(np.asarray(self.c, dtype=float))
        a = np.atleast_2d(np.asarray(self.a, dtype=float))
        b = np.atleast_1d(np.asarray(self.b, dtype=float))
        object.__setattr__(self, "c", c)
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        if a.shape != (b.size, c.size):
            raise DimensionMismatch(f"constraint matrix is {a.shape}, expected {(b.size, c.size)}")
        if len(self.senses) != b.size:
            raise DimensionMismatch("one sense per constraint row required")
        if any(s not in ("<=", "=", ">=") for s in self.senses):
            raise DimensionMismatch(f"unknown senses in {self.senses}")
        if not (np.isfinite(c).all() and np.isfinite(a).all() and np.isfinite(b).all()):
            raise DimensionMismatch("all problem entries must be finite")
        if a.size > MAX_NONZEROS:
            raise DimensionMismatch(f"problem exceeds the desk-scale guard ({MAX_NONZEROS} entries)")
        if self.lower is not None:
            lo = np.atleast_1d(np.asarray(self.lower, dtype=float))
            if lo.size != c.size:
                raise DimensionMismatch("one lower bound per variable required")
            object.__setattr__(self, "lower", lo)


@dataclass(frozen=True)
class Solution:
    status: Status
    x: np.ndarray | None
    objective: float | None
    duals: np.ndarray | None  # one multiplier per constraint row, original order
    iterations: int = 0       # solver iterations (HiGHS ``nit``)


def solve(program: LinearProgram) -> Solution:
    """Solve the program; optimal returns are residual-verified at 1e-9."""
    m, n = program.a.shape
    senses = np.array(program.senses)
    eq = senses == "="
    ub = ~eq
    # >= rows are negated into <= form
    sign = np.where(senses == ">=", -1.0, 1.0)[ub]
    a_ub = program.a[ub] * sign[:, None] if ub.any() else None
    b_ub = program.b[ub] * sign if ub.any() else None
    a_eq = program.a[eq] if eq.any() else None
    b_eq = program.b[eq] if eq.any() else None
    lower = program.lower if program.lower is not None else np.zeros(n)
    bounds = [(lo, None) for lo in lower]

    res = linprog(
        program.c, A_ub=a_ub, b_ub=b_ub, A_eq=a_eq, b_eq=b_eq, bounds=bounds, method="highs"
    )
    if res.status == 2:
        return Solution(Status.INFEASIBLE, None, None, None)
    if res.status == 3:
        return Solution(Status.UNBOUNDED, None, None, None)
    if res.status == 1:
        raise IterationLimit(f"solver hit its iteration limit: {res.message}")
    if res.status != 0:
        raise LpFailure(f"solver failure: {res.message}")

    duals = np.zeros(m)
    if ub.any():
        duals[ub] = res.ineqlin.marginals * sign
    if eq.any():
        duals[eq] = res.eqlin.marginals
    _verify(program, res.x, duals, lower)
    return Solution(Status.OPTIMAL, res.x, float(res.fun), duals, int(res.nit))


def _verify(program: LinearProgram, x: np.ndarray, duals: np.ndarray, lower: np.ndarray):
    scale = 1.0 + max(np.abs(program.b).max(initial=0.0), np.abs(x).max(initial=0.0))
    ax = program.a @ x
    for i, s in enumerate(program.senses):
        resid = ax[i] - program.b[i]
        ok = abs(resid) <= TOLERANCE * scale if s == "=" else (
            resid <= TOLERANCE * scale if s == "<=" else resid >= -TOLERANCE * scale
        )
        if not ok:
            raise LpFailure(f"primal residual {resid:.3e} on row {i}")
    # reduced costs: z = c - a' y must be >= 0 (variables bounded below)
    z = program.c - program.a.T @ duals
    if (z < -TOLERANCE * (1.0 + np.abs(program.c).max(initial=0.0))).any():
        raise LpFailure("dual infeasibility in returned multipliers")
    dual_obj = float(duals @ program.b + z @ lower)
    gap = abs(dual_obj - float(program.c @ x))
    if gap > TOLERANCE * (1.0 + abs(dual_obj)):
        raise LpFailure(f"duality gap {gap:.3e} exceeds tolerance")
    # complementary slackness
    slack = program.b - ax
    if (np.abs(duals * slack) > TOLERANCE * scale).any():
        raise LpFailure("complementary slackness violated")
    if (np.abs(z * (x - lower)) > TOLERANCE * scale * (1.0 + np.abs(z).max(initial=0.0))).any():
        raise LpFailure("complementary slackness violated on variable bounds")
