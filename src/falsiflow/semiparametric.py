"""Moment-restriction compatibility: the dual statistic over multipliers and
its primal LP oracle.

The model fixes the correspondence but restricts the latent distribution only
through E[m_i(U)] = 0.  Compatibility is decided by the finite-dimensional
concave program

    T(P) = sup_lambda  sum_y P(y) * min_u [ 1{y not admissible for u} - lambda'm(u) ],

the dual of the transport LP min sum pi(y,u) 1{y not admissible for u} over
couplings pi with outcome marginal P and E_pi[m(U)] = 0.  That primal LP is
solved once on HiGHS; the duals of its moment rows give the multiplier, and
the closed-form objective above at that multiplier must reproduce the LP
optimum, which certifies both.  T(P) = 0 certifies compatibility, a positive
value falsifies the model.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import lp
from .correspondence import Correspondence
from .errors import (
    CertificateMismatch,
    Diverged,
    Infeasible,
    LpFailure,
    SupportMismatch,
    UnknownOutcome,
)
from .measure import FiniteDistribution, Label

#: Dual values at or below this threshold are read as "compatible".
COMPATIBILITY_THRESHOLD = 1e-6


@dataclass(frozen=True)
class SemiparametricModel:
    """Correspondence plus a moment matrix over the latent grid.

    ``moments[i, j]`` is the i-th moment function evaluated at the j-th latent
    grid node; the restriction on the latent distribution is E[m_i] = 0 for
    every row.  ``truncated`` flags grids obtained by truncating an unbounded
    latent family.
    """

    correspondence: Correspondence
    moments: np.ndarray
    truncated: bool = False

    def __post_init__(self):
        m = np.atleast_2d(np.asarray(self.moments, dtype=float))
        if m.size == 0:
            m = m.reshape(0, len(self.correspondence.latent_support))
        object.__setattr__(self, "moments", m)
        if m.shape[1] != len(self.correspondence.latent_support):
            raise SupportMismatch(
                f"moment matrix has {m.shape[1]} columns, "
                f"expected {len(self.correspondence.latent_support)} (one per latent node)"
            )
        if not np.isfinite(m).all():
            raise SupportMismatch("moment values must be finite")

    @property
    def n_moments(self) -> int:
        return self.moments.shape[0]

    def cost_matrix(self) -> np.ndarray:
        """1 where the outcome is inadmissible for the latent node, else 0."""
        return 1.0 - self.correspondence.adjacency_matrix().astype(float)


@dataclass(frozen=True)
class DualCertificate:
    T: float
    lambda_star: np.ndarray
    minimizer_map: dict[Label, Label]    # outcome -> latent node attaining the inner min
    iterations: int                      # HiGHS iterations of the LP
    threshold: float

    @property
    def compatible(self) -> bool:
        return self.T <= self.threshold

    def to_json(self) -> dict:
        return {
            "T": self.T,
            "lambda": [float(v) for v in self.lambda_star],
            "compatible": self.compatible,
            "threshold": self.threshold,
            "minimizers": {str(y): str(u) for y, u in self.minimizer_map.items()},
            "iterations": self.iterations,
        }


def _evaluate(model: SemiparametricModel, lam: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-outcome inner minimum and argmin indices at multiplier ``lam``."""
    cost = model.cost_matrix()
    penalty = -(lam @ model.moments) if model.n_moments else np.zeros(cost.shape[1])
    scores = cost + penalty[None, :]
    argmin = scores.argmin(axis=1)  # ties resolved at the smallest latent index
    return scores[np.arange(scores.shape[0]), argmin], argmin


def g_lambda(model: SemiparametricModel, y: Label, lam: Sequence[float]) -> tuple[float, Label]:
    """Inner minimum over latent nodes for a single outcome, with its argmin."""
    g = model.correspondence
    if y not in g.outcome_support:
        raise UnknownOutcome(f"outcome {y!r} is not in the model's outcome support")
    lam = np.asarray(lam, dtype=float)
    if lam.shape != (model.n_moments,):
        raise SupportMismatch(f"multiplier has shape {lam.shape}, expected ({model.n_moments},)")
    values, argmin = _evaluate(model, lam)
    i = g.outcome_support.index(y)
    return float(values[i]), g.latent_support[int(argmin[i])]


def dual_objective(
    model: SemiparametricModel, p: FiniteDistribution, lam: Sequence[float]
) -> tuple[float, np.ndarray]:
    """Dual objective at ``lam`` and a supergradient of this concave function."""
    g = model.correspondence
    if p.support != g.outcome_support:
        raise SupportMismatch("p must live on the model's outcome support")
    lam = np.asarray(lam, dtype=float)
    if lam.shape != (model.n_moments,):
        raise SupportMismatch(f"multiplier has shape {lam.shape}, expected ({model.n_moments},)")
    values, argmin = _evaluate(model, lam)
    weights = np.asarray(p.masses)
    value = float(weights @ values)
    if model.n_moments:
        grad = -(model.moments[:, argmin] @ weights)
    else:
        grad = np.zeros(0)
    return value, grad


def maximize_dual(model: SemiparametricModel, p: FiniteDistribution) -> DualCertificate:
    """Maximize the dual objective over multipliers with one exact LP.

    The primal LP is solved on HiGHS and the multiplier is read from the duals
    of its moment rows.  The closed-form dual objective at that multiplier must
    equal the LP optimum to :data:`lp.TOLERANCE`, else
    :class:`CertificateMismatch` is raised; T is that closed-form value.  An
    empty moment set (infeasible primal, unbounded dual) raises
    :class:`Diverged`.
    """
    sol, scales = _solve_primal(model, p)
    if sol.status is lp.Status.INFEASIBLE:
        raise Diverged(
            "no latent distribution on the grid satisfies the moment restrictions; "
            "the dual is unbounded"
        )
    n_y = len(model.correspondence.outcome_support)
    lam = sol.duals[n_y:] / scales + 0.0  # + 0.0 turns -0.0 into 0.0
    values, argmin = _evaluate(model, lam)
    value = float(np.asarray(p.masses) @ values)
    if abs(value - sol.objective) > lp.TOLERANCE * (1.0 + abs(sol.objective)):
        raise CertificateMismatch(
            f"dual objective {value!r} at the LP multiplier does not certify "
            f"the primal optimum {sol.objective!r}"
        )
    return DualCertificate(
        T=value,
        lambda_star=lam,
        minimizer_map=_minimizer_map(model, argmin),
        iterations=sol.iterations,
        threshold=COMPATIBILITY_THRESHOLD,
    )


def _minimizer_map(model: SemiparametricModel, argmin: np.ndarray) -> dict[Label, Label]:
    g = model.correspondence
    return {y: g.latent_support[int(j)] for y, j in zip(g.outcome_support, argmin)}


def _solve_primal(
    model: SemiparametricModel, p: FiniteDistribution
) -> tuple[lp.Solution, np.ndarray]:
    """Solve the primal LP over couplings pi[outcome, latent], flattened row-major.

    Rows: one outcome-marginal row per outcome, then one moment row per moment,
    scaled to unit sup-norm.  Returns the solution (optimal or infeasible) and
    the row scales.
    """
    g = model.correspondence
    if p.support != g.outcome_support:
        raise SupportMismatch("p must live on the model's outcome support")
    n_y, n_u = len(g.outcome_support), len(g.latent_support)
    scales = np.abs(model.moments).max(axis=1, initial=0.0)
    scales[scales == 0] = 1.0
    a = np.vstack(
        [np.kron(np.eye(n_y), np.ones(n_u)), np.tile(model.moments / scales[:, None], n_y)]
    )
    b = np.concatenate([p.masses, np.zeros(model.n_moments)])
    program = lp.LinearProgram(c=model.cost_matrix().ravel(), a=a, b=b, senses=("=",) * len(b))
    sol = lp.solve(program)
    if sol.status is lp.Status.UNBOUNDED:
        raise LpFailure("semiparametric primal LP returned unbounded")
    return sol, scales


def primal_lp(
    model: SemiparametricModel, p: FiniteDistribution
) -> tuple[float, np.ndarray]:
    """Minimal violation mass over couplings whose latent marginal satisfies
    the moment restrictions.

    Returns the optimum and an optimal joint-mass matrix pi[outcome, latent].
    Raises :class:`Infeasible` when no latent distribution on the grid meets
    the moments.
    """
    sol, _ = _solve_primal(model, p)
    if sol.status is lp.Status.INFEASIBLE:
        raise Infeasible("no latent distribution on the grid satisfies the moment restrictions")
    return sol.objective, sol.x.reshape(len(p), -1)

