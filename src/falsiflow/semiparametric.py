"""Moment-restriction compatibility: the dual statistic over multipliers and
its primal LP oracle.

The model fixes the correspondence but restricts the latent distribution only
through E[m_i(U)] = 0.  Compatibility is decided by the finite-dimensional
concave program

    T(P) = sup_lambda  sum_y P(y) * min_u [ 1{y not admissible for u} - lambda'm(u) ],

the dual of the transport LP min sum pi(y,u) 1{y not admissible for u} over
couplings pi with outcome marginal P and E_pi[m(U)] = 0.  That primal LP is
solved once on HiGHS; :mod:`falsiflow.lp` checks only that its coupling is
feasible, and the duals of its moment rows give the multiplier.  Optimality
is certified here: the closed form above re-derives each inner minimum from
the multiplier alone, so it is a dual value, at most the optimum, which is
at most the coupling's cost; the two must agree.  T(P) = 0 certifies
compatibility, a positive value falsifies the model.  An outcome of P the
model does not list has an empty preimage, so its mass counts against the
model.  :func:`dual_objective` is the closed form at any multiplier.
Moments that no latent distribution on the grid meets make every solve
raise :class:`~falsiflow.errors.Infeasible` (infeasible primal).

Only latent columns with distinct (image, moment column) pairs matter to the
LP and to the closed form, so both run on the model's exactly merged columns
(:attr:`SemiparametricModel.merged_columns`); :func:`primal_lp` keeps every
column and stays the unmerged oracle.  :func:`maximize_dual_batch` solves the
primal LPs of k outcome distributions of one model as one block-diagonal LP;
each block reads its own multiplier and passes its own closed-form
certificate.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

from . import lp
from .correspondence import Correspondence
from .errors import CertificateMismatch, Infeasible, SupportMismatch
from .measure import FiniteDistribution, Label, align

#: Dual values at or below this threshold are read as "compatible".
COMPATIBILITY_THRESHOLD = 1e-6


@dataclass(frozen=True)
class SemiparametricModel:
    """Correspondence plus a moment matrix over the latent grid.

    ``moments[i, j]`` is the i-th moment function evaluated at the j-th latent
    grid node; the restriction on the latent distribution is E[m_i] = 0 for
    every row.
    """

    correspondence: Correspondence
    moments: np.ndarray

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

    def cost_matrix(self, columns: np.ndarray | None = None) -> np.ndarray:
        """1 where the outcome is inadmissible for the latent node, else 0; one
        column per latent index in ``columns``, or per latent node."""
        g = self.correspondence
        columns = np.arange(len(g.latent_support)) if columns is None else columns
        starts = g.indptr[columns]
        sizes = g.indptr[columns + 1] - starts
        # position of each admissible pair of the chosen columns in g.indices
        pos = np.repeat(starts - np.cumsum(sizes) + sizes, sizes) + np.arange(sizes.sum())
        cost = np.ones((len(g.outcome_support), len(columns)))
        cost[g.indices[pos], np.repeat(np.arange(len(columns)), sizes)] = 0.0
        return cost

    def extend_outcomes(self, extra: Sequence[Label]) -> "SemiparametricModel":
        """The model with outcome labels appended that no latent node admits."""
        g = self.correspondence.extend_outcomes(extra)
        if g is self.correspondence:
            return self
        return SemiparametricModel(g, self.moments)

    @cached_property
    def merged_columns(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Latent columns merged exactly on equal (image, moment column).

        Returns the latent index of each class's first occurrence, in
        first-occurrence order, and the cost matrix and moment matrix on those
        columns.  Columns of one class enter the LP and the dual objective
        identically, so the merge changes neither optimum; and the smallest
        latent index attaining a minimum is always a first occurrence, so the
        minimizers keep their tie rule.
        """
        g = self.correspondence
        raw, ends = g.indices.tobytes(), (g.indptr * g.indices.itemsize).tolist()
        images = (raw[a:b] for a, b in zip(ends, ends[1:]))
        classes: dict[tuple[bytes, bytes], int] = {}
        for j, key in enumerate(zip(images, map(bytes, self.moments.T.copy()))):
            classes.setdefault(key, j)
        first = np.fromiter(classes.values(), dtype=np.intp, count=len(classes))
        return first, self.cost_matrix(first), self.moments[:, first]


@dataclass(frozen=True)
class DualCertificate:
    T: float
    lambda_star: np.ndarray
    minimizer_map: dict[Label, Label]    # outcome -> latent node attaining the inner min
    iterations: int                      # HiGHS iterations of the LP

    @property
    def compatible(self) -> bool:
        return self.T <= COMPATIBILITY_THRESHOLD

    def to_json(self) -> dict:
        return {
            "T": self.T,
            "lambda": [float(v) for v in self.lambda_star],
            "compatible": self.compatible,
            "threshold": COMPATIBILITY_THRESHOLD,
            "minimizers": {str(y): str(u) for y, u in self.minimizer_map.items()},
            "iterations": self.iterations,
        }


def _evaluate(model: SemiparametricModel, lam: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-outcome inner minimum and its argmin latent index at multiplier ``lam``."""
    first, cost, moments = model.merged_columns
    penalty = -(lam @ moments) if model.n_moments else np.zeros(cost.shape[1])
    scores = cost + penalty[None, :]
    argmin = scores.argmin(axis=1)  # ties resolved at the smallest latent index
    return scores[np.arange(scores.shape[0]), argmin], first[argmin]


def dual_objective(model: SemiparametricModel, p: FiniteDistribution, lam: Sequence[float]) -> float:
    """Closed-form dual objective T(P, lam), concave in ``lam``."""
    g = model.correspondence
    if p.support != g.outcome_support:
        raise SupportMismatch("p must live on the model's outcome support")
    lam = np.asarray(lam, dtype=float)
    if lam.shape != (model.n_moments,):
        raise SupportMismatch(f"multiplier has shape {lam.shape}, expected ({model.n_moments},)")
    values, _ = _evaluate(model, lam)
    return float(np.asarray(p.masses) @ values)


def maximize_dual(model: SemiparametricModel, p: FiniteDistribution) -> DualCertificate:
    """Maximize the dual objective over multipliers with one exact LP.

    The k = 1 case of :func:`maximize_dual_batch`: one standalone LP, whose
    HiGHS iteration count the certificate reports.
    """
    return maximize_dual_batch(model, [p])[0]


def maximize_dual_batch(
    model: SemiparametricModel, ps: Sequence[FiniteDistribution]
) -> list[DualCertificate]:
    """Maximize the dual objective for each of k outcome distributions of one model.

    Labels of ``ps`` the model does not list are appended to its outcomes with
    an empty preimage, and each distribution is aligned onto them.  The k
    primal LPs share their matrix and cost and differ only in the outcome
    marginals, so they are solved on HiGHS as one block-diagonal LP
    over the model's merged latent columns, split into chunks of at most
    :data:`lp.MAX_NONZEROS` nonzeros.  Each block's multiplier is read from
    the duals of its own moment rows.  The closed-form dual objective at that
    multiplier must equal the cost of the block's coupling (:func:`_certify`);
    T is that closed-form value, and ``iterations`` counts the HiGHS
    iterations of the LP that held the block.  Moments no latent distribution
    on the grid meets (infeasible primal, unbounded dual) raise
    :class:`Infeasible`.
    """
    model = model.extend_outcomes([y for p in ps for y in p.support])
    g = model.correspondence
    n_y = len(g.outcome_support)
    masses = np.array([align(p, g.outcome_support).masses for p in ps]).reshape(len(ps), n_y)
    _, cost, moments = model.merged_columns
    chunk = max(1, lp.MAX_NONZEROS // (cost.size + n_y * np.count_nonzero(moments)))
    certificates = []
    for block in (masses[start:start + chunk] for start in range(0, len(ps), chunk)):
        sol, scales = _solve_primal(cost, moments, block)
        objectives = (sol.x.reshape(len(block), -1) @ cost.ravel()).tolist()
        for weights, duals, objective in zip(block, sol.duals.reshape(len(block), -1), objectives):
            lam = duals[n_y:] / scales + 0.0  # + 0.0 turns -0.0 into 0.0
            value, argmin = _certify(model, weights, lam, objective)
            certificates.append(
                DualCertificate(
                    T=value,
                    lambda_star=lam,
                    minimizer_map={
                        y: g.latent_support[int(j)] for y, j in zip(g.outcome_support, argmin)
                    },
                    iterations=sol.iterations,
                )
            )
    return certificates


def _certify(
    model: SemiparametricModel, weights: np.ndarray, lam: np.ndarray, objective: float
) -> tuple[float, np.ndarray]:
    """The closed form at ``lam`` and its argmin latent indices; raises :class:`CertificateMismatch`
    unless it equals ``objective``, a feasible coupling's cost, to :data:`lp.TOLERANCE`."""
    values, argmin = _evaluate(model, lam)
    value = float(weights @ values)
    if abs(value - objective) > lp.TOLERANCE * (1.0 + abs(objective)):
        raise CertificateMismatch(
            f"dual objective {value!r} at the LP multiplier does not certify "
            f"the primal optimum {objective!r}"
        )
    return value, argmin


def _solve_primal(
    cost: np.ndarray, moments: np.ndarray, masses: np.ndarray
) -> tuple[lp.Solution, np.ndarray]:
    """Solve the primal LP over couplings pi[outcome, column], one block per row of ``masses``.

    A block's variables are its pi flattened row-major; its rows are one
    outcome-marginal row per outcome, then one moment row per moment, scaled
    to unit sup-norm.  Returns the optimal solution and the row scales;
    raises :class:`Infeasible` when no latent distribution on the grid meets
    the moments.
    """
    k, n_y = masses.shape
    d, n_c = moments.shape
    scales = np.abs(moments).max(axis=1, initial=0.0)
    scales[scales == 0] = 1.0
    # a block's variable (i, j) has 1 on marginal row i and the scaled moment
    # column j on the moment rows; built column by column, as CSC stores it
    template = np.vstack([np.ones((1, n_c)), moments / scales[:, None]])
    col, row = np.nonzero(template.T)
    groups = np.arange(k * n_y)[:, None]  # (block, outcome) pairs, block-major
    rows = np.where(row == 0, groups % n_y, n_y - 1 + row) + groups // n_y * (n_y + d)
    indptr = np.concatenate([[0], np.cumsum(np.tile(np.bincount(col, minlength=n_c), k * n_y))])
    a = lp.CscMatrix(
        np.tile(template[row, col], k * n_y), rows.ravel().astype(np.int32),
        indptr.astype(np.int32), (k * (n_y + d), k * n_y * n_c),
    )
    b = np.hstack([masses, np.zeros((k, d))]).ravel()
    program = lp.LinearProgram(c=np.tile(cost.ravel(), k), a=a, b=b)
    try:
        return lp.solve(program), scales
    except Infeasible:
        raise Infeasible(
            "no latent distribution on the grid satisfies the moment restrictions; "
            "the dual is unbounded"
        ) from None


def primal_lp(
    model: SemiparametricModel, p: FiniteDistribution
) -> tuple[float, np.ndarray]:
    """Minimal violation mass over couplings whose latent marginal satisfies
    the moment restrictions.

    Returns the certified optimum and an optimal joint-mass matrix
    pi[outcome, latent].  Raises :class:`Infeasible` when no latent
    distribution on the grid meets the moments.
    """
    if p.support != model.correspondence.outcome_support:
        raise SupportMismatch("p must live on the model's outcome support")
    cost = model.cost_matrix()
    sol, scales = _solve_primal(cost, model.moments, np.array([p.masses]))
    objective = float(sol.x @ cost.ravel())
    _certify(model, np.asarray(p.masses), sol.duals[len(p):] / scales, objective)
    return objective, sol.x.reshape(len(p), -1)

