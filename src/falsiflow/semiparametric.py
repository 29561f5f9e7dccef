"""Moment-restriction compatibility: the dual statistic over multipliers,
certified by one primal LP.

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
(:attr:`SemiparametricModel.merged_columns`).  The primal LPs of k outcome
distributions of one model differ only in their right-hand side, so
:func:`maximize_dual_batch` covers them, given as mass rows, with few optimal
bases: an LP's basis serves every distribution whose basic solution under it
is feasible, and its multiplier is then their optimal multiplier.  Each
distribution passes its own closed-form certificate.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

from . import lp
from .correspondence import Correspondence
from .errors import CertificateMismatch, Infeasible, SupportMismatch
from .measure import FiniteDistribution, Label

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
        # cost 0 at each admissible (outcome, column) pair, found by its position in g.indices
        starts = g.indptr[first]
        sizes = g.indptr[first + 1] - starts
        pos = np.repeat(starts - np.cumsum(sizes) + sizes, sizes) + np.arange(sizes.sum())
        cost = np.ones((len(g.outcome_support), len(first)))
        cost[g.indices[pos], np.repeat(np.arange(len(first)), sizes)] = 0.0
        return first, cost, self.moments[:, first]


@dataclass(frozen=True)
class DualCertificate:
    T: float
    lambda_star: np.ndarray
    minimizer_map: dict[Label, Label]    # outcome -> latent node attaining the inner min
    iterations: int                      # HiGHS iterations of the LP whose basis gave lambda_star

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

    The k = 1 case of :func:`maximize_dual_batch`, ``p`` as one mass row: one
    standalone LP, whose HiGHS iteration count the certificate reports.
    """
    return maximize_dual_batch(model, p.support, np.array([p.masses]))[0]


def maximize_dual_batch(
    model: SemiparametricModel, support: Sequence[Label], masses: np.ndarray
) -> list[DualCertificate]:
    """Maximize the dual objective for each of k outcome distributions of one model.

    The distributions are the k rows of ``masses`` over the distinct labels
    ``support``.  Labels the model does not list are appended to its outcomes,
    in ``support`` order, with an empty preimage.  The k primal LPs over the
    model's merged latent columns share their matrix and cost and differ
    only in the outcome marginals.  So the first pending
    distribution is solved by its own LP on HiGHS, and every other pending
    one whose basic solution under that LP's optimal basis is feasible
    (:func:`lp.basic_solutions`) takes that coupling, optimal for it, and the
    LP's multiplier, read from the duals of the moment rows; this repeats
    until none is pending.  The closed-form dual objective at the multiplier
    must equal the cost of each distribution's coupling (:func:`_certify`); T
    is that closed-form value, and ``iterations`` counts the HiGHS iterations
    of the LP whose basis it took.  Moments no latent distribution on the
    grid meets (infeasible primal, unbounded dual) raise :class:`Infeasible`.
    """
    g = model.correspondence.extend_outcomes(support)
    model = SemiparametricModel(g, model.moments) if g is not model.correspondence else model
    n_y = len(g.outcome_support)
    index = {y: i for i, y in enumerate(g.outcome_support)}
    rows = np.zeros((len(masses), n_y))
    rows[:, [index[y] for y in support]] = masses
    _, cost, moments = model.merged_columns
    rhs = np.hstack([rows, np.zeros((len(rows), moments.shape[0]))])
    a, scales = _primal_matrix(n_y, moments)
    c = cost.ravel()
    certificates: list[DualCertificate | None] = [None] * len(rows)
    pending = np.arange(len(rows))
    while pending.size:
        first, rest = pending[0], pending[1:]
        try:
            sol = lp.solve(lp.LinearProgram(c=c, a=a, b=rhs[first]))
        except Infeasible:
            raise Infeasible(
                "no latent distribution on the grid satisfies the moment restrictions; "
                "the dual is unbounded"
            ) from None
        lam = sol.duals[n_y:] / scales + 0.0  # + 0.0 turns -0.0 into 0.0
        values, argmin = _evaluate(model, lam)
        minimizers = {y: g.latent_support[int(j)] for y, j in zip(g.outcome_support, argmin)}
        x_basic, covered = lp.basic_solutions(a, sol.basis, rhs[rest])
        objectives = [float(sol.x @ c), *(x_basic[covered] @ c[sol.basis]).tolist()]
        for i, objective in zip([first, *rest[covered]], objectives):
            certificates[i] = DualCertificate(
                T=_certify(values, rows[i], objective),
                lambda_star=lam.copy(),
                minimizer_map=dict(minimizers),
                iterations=sol.iterations,
            )
        pending = rest[~covered]
    return certificates


def _certify(values: np.ndarray, weights: np.ndarray, objective: float) -> float:
    """The closed form ``weights @ values`` at a multiplier whose inner minima
    are ``values`` (:func:`_evaluate`); raises :class:`CertificateMismatch`
    unless it equals ``objective``, a feasible coupling's cost, to :data:`lp.TOLERANCE`."""
    value = float(weights @ values)
    if abs(value - objective) > lp.TOLERANCE * (1.0 + abs(objective)):
        raise CertificateMismatch(
            f"dual objective {value!r} at the LP multiplier does not certify "
            f"the primal optimum {objective!r}"
        )
    return value


def _primal_matrix(n_y: int, moments: np.ndarray) -> tuple[lp.CscMatrix, np.ndarray]:
    """The constraint matrix of the primal LP over couplings pi[outcome, column], and its moment-row scales.

    The variables are pi flattened row-major; the rows are one
    outcome-marginal row per outcome, then one moment row per moment, scaled
    to unit sup-norm.  The right-hand side is the outcome masses followed by
    one 0 per moment, and the cost is the cost matrix flattened row-major.
    """
    d, n_c = moments.shape
    scales = np.abs(moments).max(axis=1, initial=0.0)
    scales[scales == 0] = 1.0
    # variable (i, j) has 1 on marginal row i and the scaled moment column j
    # on the moment rows; built column by column, as CSC stores it
    template = np.vstack([np.ones((1, n_c)), moments / scales[:, None]])
    col, row = np.nonzero(template.T)
    rows = np.where(row == 0, np.arange(n_y)[:, None], n_y - 1 + row)
    indptr = np.concatenate([[0], np.cumsum(np.tile(np.bincount(col, minlength=n_c), n_y))])
    a = lp.CscMatrix(
        np.tile(template[row, col], n_y), rows.ravel().astype(np.int32),
        indptr.astype(np.int32), (n_y + d, n_y * n_c),
    )
    return a, scales
