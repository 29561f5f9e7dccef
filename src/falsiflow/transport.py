"""Zero-one-cost transportation between a latent and an outcome distribution.

The parametric compatibility check reduces to a maximum flow on the bipartite
network latent -> admissible outcomes with integer fixed-point capacities,
solved by ``scipy.sparse.csgraph.maximum_flow`` (Dinic's algorithm), so the
verdict is an exact integer comparison.  The network's CSR arrays are written
straight from the correspondence's own ``indptr`` and ``indices``: one arc
per admissible pair, so its size is the number of arcs, not n_y * n_u.  The
plan (the primal) and the min-cut side, a witness set achieving P(A) -
capacity(A) = 1 - maxflow (the dual), are read off the flow's own CSR arrays.
An outcome of P the correspondence does not list has an empty preimage, so its
mass counts against the model.

csgraph is imported inside :func:`solve_zero_one`, not with this module: it
and ``scipy.sparse`` cost a start-up about 0.35 s, which the commands that
run no max flow (the half-line and semiparametric tests, ``simulate``) need
not pay.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .correspondence import Correspondence, capacity_fp
from .errors import CertificateMismatch, SupportMismatch
from .measure import DENOMINATOR, FiniteDistribution, Label, align


@dataclass(frozen=True, eq=False)
class TransportResult:
    """Solution of the zero-one transportation problem.  The primal value is
    also the dual one: the witness's deficiency, checked equal by the solver.

    The plan, latent-major, sends the fixed-point mass ``plan_mass[k]`` from
    ``latent_support[plan_latent[k]]`` to ``outcome_support[plan_outcome[k]]``;
    the outcomes are the correspondence's and then the labels of P it does
    not list.  ``==`` compares every field, the arrays by value.
    """

    primal_fp: int
    witness: tuple[Label, ...]
    witness_capacity_fp: int
    latent_support: tuple[Label, ...]
    outcome_support: tuple[Label, ...]
    plan_latent: np.ndarray
    plan_outcome: np.ndarray
    plan_mass: np.ndarray  # int64

    def __eq__(self, other):
        if not isinstance(other, TransportResult):
            return NotImplemented
        return all(np.array_equal(a, b) if isinstance(a, np.ndarray) else a == b
                   for a, b in zip(vars(self).values(), vars(other).values()))

    @property
    def compatible(self) -> bool:
        return self.primal_fp == 0

    @property
    def primal_value(self) -> float:
        return self.primal_fp / DENOMINATOR

    @property
    def witness_probability(self) -> float:
        return (self.primal_fp + self.witness_capacity_fp) / DENOMINATOR

    @property
    def witness_capacity(self) -> float:
        return self.witness_capacity_fp / DENOMINATOR

    def to_json(self) -> dict:
        obj = {
            "primal": self.primal_value,
            "dual": self.primal_value,
            "compatible": self.compatible,
            "witness": [str(y) for y in self.witness],
            "plan": [[str(self.latent_support[j]), str(self.outcome_support[i]), m] for j, i, m
                     in zip(self.plan_latent.tolist(), self.plan_outcome.tolist(), self.plan_mass.tolist())],
        }
        if not self.compatible:
            obj["witness_probability"] = self.witness_probability
            obj["witness_capacity"] = self.witness_capacity
        return obj


def solve_zero_one(
    p: FiniteDistribution, nu: FiniteDistribution, g: Correspondence
) -> TransportResult:
    """Minimal violation mass of any coupling of nu and p along the correspondence.

    Labels of ``p`` that ``g`` does not list are appended to its outcomes with
    an empty preimage, and ``p`` is aligned onto them.  primal = 1 - maxflow,
    with the maximum flow from scipy's csgraph solver on int32 fixed-point
    capacities.  Both results are read off the flow's own CSR arrays.  The plan
    is the flow on the latent -> outcome arcs that carry mass.  The witness is
    the set of outcome nodes not reachable from the source along the arcs and
    reverse arcs with cap - flow > 0 (empty when compatible); every maximum flow
    leaves the same such set.  It satisfies P(witness) - capacity(witness) =
    primal exactly in fixed point.
    """
    # imported here, so that commands that run no max flow never load scipy.sparse
    from scipy.sparse import csr_matrix
    from scipy.sparse.csgraph import breadth_first_order, maximum_flow

    if nu.support != g.latent_support:
        raise SupportMismatch("nu must live on the latent support of the correspondence")
    g = g.extend_outcomes(p.support)
    p = align(p, g.outcome_support)
    n_u, n_y, n_arcs = len(nu), len(p), len(g.indices)
    source, sink = 0, 1 + n_u + n_y
    n = sink + 1
    # CSR rows: the source, each latent (its image, ascending), each outcome, the sink
    heads = np.concatenate([1 + np.arange(n_u), 1 + n_u + g.indices, np.full(n_y, sink)])
    indptr = np.concatenate([[0], n_u + g.indptr, n_u + n_arcs + np.arange(1, n_y + 1), [len(heads)]])
    caps = np.concatenate([nu.numerators, np.full(n_arcs, DENOMINATOR), p.numerators])
    net = csr_matrix((caps.astype(np.int32), heads.astype(np.int32), indptr.astype(np.int32)),
                     shape=(n, n))

    result = maximum_flow(net, source, sink, method="dinic")
    flow = result.flow
    primal_fp = DENOMINATOR - int(result.flow_value)
    # every arc runs to a higher node, so the flow's CSR, which adds each arc's
    # reverse and keeps rows sorted, holds the arcs above its diagonal in net's order
    tails = np.repeat(np.arange(n), np.diff(flow.indptr))
    arcs = np.flatnonzero(flow.indices > tails)

    cut = np.zeros(n, dtype=bool)
    if primal_fp:
        residual = -flow.data.astype(np.int64)  # cap - flow, a reverse arc having cap 0
        residual[arcs] += caps
        kept = residual > 0
        starts = np.concatenate([[0], np.cumsum(kept)])[flow.indptr]
        graph = csr_matrix((np.ones(starts[-1]), flow.indices[kept], starts), shape=(n, n))
        cut[1 + n_u : sink] = True
        cut[breadth_first_order(graph, source, return_predecessors=False)] = False
    cut = cut[1 + n_u : sink]
    witness = tuple(map(g.outcome_support.__getitem__, np.flatnonzero(cut).tolist()))
    witness_capacity_fp = capacity_fp(g, nu, witness)
    p_witness_fp = int(np.asarray(p.numerators, dtype=np.int64)[cut].sum())
    if p_witness_fp - witness_capacity_fp != primal_fp:
        raise CertificateMismatch("min-cut witness does not certify the primal value")

    pairs = arcs[n_u : n_u + n_arcs]
    sent = flow.data[pairs].astype(np.int64)
    used = np.flatnonzero(sent > 0)
    return TransportResult(
        primal_fp=primal_fp,
        witness=witness,
        witness_capacity_fp=witness_capacity_fp,
        latent_support=nu.support,
        outcome_support=g.outcome_support,
        plan_latent=tails[pairs[used]] - 1,
        plan_outcome=g.indices[used],
        plan_mass=sent[used],
    )
