"""Zero-one-cost transportation between a latent and an outcome distribution.

The parametric compatibility check reduces to a maximum flow on the bipartite
network latent -> admissible outcomes with integer fixed-point capacities,
solved by ``scipy.sparse.csgraph.maximum_flow`` (Dinic's algorithm), so the
verdict is an exact integer comparison.  The network's CSR arrays are written
straight from the correspondence's own ``indptr`` and ``indices``: one arc
per admissible pair, so its size is the number of arcs, not n_y * n_u.  The min-cut side yields a dual
witness set achieving P(A) - capacity(A) = 1 - maxflow.  An outcome of P the
correspondence does not list has an empty preimage, so its mass counts
against the model.

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


@dataclass(frozen=True)
class TransportResult:
    """Solution of the zero-one transportation problem.  The primal value is
    also the dual one: the witness's deficiency, checked equal by the solver."""

    primal_fp: int
    plan: tuple[tuple[Label, Label, int], ...]  # (latent, outcome, fixed-point mass)
    witness: tuple[Label, ...]
    witness_capacity_fp: int

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
            "plan": [[str(u), str(y), m] for u, y, m in self.plan],
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
    capacities.  The witness is the set of outcome nodes not reachable from
    the source in the residual graph (empty when compatible); every maximum
    flow leaves the same such set.  It satisfies P(witness) - capacity(witness)
    = primal exactly in fixed point.  The plan is the flow on the latent ->
    outcome arcs, listed latent-major.
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
    # CSR rows: the source, each latent (its image, ascending), each outcome, the sink
    heads = np.concatenate([1 + np.arange(n_u), 1 + n_u + g.indices, np.full(n_y, sink)])
    indptr = np.concatenate([[0], n_u + g.indptr, n_u + n_arcs + np.arange(1, n_y + 1), [len(heads)]])
    caps = np.concatenate([nu.numerators, np.full(n_arcs, DENOMINATOR), p.numerators])
    net = csr_matrix((caps.astype(np.int32), heads.astype(np.int32), indptr.astype(np.int32)),
                     shape=(sink + 1, sink + 1))

    result = maximum_flow(net, source, sink, method="dinic")
    flow = result.flow
    primal_fp = DENOMINATOR - int(result.flow_value)

    cut = np.zeros(sink + 1, dtype=bool)
    if primal_fp:
        cut[1 + n_u : sink] = True
        cut[breadth_first_order(net - flow > 0, source, return_predecessors=False)] = False
    cut = cut[1 + n_u : sink]
    witness = tuple(map(g.outcome_support.__getitem__, np.flatnonzero(cut).tolist()))
    witness_capacity_fp = capacity_fp(g, nu, witness)
    p_witness_fp = int(np.asarray(p.numerators, dtype=np.int64)[cut].sum())
    if p_witness_fp - witness_capacity_fp != primal_fp:
        raise CertificateMismatch("min-cut witness does not certify the primal value")

    latent = np.repeat(np.arange(n_u), np.diff(g.indptr))
    sent = np.asarray(flow[1 + latent, 1 + n_u + g.indices]).ravel()
    used = np.flatnonzero(sent > 0)
    plan = tuple(zip(
        map(nu.support.__getitem__, latent[used].tolist()),
        map(p.support.__getitem__, g.indices[used].tolist()),
        sent[used].tolist(),
    ))

    return TransportResult(
        primal_fp=primal_fp,
        plan=plan,
        witness=witness,
        witness_capacity_fp=witness_capacity_fp,
    )
