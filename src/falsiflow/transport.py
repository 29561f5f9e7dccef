"""Zero-one-cost transportation between a latent and an outcome distribution.

The parametric compatibility check reduces to a maximum flow on the bipartite
network latent -> admissible outcomes with integer fixed-point capacities,
solved by ``scipy.sparse.csgraph.maximum_flow`` (Dinic's algorithm), so the
verdict is an exact integer comparison.  The min-cut side yields a dual
witness set achieving P(A) - capacity(A) = 1 - maxflow.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import breadth_first_order, maximum_flow

from .correspondence import Correspondence, capacity_fp
from .errors import CertificateMismatch, SupportMismatch
from .measure import DENOMINATOR, FiniteDistribution, Label


@dataclass(frozen=True)
class TransportResult:
    """Solution of the zero-one transportation problem.  The primal value is
    also the dual one: the witness's deficiency, checked equal by the solver."""

    primal_fp: int
    plan: tuple[tuple[Label, Label, int], ...]  # (latent, outcome, fixed-point mass)
    witness: tuple[Label, ...]
    witness_bits: int
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

    primal = 1 - maxflow, with the maximum flow from scipy's csgraph solver on
    int32 fixed-point capacities.  The witness is the set of outcome nodes not
    reachable from the source in the residual graph (empty when compatible);
    every maximum flow leaves the same such set.  It satisfies
    P(witness) - capacity(witness) = primal exactly in fixed point.  The plan is
    the flow on the latent -> outcome arcs, listed latent-major.
    """
    if p.support != g.outcome_support:
        raise SupportMismatch("p must live on the outcome support of the correspondence")
    if nu.support != g.latent_support:
        raise SupportMismatch("nu must live on the latent support of the correspondence")
    n_u, n_y = len(nu), len(p)
    source, sink = 0, 1 + n_u + n_y
    # latent-major, the order in which the plan is listed
    latent, outcome = np.nonzero(g.adjacency_matrix().T)
    tails = np.concatenate([np.zeros(n_u, dtype=np.intp), 1 + latent, 1 + n_u + np.arange(n_y)])
    heads = np.concatenate([1 + np.arange(n_u), 1 + n_u + outcome, np.full(n_y, sink)])
    caps = np.concatenate([nu.numerators, np.full(len(latent), DENOMINATOR), p.numerators])
    net = csr_matrix((caps.astype(np.int32), (tails, heads)), shape=(sink + 1, sink + 1))

    result = maximum_flow(net, source, sink, method="dinic")
    flow = result.flow
    primal_fp = DENOMINATOR - int(result.flow_value)

    cut = np.zeros(sink + 1, dtype=bool)
    if primal_fp:
        cut[1 + n_u : sink] = True
        cut[breadth_first_order(net - flow > 0, source, return_predecessors=False)] = False
    cut = cut[1 + n_u : sink]
    witness_bits = int.from_bytes(np.packbits(cut, bitorder="little").tobytes(), "little")
    witness_capacity_fp = capacity_fp(g, nu, witness_bits)
    p_witness_fp = int(np.asarray(p.numerators, dtype=np.int64)[cut].sum())
    if p_witness_fp - witness_capacity_fp != primal_fp:
        raise CertificateMismatch("min-cut witness does not certify the primal value")

    sent = np.asarray(flow[1 + latent, 1 + n_u + outcome]).ravel()
    used = sent > 0
    plan = tuple(
        (nu.support[j], p.support[i], int(m))
        for j, i, m in zip(latent[used], outcome[used], sent[used])
    )

    return TransportResult(
        primal_fp=primal_fp,
        plan=plan,
        witness=g.labels_of(witness_bits),
        witness_bits=witness_bits,
        witness_capacity_fp=witness_capacity_fp,
    )
