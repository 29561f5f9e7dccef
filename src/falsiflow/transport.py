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
    """Primal/dual solution of the zero-one transportation problem."""

    primal_value: float
    dual_value: float
    primal_fp: int
    dual_fp: int
    plan: tuple[tuple[Label, Label, int], ...]  # (latent, outcome, fixed-point mass)
    witness: tuple[Label, ...]
    witness_bits: int

    @property
    def compatible(self) -> bool:
        return self.primal_fp == 0

    def to_json(self) -> dict:
        return {
            "primal": self.primal_value,
            "dual": self.dual_value,
            "compatible": self.compatible,
            "witness": [str(y) for y in self.witness],
            "plan": [[str(u), str(y), m] for u, y, m in self.plan],
        }


def _check_supports(p: FiniteDistribution, nu: FiniteDistribution, g: Correspondence):
    if p.support != g.outcome_support:
        raise SupportMismatch("p must live on the outcome support of the correspondence")
    if nu.support != g.latent_support:
        raise SupportMismatch("nu must live on the latent support of the correspondence")


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
    _check_supports(p, nu, g)
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
    dual_fp = int(np.asarray(p.numerators, dtype=np.int64)[cut].sum())
    dual_fp -= capacity_fp(g, nu, witness_bits)
    if dual_fp != primal_fp:
        raise CertificateMismatch("min-cut witness does not certify the primal value")

    sent = np.asarray(flow[1 + latent, 1 + n_u + outcome]).ravel()
    used = sent > 0
    plan = tuple(
        (nu.support[j], p.support[i], int(m))
        for j, i, m in zip(latent[used], outcome[used], sent[used])
    )

    return TransportResult(
        primal_value=primal_fp / DENOMINATOR,
        dual_value=dual_fp / DENOMINATOR,
        primal_fp=primal_fp,
        dual_fp=dual_fp,
        plan=plan,
        witness=g.labels_of(witness_bits),
        witness_bits=witness_bits,
    )


@dataclass(frozen=True)
class Verdict:
    compatible: bool
    result: TransportResult
    witness_probability: float
    witness_capacity: float

    def to_json(self) -> dict:
        obj = self.result.to_json()
        if not self.compatible:
            obj["witness_probability"] = self.witness_probability
            obj["witness_capacity"] = self.witness_capacity
        return obj


def compatibility_verdict(
    p: FiniteDistribution, nu: FiniteDistribution, g: Correspondence
) -> Verdict:
    """Decide compatibility; the certificate is the plan or the witness set."""
    result = solve_zero_one(p, nu, g)
    cap_w = capacity_fp(g, nu, result.witness_bits)
    p_w = result.dual_fp + cap_w
    return Verdict(
        compatible=result.compatible,
        result=result,
        witness_probability=p_w / DENOMINATOR,
        witness_capacity=cap_w / DENOMINATOR,
    )
