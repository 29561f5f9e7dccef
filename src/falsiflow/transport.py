"""Zero-one-cost transportation between a latent and an outcome distribution.

The parametric compatibility check reduces to a maximum flow on the bipartite
network latent -> admissible outcomes with integer fixed-point capacities, so
the verdict is an exact integer comparison.  The min-cut side yields a dual
witness set achieving P(A) - capacity(A) = 1 - maxflow.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import lp
from .correspondence import Correspondence, capacity_fp
from .errors import CertificateMismatch, LpFailure, SupportMismatch
from .measure import DENOMINATOR, FiniteDistribution, Label


class _Dinic:
    """Max flow with level graphs on integer capacities (adjacency lists)."""

    def __init__(self, n: int):
        self.n = n
        self.graph: list[list[list[int]]] = [[] for _ in range(n)]  # [to, cap, rev]

    def add_edge(self, u: int, v: int, cap: int) -> tuple[int, int]:
        self.graph[u].append([v, cap, len(self.graph[v])])
        self.graph[v].append([u, 0, len(self.graph[u]) - 1])
        return u, len(self.graph[u]) - 1

    def _bfs(self, s: int, t: int) -> bool:
        self.level = [-1] * self.n
        self.level[s] = 0
        dq = deque([s])
        while dq:
            u = dq.popleft()
            for v, cap, _ in self.graph[u]:
                if cap > 0 and self.level[v] < 0:
                    self.level[v] = self.level[u] + 1
                    dq.append(v)
        return self.level[t] >= 0

    def _dfs(self, u: int, t: int, pushed: int) -> int:
        if u == t:
            return pushed
        while self.it[u] < len(self.graph[u]):
            edge = self.graph[u][self.it[u]]
            v, cap, rev = edge
            if cap > 0 and self.level[v] == self.level[u] + 1:
                got = self._dfs(v, t, min(pushed, cap))
                if got:
                    edge[1] -= got
                    self.graph[v][rev][1] += got
                    return got
            self.it[u] += 1
        return 0

    def max_flow(self, s: int, t: int) -> int:
        flow = 0
        while self._bfs(s, t):
            self.it = [0] * self.n
            while True:
                pushed = self._dfs(s, t, 1 << 62)
                if not pushed:
                    break
                flow += pushed
        return flow

    def reachable(self, s: int) -> list[bool]:
        seen = [False] * self.n
        seen[s] = True
        dq = deque([s])
        while dq:
            u = dq.popleft()
            for v, cap, _ in self.graph[u]:
                if cap > 0 and not seen[v]:
                    seen[v] = True
                    dq.append(v)
        return seen


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

    primal = 1 - maxflow; the witness is the set of outcome nodes not reachable
    from the source in the residual graph (empty when compatible), and satisfies
    P(witness) - capacity(witness) = primal exactly in fixed point.
    """
    _check_supports(p, nu, g)
    n_u, n_y = len(nu), len(p)
    source, sink = 0, 1 + n_u + n_y
    net = _Dinic(sink + 1)
    for j, mass in enumerate(nu.numerators):
        net.add_edge(source, 1 + j, mass)
    arc_refs = []
    for j, bits in enumerate(g.image):
        for i in range(n_y):
            if bits >> i & 1:
                arc_refs.append((j, i, net.add_edge(1 + j, 1 + n_u + i, DENOMINATOR)))
    for i, mass in enumerate(p.numerators):
        net.add_edge(1 + n_u + i, sink, mass)

    flow = net.max_flow(source, sink)
    primal_fp = DENOMINATOR - flow

    if primal_fp == 0:
        witness_bits = 0
    else:
        seen = net.reachable(source)
        witness_bits = 0
        for i in range(n_y):
            if not seen[1 + n_u + i]:
                witness_bits |= 1 << i
    dual_fp = sum(n for i, n in enumerate(p.numerators) if witness_bits >> i & 1)
    dual_fp -= capacity_fp(g, nu, witness_bits)
    if dual_fp != primal_fp:
        raise CertificateMismatch("min-cut witness does not certify the primal value")

    plan = []
    for j, i, (node, eidx) in arc_refs:
        sent = net.graph[1 + n_u + i][net.graph[node][eidx][2]][1]
        if sent > 0:
            plan.append((nu.support[j], p.support[i], sent))
    plan.sort(key=lambda rec: (nu.support.index(rec[0]), p.support.index(rec[1])))

    return TransportResult(
        primal_value=primal_fp / DENOMINATOR,
        dual_value=dual_fp / DENOMINATOR,
        primal_fp=primal_fp,
        dual_fp=dual_fp,
        plan=tuple(plan),
        witness=g.labels_of(witness_bits),
        witness_bits=witness_bits,
    )


def solve_general_cost(
    p: FiniteDistribution, nu: FiniteDistribution, cost: Sequence[Sequence[float]]
) -> tuple[float, tuple[tuple[Label, Label, int], ...]]:
    """Exact minimum-cost transportation plan between p and nu.

    ``cost[i][j]`` is the cost of pairing outcome i with latent j.  The plan is
    reported in fixed-point masses with exactly matching marginals.
    """
    cost = np.asarray(cost, dtype=float)
    n_y, n_u = len(p), len(nu)
    if cost.shape != (n_y, n_u):
        raise SupportMismatch(f"cost shape {cost.shape} does not match {(n_y, n_u)}")
    if not np.all(np.isfinite(cost)) or np.any(cost < 0):
        raise LpFailure("costs must be finite and nonnegative")

    # variables pi[i, j] flattened row-major
    n = n_y * n_u
    rows = []
    rhs = []
    for i in range(n_y):
        row = np.zeros(n)
        row[i * n_u : (i + 1) * n_u] = 1.0
        rows.append(row)
        rhs.append(p.numerators[i] / DENOMINATOR)
    for j in range(n_u):
        row = np.zeros(n)
        row[j::n_u] = 1.0
        rows.append(row)
        rhs.append(nu.numerators[j] / DENOMINATOR)
    program = lp.LinearProgram(
        c=cost.ravel(),
        a=np.array(rows),
        b=np.array(rhs),
        senses=("=",) * (n_y + n_u),
    )
    sol = lp.solve(program)
    if sol.status is not lp.Status.OPTIMAL:
        raise LpFailure(f"transportation LP returned {sol.status}")

    plan_fp = np.rint(sol.x.reshape(n_y, n_u) * DENOMINATOR).astype(np.int64)
    if (plan_fp < 0).any():
        raise LpFailure("negative plan mass after rounding")
    if (plan_fp.sum(axis=1) != np.array(p.numerators)).any() or (
        plan_fp.sum(axis=0) != np.array(nu.numerators)
    ).any():
        raise LpFailure("rounded plan does not reproduce the marginals exactly")

    plan = tuple(
        (nu.support[j], p.support[i], int(plan_fp[i, j]))
        for j in range(n_u)
        for i in range(n_y)
        if plan_fp[i, j] > 0
    )
    return float(sol.objective), plan


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
    p_w = sum(n for i, n in enumerate(p.numerators) if result.witness_bits >> i & 1)
    cap_w = capacity_fp(g, nu, result.witness_bits)
    return Verdict(
        compatible=result.compatible,
        result=result,
        witness_probability=p_w / DENOMINATOR,
        witness_capacity=cap_w / DENOMINATOR,
    )
