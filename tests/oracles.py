"""Test oracles: independent formulations the package's solvers are checked
against, and helpers that read a correspondence beside its own methods.

The package answers compatibility with one exact solver, the max flow of
``transport.solve_zero_one`` and its min-cut witness.  The paper states the
same fact two more ways, and this module keeps them for the tests:

- the capacity inequalities P(A) <= capacity(A) over every outcome set A, by
  a subset-sum table over all 2^k sets (``deficiency_table``,
  ``core_deficiency_bruteforce``), and over the interval classes of ordered
  outcomes (``interval_deficiency``);
- the selections of the correspondence (``enumerate_selections``,
  ``selection_minimax_check``).

For moment restrictions the package solves one primal LP on merged latent
columns (``semiparametric.maximize_dual``).  Here the paper's transport LP
and its dual are written out densely on every latent, unscaled, and solved
with scipy's ``linprog`` (``primal_lp_oracle``, ``dual_lp_oracle``).

``min_cut_oracle`` is the max flow's earlier read-out, kept as the reference
for the one the package does on the flow's CSR arrays: the residual graph as
scipy.sparse arithmetic (``net - flow > 0``) and the plan as the flow matrix
indexed at each admissible pair.

It also keeps the total variation distance, which the identity
correspondence reduces the transport value to, a direct sampler of a finite
distribution, and ``mass_rows``, which lays distributions out as the rows
``maximize_dual_batch`` takes.  Outcome sets are int bitsets over outcome
indices here; ``g.labels_of(bits)`` gives the labels that ``capacity`` takes.  The helpers
read the relation through its derived bitsets (``Correspondence.image``) or
its index slices, so that they check the stored arrays from another side.
"""

import itertools
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np
from scipy.optimize import linprog

from falsiflow.correspondence import Correspondence, ascending, capacity_fp, max_halfline_deficiency_fp
from falsiflow.errors import FalsiflowError, SupportMismatch
from falsiflow.measure import DENOMINATOR, FiniteDistribution, Label, align
from falsiflow.models import simulate

#: Guard on exhaustive subset enumeration.
BRUTEFORCE_MAX_OUTCOMES = 20

#: Guard on selection enumeration (product of image sizes).
MAX_SELECTIONS = 10**6


class SupportTooLarge(FalsiflowError):
    pass


class TooManySelections(FalsiflowError):
    pass


def from_bitsets(latents: Sequence[Label], outcomes: Sequence[Label], images: Sequence[int]) -> Correspondence:
    """The correspondence in which ``latents[j]`` admits the outcome indices set in ``images[j]``."""
    return Correspondence.from_map(
        {u: [y for i, y in enumerate(outcomes) if bits >> i & 1] for u, bits in zip(latents, images)},
        outcome_support=outcomes,
    )


def outcomes_of(g: Correspondence, u: Label) -> tuple[Label, ...]:
    """The admissible outcomes of latent ``u``, in support order; ValueError for an unknown ``u``."""
    j = g.latent_support.index(u)
    return tuple(g.outcome_support[i] for i in g.indices[g.indptr[j] : g.indptr[j + 1]])


def preimage(g: Correspondence, a: int | Sequence[Label]) -> tuple[Label, ...]:
    """Latent labels whose image intersects the outcome set ``a``.

    ``a`` is a bitset over outcome indices or a sequence of outcome labels.
    """
    bits = a if isinstance(a, int) else g.bitset_of(a)
    return tuple(u for u, img in zip(g.latent_support, g.image) if img & bits)


def to_json(g: Correspondence) -> dict:
    """The ``custom`` spec form of ``g``, every label written as text.

    Numeric labels therefore come back from ``Correspondence.from_json`` as
    text, so this round trip holds for text labels only.
    """
    return {
        "latent": [str(u) for u in g.latent_support],
        "outcomes": [str(y) for y in g.outcome_support],
        "G": {str(u): [str(y) for y in outcomes_of(g, u)] for u in g.latent_support},
    }


def total_variation(p: FiniteDistribution, q: FiniteDistribution) -> float:
    """Total variation distance: the largest excess of p over q on any subset.

    Equals sum_y max(p(y) - q(y), 0) on finite supports.
    """
    return total_variation_fp(p, q) / DENOMINATOR


def total_variation_fp(p: FiniteDistribution, q: FiniteDistribution) -> int:
    """Exact fixed-point total variation (integer numerator)."""
    p_mass = dict(zip(p.support, p.numerators))
    q_mass = dict(zip(q.support, q.numerators))
    labels = list(p.support) + [lab for lab in q.support if lab not in p_mass]
    return sum(max(p_mass.get(lab, 0) - q_mass.get(lab, 0), 0) for lab in labels)


def interval_deficiency(
    g: Correspondence, nu: FiniteDistribution, p: FiniteDistribution
) -> tuple[int, tuple[Label, ...], str]:
    """Largest deficiency over interval outcome classes [min, y] and [y, max].

    Outcome labels must be totally ordered (numeric, no NaN), else
    :class:`~falsiflow.errors.NotOrdered` is raised.  Returns the fixed-point
    maximum (at least 0, attained by the empty class), the maximizing class and
    its kind ("lower", "upper" or "empty").  The classes are scanned by the
    prefix sums of :func:`~falsiflow.correspondence.max_halfline_deficiency_fp`;
    ties go to the earliest class in ascending y, lower before upper.
    """
    order = ascending(g.outcome_support)
    # cut k: the lower class holds ranks 0..k, the upper class ranks k..max
    value, labels, is_upper = max_halfline_deficiency_fp(
        g, nu, p, order, np.arange(1, len(order) + 1), np.arange(len(order))
    )
    if value <= 0:
        return 0, (), "empty"
    return value, labels, "upper" if is_upper else "lower"


def cost_matrix(g: Correspondence) -> np.ndarray:
    """The zero-one transport cost: 1 where outcome i is inadmissible for latent j, else 0."""
    return 1.0 - g.adjacency_matrix()


def primal_lp_oracle(model, p: FiniteDistribution) -> tuple[float, np.ndarray]:
    """T(P) as the unmerged primal LP  min sum pi(y, u) cost(y, u)  over couplings
    pi >= 0 with outcome marginal P whose latent marginal mu has sum_u mu(u) m(u) = 0,
    one variable per (outcome, latent node).  Returns T and the optimal pi[outcome, latent]."""
    g = model.correspondence
    if p.support != g.outcome_support:
        raise SupportMismatch("p must live on the model's outcome support")
    n_y, n_u = len(g.outcome_support), len(g.latent_support)
    a_eq = np.vstack([np.kron(np.eye(n_y), np.ones(n_u)), np.tile(model.moments, n_y)])
    b_eq = np.concatenate([p.masses, np.zeros(model.n_moments)])
    res = linprog(cost_matrix(g).ravel(), A_eq=a_eq, b_eq=b_eq, bounds=(0, None), method="highs")
    assert res.status == 0, res.message
    return float(res.fun), res.x.reshape(n_y, n_u)


def dual_lp_oracle(model, p: FiniteDistribution) -> float:
    """T(P) as the dual LP  max sum_y P(y) f_y  s.t.  f_y + lambda'm(u) <= cost(y, u),
    f and lambda free."""
    g = model.correspondence
    n_y, n_u = len(g.outcome_support), len(g.latent_support)
    a = np.hstack([np.repeat(np.eye(n_y), n_u, axis=0), np.tile(model.moments.T, (n_y, 1))])
    c = np.concatenate([-np.asarray(p.masses), np.zeros(model.n_moments)])
    res = linprog(c, A_ub=a, b_ub=cost_matrix(g).ravel(), bounds=(None, None), method="highs")
    assert res.status == 0, res.message
    return -res.fun


def mass_rows(ps: Sequence[FiniteDistribution]) -> tuple[list[Label], np.ndarray]:
    """The labels of ``ps`` in order of first appearance, and one row of masses
    per distribution over them: the form ``maximize_dual_batch`` takes."""
    support = list(dict.fromkeys(y for p in ps for y in p.support))
    masses = np.array([[p.mass(y) for y in support] for p in ps]).reshape(len(ps), len(support))
    return support, masses


def sample_distribution(p: FiniteDistribution, n: int, seed: int) -> list[Label]:
    """Draw n i.i.d. outcomes directly from a finite distribution."""
    identity = Correspondence.from_map({y: [y] for y in p.support}, outcome_support=p.support)
    nu = FiniteDistribution(p.support, p.numerators)
    return simulate(identity, nu, "first", n, seed)


@dataclass(frozen=True)
class DeficiencyReport:
    """Exhaustive maximum of P(A) - capacity(A) with a canonical witness."""

    value: float          # clamped at 0
    raw: float            # unclamped maximum
    value_fp: int
    raw_fp: int
    witness_bits: int
    witness: tuple[Label, ...]


def _subset_sum_transform(point_masses: np.ndarray, k: int) -> np.ndarray:
    """In-place zeta transform: out[A] = sum of point_masses over subsets of A."""
    arr = point_masses.copy()
    for bit in range(k):
        step = 1 << bit
        view = arr.reshape(-1, 2 * step)
        view[:, step:] += view[:, :step]
    return arr


def deficiency_table(
    g: Correspondence, nu: FiniteDistribution, p: FiniteDistribution
) -> np.ndarray:
    """Fixed-point deficiency P(A) - capacity(A) for every outcome subset A.

    Index ``A`` is the outcome-index bitset.  Exact int64 arithmetic.
    """
    k = len(g.outcome_support)
    if k > BRUTEFORCE_MAX_OUTCOMES:
        raise SupportTooLarge(f"{k} outcomes exceeds the brute-force guard ({BRUTEFORCE_MAX_OUTCOMES})")
    if p.support != g.outcome_support:
        raise SupportMismatch("p must live on the outcome support of the correspondence")
    if nu.support != g.latent_support:
        raise SupportMismatch("nu must live on the latent support of the correspondence")

    size = 1 << k
    p_point = np.zeros(size, dtype=np.int64)
    for i, n in enumerate(p.numerators):
        p_point[1 << i] = n
    p_of = _subset_sum_transform(p_point, k)

    # capacity(A) = 1 - mass of latents whose whole image avoids A
    inside = np.zeros(size, dtype=np.int64)
    for n, img in zip(nu.numerators, g.image):
        inside[img] += n
    h = _subset_sum_transform(inside, k)          # h[B] = nu{u : image(u) subset of B}
    flip = (size - 1) ^ np.arange(size)
    cap = DENOMINATOR - h[flip]
    return p_of - cap


def _canonical_argmax(table: np.ndarray) -> int:
    """Maximizer bitset with smallest cardinality, ties by lexicographic index order."""
    best = int(table.max())
    candidates = np.flatnonzero(table == best)
    popcounts = np.array([int(a).bit_count() for a in candidates])
    candidates = candidates[popcounts == popcounts.min()]

    def lex_key(mask: int) -> tuple:
        return tuple(i for i in range(64) if mask >> i & 1)

    return int(min((int(a) for a in candidates), key=lex_key))


def core_deficiency_bruteforce(
    g: Correspondence, nu: FiniteDistribution, p: FiniteDistribution
) -> DeficiencyReport:
    """Exhaustively maximize P(A) - capacity(A) over all outcome subsets.

    The maximum is nonnegative (the empty set attains 0); a strictly positive
    value falsifies the model and the witness is the canonical maximizer.
    """
    table = deficiency_table(g, nu, p)
    raw = int(table.max())
    bits = _canonical_argmax(table)
    value = max(raw, 0)
    return DeficiencyReport(
        value=value / DENOMINATOR,
        raw=raw / DENOMINATOR,
        value_fp=value,
        raw_fp=raw,
        witness_bits=bits,
        witness=g.labels_of(bits),
    )


def min_cut_oracle(
    p: FiniteDistribution, nu: FiniteDistribution, g: Correspondence
) -> tuple[int, tuple[Label, ...], int, tuple[tuple[Label, Label, int], ...]]:
    """(primal_fp, witness, witness_capacity_fp, plan) of the zero-one transport,
    read off scipy's max flow with sparse arithmetic: the witness is the set of
    outcomes that a breadth-first search of ``net - flow > 0`` does not reach,
    and the plan lists (latent, outcome, fixed-point mass) latent-major, read
    as ``flow[rows, cols]``."""
    from scipy.sparse import csr_matrix
    from scipy.sparse.csgraph import breadth_first_order, maximum_flow

    g = g.extend_outcomes(p.support)
    p = align(p, g.outcome_support)
    n_u, n_y, n_arcs = len(nu), len(p), len(g.indices)
    source, sink = 0, 1 + n_u + n_y
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

    latent = np.repeat(np.arange(n_u), np.diff(g.indptr))
    sent = np.asarray(flow[1 + latent, 1 + n_u + g.indices]).ravel()
    used = np.flatnonzero(sent > 0)
    plan = tuple(zip(
        map(nu.support.__getitem__, latent[used].tolist()),
        map(p.support.__getitem__, g.indices[used].tolist()),
        sent[used].tolist(),
    ))
    return primal_fp, witness, capacity_fp(g, nu, witness), plan


def enumerate_selections(g: Correspondence) -> Iterator[dict[Label, Label]]:
    """Yield every single-valued map u -> y with y admissible for u.

    Lexicographic over the per-latent outcome index choices.
    """
    choices = []
    count = 1
    for bits in g.image:
        opts = [i for i in range(len(g.outcome_support)) if bits >> i & 1]
        count *= len(opts)
        if count > MAX_SELECTIONS:
            raise TooManySelections(f"more than {MAX_SELECTIONS} selections")
        choices.append(opts)
    for combo in itertools.product(*choices):
        yield {u: g.outcome_support[i] for u, i in zip(g.latent_support, combo)}


@dataclass(frozen=True)
class MinimaxReport:
    """Diagnostic comparison of the selection minimax with the capacity deficiency."""

    lhs: float
    rhs: float
    lhs_fp: int
    rhs_fp: int
    equal: bool
    best_selection: dict[Label, Label]


def selection_minimax_check(
    g: Correspondence, nu: FiniteDistribution, p: FiniteDistribution
) -> MinimaxReport:
    """Compare min over selections of the worst-set excess with the capacity bound.

    lhs = min_s max_A [P(A) - (nu s^{-1})(A)]; rhs is the brute-force deficiency.
    Reported, not asserted: the equality is known to hold only under conditions
    on the instance.
    """
    rhs = core_deficiency_bruteforce(g, nu, p)
    best_fp = None
    best_sel: dict[Label, Label] = {}
    index = {y: i for i, y in enumerate(g.outcome_support)}
    for sel in enumerate_selections(g):
        push = [0] * len(g.outcome_support)
        for n, u in zip(nu.numerators, g.latent_support):
            push[index[sel[u]]] += n
        tv = sum(max(pn - qn, 0) for pn, qn in zip(p.numerators, push))
        if best_fp is None or tv < best_fp:
            best_fp, best_sel = tv, sel
    assert best_fp is not None
    return MinimaxReport(
        lhs=best_fp / DENOMINATOR,
        rhs=rhs.value,
        lhs_fp=best_fp,
        rhs_fp=rhs.value_fp,
        equal=best_fp == rhs.value_fp,
        best_selection=best_sel,
    )
