"""Concrete model instances: multiple-equilibria games, the binary-response
pilot, moment-inequality models, and seeded simulators.

Outcome and latent labels are canonical strings (tuples render as "(a,b)" with
no spaces) except for the search model, whose outcomes are effort levels and
stay numeric so half-line statistics can order them.

Numeric parameters must be finite: each model function refuses NaN and +-inf with
:class:`~falsiflow.errors.BadParameters` that names the parameter.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .correspondence import Correspondence
from .errors import (
    BadParameters,
    BadRule,
    GridTooCoarse,
    NotMonotone,
    SupportMismatch,
)
from .measure import DENOMINATOR, FiniteDistribution, Label, _round_preserving_sum, make_distribution
from .semiparametric import SemiparametricModel

#: Dummy outcome standing in for an empty image; always carries P-mass zero.
SLACK_OUTCOME = "__slack__"

#: Default node count per epsilon dimension (odd, so a node sits at 0).
DEFAULT_NODES = 41


def _fmt(v) -> str:
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    return format(float(v), ".12g")


def tuple_label(*values) -> str:
    """Canonical string label for a tuple-valued outcome or latent point."""
    return "(" + ",".join(_fmt(v) for v in values) + ")"


def _refuse_non_finite(name: str, values) -> None:
    """Raise :class:`BadParameters` naming ``name`` unless every value is finite."""
    values = np.asarray(values, dtype=float)
    bad = ~np.isfinite(values)
    if bad.any():
        raise BadParameters(f"{name} must be finite, not {float(values[bad][0])!r}")


@dataclass(frozen=True)
class LatentGrid:
    """Discretization of a continuous latent space; every coordinate is finite."""

    nodes: tuple[Label, ...]
    coords: np.ndarray                      # one row of coordinates per node
    weights: FiniteDistribution

    def __post_init__(self):
        coords = np.atleast_2d(np.asarray(self.coords, dtype=float))
        object.__setattr__(self, "coords", coords)
        if coords.shape[0] != len(self.nodes):
            raise SupportMismatch("one coordinate row per grid node required")
        _refuse_non_finite("grid coordinates", coords)
        if self.weights.support != self.nodes:
            raise SupportMismatch("grid weights must live on the grid nodes")


def uniform_grid_2d(lo: float, hi: float, cells: int) -> LatentGrid:
    """Cell-midpoint discretization of [lo, hi]^2 with equal cell masses.

    Midpoints make region masses of axis-aligned rectangles exact area ratios.
    Nodes run over the first coordinate, then the second; each midpoint is
    formatted once and the node labels are "(a,b)" pairs of those texts.
    """
    step = (hi - lo) / cells
    mids = lo + step * (np.arange(cells) + 0.5)
    coords = np.column_stack([np.repeat(mids, cells), np.tile(mids, cells)])
    texts = [_fmt(m) for m in mids]
    nodes = tuple(f"({a},{b})" for a in texts for b in texts)
    equal = _round_preserving_sum(np.full(len(nodes), 1.0 / len(nodes))).tolist()
    weights = FiniteDistribution(nodes, tuple(equal))
    return LatentGrid(nodes=nodes, coords=coords, weights=weights)


# ---------------------------------------------------------------------------
# Example games
# ---------------------------------------------------------------------------

LINE_NETWORK_OUTCOMES = ("(0,0,0)", "(0,1,1)", "(1,1,0)", "(1,1,1)")
LINE_NETWORK_REGIONS = ("000", "000|011", "000|110", "000|111")


def line_network_game(
    nu_region_masses: Sequence[float],
) -> tuple[Correspondence, FiniteDistribution]:
    """Three players on a line network; four latent regions of equilibrium sets.

    Region masses are (q_000, q_000|011, q_000|110, q_000|111) and must sum to 1.
    """
    if len(nu_region_masses) != 4:
        raise BadParameters("exactly 4 region masses required")
    nu = make_distribution(zip(LINE_NETWORK_REGIONS, nu_region_masses))
    g = Correspondence.from_map(
        {
            "000": ["(0,0,0)"],
            "000|011": ["(0,0,0)", "(0,1,1)"],
            "000|110": ["(0,0,0)", "(1,1,0)"],
            "000|111": ["(0,0,0)", "(1,1,1)"],
        },
        outcome_support=LINE_NETWORK_OUTCOMES,
    )
    return g, nu


ENTRY_OUTCOMES = ("(0,0)", "(0,1)", "(1,0)", "(1,1)")


def entry_equilibria(delta1: float, delta2: float, eps1: float, eps2: float) -> tuple[str, ...]:
    """Pure-strategy Nash equilibria of the two-firm entry game at one profit shifter."""
    eqs = []
    for y1 in (0, 1):
        for y2 in (0, 1):
            if y1 == int(delta2 * y2 + eps1 >= 0) and y2 == int(delta1 * y1 + eps2 >= 0):
                eqs.append(tuple_label(y1, y2))
    return tuple(eqs)


def entry_game(
    delta1: float,
    delta2: float,
    grid: LatentGrid | None = None,
    resolution: int = 40,
) -> tuple[Correspondence, FiniteDistribution]:
    """Two-firm entry game: regions of the profit-shifter grid, aggregated by
    equilibrium set, with the grid mass of each region as its latent weight.

    The best-response test of :func:`entry_equilibria` runs on all grid nodes
    at once.  Each node gets a 4-bit code whose bit i marks ENTRY_OUTCOMES[i]
    as an equilibrium; the set bits of that code are the region's outcome
    indices.  Region masses are exact int64 sums of the node numerators per
    code, and regions are ordered by their outcome indices.  No code is 0: for
    delta_i < 0 neither best response rises with the other's entry, so their
    composition, a non-decreasing map of {0, 1} into itself, has a fixed point.
    """
    _refuse_non_finite("delta1", delta1)
    _refuse_non_finite("delta2", delta2)
    if not (delta1 < 0 and delta2 < 0):
        raise BadParameters("monopoly profits must exceed duopoly profits (delta_i < 0)")
    if grid is None:
        grid = uniform_grid_2d(-2.0, 2.0, resolution)
    if grid.coords.shape[1] != 2:
        raise BadParameters("the latent grid must have two coordinates per node")

    e1, e2 = grid.coords[:, 0], grid.coords[:, 1]
    codes = np.zeros(len(grid.nodes), dtype=np.int64)
    for bit, (y1, y2) in enumerate(((0, 0), (0, 1), (1, 0), (1, 1))):
        best_response = (y1 == (delta2 * y2 + e1 >= 0)) & (y2 == (delta1 * y1 + e2 >= 0))
        codes |= best_response.astype(np.int64) << bit
    masses = np.zeros(16, dtype=np.int64)
    np.add.at(masses, codes, np.array(grid.weights.numerators, dtype=np.int64))

    regions = sorted(
        (tuple(i for i in range(4) if code >> i & 1), code)
        for code in np.unique(codes).tolist()
    )
    labels = tuple("{" + ",".join(ENTRY_OUTCOMES[i] for i in idx) + "}" for idx, _ in regions)
    nu = FiniteDistribution(labels, tuple(int(masses[code]) for _, code in regions))
    indptr = np.cumsum([0] + [len(idx) for idx, _ in regions])
    g = Correspondence(labels, ENTRY_OUTCOMES, indptr, [i for idx, _ in regions for i in idx])
    return g, nu


def search_game(
    alpha: Sequence[tuple[Label, float]], nu: FiniteDistribution
) -> tuple[Correspondence, FiniteDistribution]:
    """Search model: every gains-of-trade level admits zero effort or the
    symmetric equilibrium effort alpha(eps).

    ``alpha`` tabulates a strictly increasing map with values in [0, 1], keyed
    by the latent labels of ``nu``; outcomes are numeric effort levels.
    """
    labels = tuple(lab for lab, _ in alpha)
    values = [float(v) for _, v in alpha]
    if labels != nu.support:
        raise SupportMismatch("alpha must be tabulated on nu's support, in order")
    # written so that a NaN fails every comparison and raises
    if not all(a < b for a, b in zip(values, values[1:])):
        raise NotMonotone("alpha must be strictly increasing on the grid")
    if values and not (0 <= values[0] and values[-1] <= 1):
        raise NotMonotone("alpha values must lie in [0, 1]")
    outcomes = [0.0] + [v for v in values if v != 0.0]
    g = Correspondence.from_map(
        {lab: [0.0, v] if v != 0.0 else [0.0] for lab, v in zip(labels, values)},
        outcome_support=outcomes,
    )
    return g, nu


# ---------------------------------------------------------------------------
# Semiparametric instances
# ---------------------------------------------------------------------------

PILOT_OUTCOMES = ("(0,-1)", "(0,1)", "(1,-1)", "(1,1)")


def binary_response_pilot(
    eta: float, epsilon_grid: Sequence[float] | None = None
) -> SemiparametricModel:
    """Binary response with a conditional median restriction.

    Outcomes are (Z, X) with Z = 1{X + eps <= 0}; the latent grid is
    {-1, 1} x epsilon_grid and the two moment rows encode
    Pr(eps <= 0 | X = x) = eta for x = -1, 1.
    """
    if not 0.0 < eta < 1.0:
        raise BadParameters("eta must lie strictly inside (0, 1)")
    if epsilon_grid is None:
        epsilon_grid = np.linspace(-2.0, 2.0, DEFAULT_NODES)
    eps = np.asarray([round(float(e), 12) for e in epsilon_grid])
    _refuse_non_finite("epsilon_grid", eps)
    for low, high, what in ((-np.inf, -1, "eps <= -1"), (-1, 0, "-1 < eps <= 0"),
                            (0, 1, "0 < eps <= 1"), (1, np.inf, "eps > 1")):
        if not ((eps > low) & (eps <= high)).any():
            raise GridTooCoarse(f"epsilon grid has no node with {what}")

    texts = [_fmt(e) for e in eps]
    latents = tuple(f"({x},{t})" for x in (-1, 1) for t in texts)
    x, e = np.repeat([-1, 1], eps.size), np.tile(eps, 2)
    # Z = 1{x + eps <= 0}; outcome (z, x) sits at index 2z + 1{x = 1} of PILOT_OUTCOMES
    indices = 2 * (e <= -x) + (x == 1)
    g = Correspondence(latents, PILOT_OUTCOMES, np.arange(len(latents) + 1), indices)
    below = (e <= 0) - eta
    return SemiparametricModel(correspondence=g, moments=np.array([below * (1 + x), below * (1 - x)]))


def pilot_distribution(p_given_x1: float, p_given_xm1: float) -> FiniteDistribution:
    """Outcome distribution with X uniform on {-1, 1} and given Pr(Z=1 | X=x)."""
    return make_distribution(
        [
            ("(0,-1)", 0.5 * (1 - p_given_xm1)),
            ("(0,1)", 0.5 * (1 - p_given_x1)),
            ("(1,-1)", 0.5 * p_given_xm1),
            ("(1,1)", 0.5 * p_given_x1),
        ]
    )


def moment_inequality_model(
    outcomes: Sequence[Label],
    phi_values: Sequence[Sequence[float]],
    latent_grid: Sequence[Sequence[float]],
) -> SemiparametricModel:
    """Moment-inequality model E[phi_i(Y)] <= 0 in correspondence form.

    ``phi_values[k][i]`` is phi_i at outcome k; latent grid nodes are vectors u
    with image {y : u_i >= phi_i(y) for all i} and moments m(u) = u.  Nodes
    dominating no outcome map to the zero-mass slack outcome.
    """
    phi = np.atleast_2d(np.asarray(phi_values, dtype=float))
    grid = np.atleast_2d(np.asarray(latent_grid, dtype=float))
    if phi.shape[0] != len(outcomes):
        raise BadParameters("one phi row per outcome required")
    if grid.shape[1] != phi.shape[1]:
        raise BadParameters("latent grid dimension must match the number of phi components")
    _refuse_non_finite("phi", phi)
    _refuse_non_finite("grid", grid)

    dominated = (grid[:, None, :] >= phi[None]).all(axis=2)  # [node, outcome]
    covered = dominated.any(axis=0)
    if not covered.all():
        missing = [outcomes[k] for k in np.flatnonzero(~covered)]
        raise GridTooCoarse(f"no grid node dominates the phi values of outcomes {missing}")
    nodes = [tuple_label(*row) if row.size > 1 else _fmt(row[0]) for row in grid]
    # a node dominating no outcome admits the slack outcome, the last one
    admits = np.column_stack([dominated, ~dominated.any(axis=1)])
    indptr = np.concatenate([[0], np.cumsum(admits.sum(axis=1))])
    g = Correspondence(tuple(nodes), tuple(outcomes) + (SLACK_OUTCOME,), indptr, np.nonzero(admits)[1])
    return SemiparametricModel(correspondence=g, moments=grid.T.copy())


def example4_instance(
    m: float, p: FiniteDistribution | None = None
) -> tuple[SemiparametricModel, FiniteDistribution]:
    """Two-point latent family {1, 1-m} with E[U] = 0 and every real outcome
    admissible for u = 1 only.

    The zero-mean restriction forces latent mass 1/m onto 1-m, whose image is
    the zero-mass slack outcome, so the minimal violation mass is exactly 1/m;
    the infimum over the untruncated family would approach 0 without attaining it.
    Returns the model and ``p`` with the slack outcome appended at mass zero.
    """
    if not 2 <= m < np.inf:
        raise BadParameters(f"M must be a finite number >= 2, not {m!r}")
    if p is None:
        p = make_distribution([("y0", 1.0)])
    if SLACK_OUTCOME in p.support:
        raise BadParameters("p must live on real outcomes only")
    support = p.support + (SLACK_OUTCOME,)
    g = Correspondence.from_map(
        {"1": list(p.support), _fmt(1 - m): [SLACK_OUTCOME]},
        outcome_support=support,
    )
    model = SemiparametricModel(correspondence=g, moments=np.array([[1.0, float(1 - m)]]))
    return model, FiniteDistribution(support, p.numerators + (0,))


# ---------------------------------------------------------------------------
# Simulation
# ---------------------------------------------------------------------------

#: Equilibrium-picking rules of the simulator: the first admissible outcome,
#: or one drawn uniformly from the admissible set.
SELECTION_RULES = ("first", "uniform-random")


def simulate(
    g: Correspondence,
    nu: FiniteDistribution,
    rule: str,
    n: int,
    seed: int,
) -> list[Label]:
    """Draw n outcomes: latent points by inverse CDF on the fixed-point masses,
    then per draw of latent j the outcome at index ``g.indices[g.indptr[j] + k]``: k = 0
    under the rule "first", and under "uniform-random" (see ``SELECTION_RULES``)
    k = ``rng.integers(size)``, taken in draw order, when j admits size > 1 outcomes.

    Identical (inputs, seed) give identical output sequences.
    """
    if rule not in SELECTION_RULES:
        raise BadRule(f"unknown selection rule {rule!r}")
    if nu.support != g.latent_support:
        raise SupportMismatch("nu must live on the latent support of the correspondence")
    if n == 0:
        return []
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    cum = np.cumsum(nu.numerators)
    draws = rng.integers(0, DENOMINATOR, size=n)
    latent_idx = np.searchsorted(cum, draws, side="right")
    at = g.indptr[latent_idx]
    if rule == "uniform-random":
        for k, size in enumerate((g.indptr[latent_idx + 1] - at).tolist()):
            if size > 1:
                at[k] += rng.integers(size)
    return [g.outcome_support[i] for i in g.indices[at].tolist()]
