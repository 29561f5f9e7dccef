import numpy as np
import pytest

from falsiflow.correspondence import Correspondence, capacity_fp
from falsiflow.errors import (
    BadParameters,
    BadRule,
    DuplicateLabel,
    GridTooCoarse,
    NotMonotone,
    SupportMismatch,
)
from falsiflow.measure import DENOMINATOR, FiniteDistribution, align, empirical, make_distribution
from falsiflow.models import (
    ENTRY_OUTCOMES,
    SLACK_OUTCOME,
    LatentGrid,
    binary_response_pilot,
    entry_equilibria,
    entry_game,
    example4_instance,
    line_network_game,
    moment_inequality_model,
    pilot_distribution,
    search_game,
    simulate,
    uniform_grid_2d,
)
from falsiflow.semiparametric import maximize_dual
from falsiflow.transport import solve_zero_one
from oracles import (
    core_deficiency_bruteforce,
    interval_deficiency,
    outcomes_of,
    primal_lp_oracle,
    sample_distribution,
)


# --- line network -----------------------------------------------------------

def test_line_network_degenerate_region():
    g, nu = line_network_game([1.0, 0.0, 0.0, 0.0])
    delta = make_distribution([("(0,0,0)", 1.0)])
    p = align(delta, g.outcome_support)
    assert solve_zero_one(p, nu, g).compatible
    # every other outcome has capacity 0, so any mass elsewhere falsifies
    other = align(make_distribution([("(0,0,0)", 0.9), ("(0,1,1)", 0.1)]), g.outcome_support)
    assert not solve_zero_one(other, nu, g).compatible


def test_line_network_binding_inequality():
    g, nu = line_network_game([0.4, 0.2, 0.2, 0.2])
    p = make_distribution(
        [("(0,0,0)", 0.3), ("(0,1,1)", 0.25), ("(1,1,0)", 0.25), ("(1,1,1)", 0.2)]
    )
    assert not solve_zero_one(p, nu, g).compatible


def test_line_network_identity_masses_compatible():
    g, nu = line_network_game([0.4, 0.2, 0.2, 0.2])
    p = make_distribution(
        [("(0,0,0)", 0.4), ("(0,1,1)", 0.2), ("(1,1,0)", 0.2), ("(1,1,1)", 0.2)]
    )
    assert solve_zero_one(p, nu, g).compatible


def test_line_network_arity():
    with pytest.raises(BadParameters):
        line_network_game([0.5, 0.5])


# --- entry game --------------------------------------------------------------

def test_entry_equilibria_multiplicity_cell():
    assert entry_equilibria(-1.0, -1.0, 0.5, 0.5) == ("(0,1)", "(1,0)")


def test_entry_equilibria_unique_cells():
    assert entry_equilibria(-1.0, -1.0, -1.5, -1.5) == ("(0,0)",)
    assert entry_equilibria(-1.0, -1.0, 1.5, 1.5) == ("(1,1)",)
    assert entry_equilibria(-1.0, -1.0, 1.5, -1.5) == ("(1,0)",)


def test_entry_game_multiplicity_mass_exact():
    g, nu = entry_game(-1.0, -1.0)
    lab = next(u for u in g.latent_support if set(outcomes_of(g, u)) == {"(0,1)", "(1,0)"})
    assert nu.numerator(lab) == DENOMINATOR // 16


@pytest.mark.parametrize("cells", [1, 3, 7, 50])
def test_uniform_grid_weights_equal_make_distribution(cells):
    grid = uniform_grid_2d(-2.0, 2.0, cells)
    assert grid.weights == make_distribution((u, 1.0 / len(grid.nodes)) for u in grid.nodes)


def test_entry_game_regions_partition_grid():
    grid = uniform_grid_2d(-2.0, 2.0, 10)
    _, nu = entry_game(-0.5, -1.5, grid=grid)
    assert sum(nu.numerators) == DENOMINATOR


def test_entry_game_rejects_nonnegative_delta():
    with pytest.raises(BadParameters):
        entry_game(0.5, -1.0)


def test_entry_game_16_inequalities_decide_compatibility():
    g, nu = entry_game(-1.0, -1.0)
    p = make_distribution([("(0,0)", 0.25), ("(0,1)", 0.375), ("(1,0)", 0.3125), ("(1,1)", 0.0625)])
    verdict = solve_zero_one(p, nu, g)
    all_hold = all(
        sum(n for i, n in enumerate(p.numerators) if bits >> i & 1) <= capacity_fp(g, nu, g.labels_of(bits))
        for bits in range(16)
    )
    assert verdict.compatible == all_hold is True


def entry_game_per_node(delta1, delta2, grid):
    """Reference: one entry_equilibria call and one numerator lookup per node."""
    masses = {}
    for node, (e1, e2) in zip(grid.nodes, grid.coords):
        eqs = entry_equilibria(delta1, delta2, e1, e2)
        masses[eqs] = masses.get(eqs, 0) + grid.weights.numerator(node)
    regions = sorted(masses, key=lambda eqs: tuple(ENTRY_OUTCOMES.index(y) for y in eqs))
    labels = ["{" + ",".join(eqs) + "}" for eqs in regions]
    nu = FiniteDistribution(tuple(labels), tuple(masses[eqs] for eqs in regions))
    g = Correspondence.from_map(dict(zip(labels, regions)), outcome_support=ENTRY_OUTCOMES)
    return g, nu


@pytest.mark.parametrize(
    "resolution,delta1,delta2",
    [(1, -1.0, -1.0), (3, -0.8, -0.4), (3, -4.0, -4.0), (50, -0.8, -0.4), (50, -1.9, -0.3),
     (120, -1.0, -1.0)],
)
def test_entry_game_matches_per_node_reference(resolution, delta1, delta2):
    grid = uniform_grid_2d(-2.0, 2.0, resolution)
    assert entry_game(delta1, delta2, resolution=resolution) == entry_game_per_node(delta1, delta2, grid)


def test_uniform_grid_rounding_residual_on_first_node():
    # 10**9 / 14400 rounds to 69444; the 6400 left over go to node 0
    grid = uniform_grid_2d(-2.0, 2.0, 120)
    assert grid.weights.numerators[:2] == (69444 + 6400, 69444)


def test_entry_game_best_response_ties_on_midpoints():
    # delta = -(a midpoint) puts a best-response boundary exactly on grid
    # nodes, where the >= of the best-response test decides
    grid = uniform_grid_2d(-2.0, 2.0, 10)
    positive = [row for row in grid.coords if (row > 0).all()]
    for c1, c2 in positive[::3]:
        delta1, delta2 = -float(c1), -float(c2)
        assert entry_game(delta1, delta2, grid=grid) == entry_game_per_node(delta1, delta2, grid)


def test_entry_game_non_uniform_grid():
    coords = [(0.5, 0.5), (-1.0, 0.0), (1.0, -0.25), (1.5, 1.5), (-2.0, -2.0), (0.25, 0.75)]
    nodes = tuple(f"u{i}" for i in range(len(coords)))
    # a zero-mass node still makes its region, (0,0) here, with mass 0
    weights = make_distribution(zip(nodes, [0.35, 0.1, 0.2, 0.05, 0.0, 0.3]))
    grid = LatentGrid(nodes=nodes, coords=np.array(coords), weights=weights)
    g, nu = entry_game(-1.0, -0.75, grid=grid)
    assert (g, nu) == entry_game_per_node(-1.0, -0.75, grid)
    assert nu.numerator("{(0,0)}") == 0


@pytest.mark.parametrize("columns", [1, 3])
def test_entry_game_needs_two_coordinates(columns):
    nodes = ("a", "b")
    grid = LatentGrid(
        nodes=nodes, coords=np.ones((2, columns)), weights=make_distribution(zip(nodes, [0.5, 0.5]))
    )
    with pytest.raises(BadParameters):
        entry_game(-1.0, -1.0, grid=grid)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_latent_grid_refuses_non_finite_coordinates(bad):
    nodes = ("a", "b")
    with pytest.raises(BadParameters) as exc:
        LatentGrid(nodes=nodes, coords=[[0.0, 1.0], [bad, 0.5]], weights=make_distribution(zip(nodes, [0.5, 0.5])))
    assert str(exc.value) == f"grid coordinates must be finite, not {bad!r}"


# --- search model -------------------------------------------------------------

def search_instance():
    nu = make_distribution([("e1", 0.2), ("e2", 0.3), ("e3", 0.5)])
    alpha = [("e1", 0.2), ("e2", 0.5), ("e3", 0.9)]
    return search_game(alpha, nu)


def test_search_outcomes_are_numeric_and_contain_zero():
    g, _ = search_instance()
    assert g.outcome_support == (0.0, 0.2, 0.5, 0.9)


def test_search_constant_zero_data_compatible():
    g, nu = search_instance()
    p = align(make_distribution([(0.0, 1.0)]), g.outcome_support)
    assert solve_zero_one(p, nu, g).compatible


def test_search_pushforward_compatible():
    g, nu = search_instance()
    p = align(make_distribution([(0.2, 0.2), (0.5, 0.3), (0.9, 0.5)]), g.outcome_support)
    assert solve_zero_one(p, nu, g).compatible


def test_search_requires_monotone_alpha():
    nu = make_distribution([("e1", 0.5), ("e2", 0.5)])
    with pytest.raises(NotMonotone):
        search_game([("e1", 0.9), ("e2", 0.2)], nu)


def test_search_alpha_keyed_to_nu():
    nu = make_distribution([("e1", 0.5), ("e2", 0.5)])
    with pytest.raises(SupportMismatch):
        search_game([("x", 0.1), ("y", 0.2)], nu)


def test_interval_criterion_equals_bruteforce_on_onesided():
    g, nu = search_instance()
    # shift 0.1 above the model's capacity onto the top effort level
    p = align(make_distribution([(0.0, 0.4), (0.9, 0.6)]), g.outcome_support)
    best_fp, labels, kind = interval_deficiency(g, nu, p)
    rep = core_deficiency_bruteforce(g, nu, p)
    assert best_fp == rep.value_fp == DENOMINATOR // 10
    assert kind == "upper" and labels == (0.9,)


def test_interval_criterion_counterexample_regression():
    # alternating deficiency signs defeat the interval classes: the
    # full-subset maximum is strictly larger
    nu = make_distribution([("e1", 0.1), ("e2", 0.6), ("e3", 0.3)])
    g, nu = search_game([("e1", 0.2), ("e2", 0.5), ("e3", 0.9)], nu)
    # per-effort deficiencies (+0.1, -0.5, +0.1)
    p = align(
        make_distribution([(0.0, 0.3), (0.2, 0.2), (0.5, 0.1), (0.9, 0.4)]),
        g.outcome_support,
    )
    best_fp, _, _ = interval_deficiency(g, nu, p)
    rep = core_deficiency_bruteforce(g, nu, p)
    assert rep.value_fp == DENOMINATOR // 5  # {0.2, 0.9} carries +0.1 +0.1
    assert best_fp == DENOMINATOR // 10
    assert rep.value_fp > best_fp


# --- pilot ---------------------------------------------------------------------

def test_pilot_structure():
    m = binary_response_pilot(0.5)
    g = m.correspondence
    assert g.outcome_support == ("(0,-1)", "(0,1)", "(1,-1)", "(1,1)")
    assert len(g.latent_support) == 2 * 41
    assert m.n_moments == 2


def test_pilot_boundary_tie_is_closed():
    m = binary_response_pilot(0.5, epsilon_grid=[-1.5, -1.0, -0.5, 0.0, 0.5, 1.0, 1.5])
    # x=1, eps=-1: x + eps = 0 <= 0, so Z=1
    assert outcomes_of(m.correspondence, "(1,-1)") == ("(1,1)",)
    # x=-1, eps=1: x + eps = 0 <= 0, so Z=1
    assert outcomes_of(m.correspondence, "(-1,1)") == ("(1,-1)",)


def test_pilot_grid_too_coarse():
    with pytest.raises(GridTooCoarse):
        binary_response_pilot(0.5, epsilon_grid=[0.5, 1.5])


def test_pilot_repeated_node_refused():
    # nodes are told apart by their labels, eps formatted to 12 significant digits
    for grid in ([-1.5, -0.5, -0.5, 0.5, 1.5], [-1.5, -0.5, -0.5 + 1e-14, 0.5, 1.5]):
        with pytest.raises(DuplicateLabel, match=r"^latent support repeats the label '\(-1,-0\.5\)'$"):
            binary_response_pilot(0.5, epsilon_grid=grid)


def test_pilot_matches_its_per_node_definition():
    # Z = 1{x + eps <= 0} and m(u) = (1{eps <= 0} - eta) * (1 + x, 1 - x), node by node
    for eta, grid in ((0.3, None), (0.5, [-1.5, -1.0, -0.5, 0.0, 0.5, 1.0, 1.5]),
                      (0.7, np.linspace(-3, 3, 26))):
        model = binary_response_pilot(eta, epsilon_grid=grid)
        grid = np.linspace(-2.0, 2.0, 41) if grid is None else grid
        nodes = [(x, round(float(e), 12)) for x in (-1, 1) for e in grid]
        mapping = {f"({x},{e:.12g})": [f"({int(e <= -x)},{x})"] for x, e in nodes}
        g = Correspondence.from_map(mapping, outcome_support=model.correspondence.outcome_support)
        assert model.correspondence == g
        moments = [[((e <= 0) - eta) * (1 + s * x) for x, e in nodes] for s in (1, -1)]
        assert model.moments.tobytes() == np.array(moments).tobytes()


def test_pilot_eta_range():
    with pytest.raises(BadParameters):
        binary_response_pilot(0.0)


def test_pilot_compatible_and_incompatible_points():
    m = binary_response_pilot(0.3)
    sup = m.correspondence.outcome_support
    ok = maximize_dual(m, align(pilot_distribution(0.2, 0.6), sup))
    assert ok.T <= 1e-6
    bad = maximize_dual(m, align(pilot_distribution(0.5, 0.6), sup))
    assert bad.T > 1e-3


# --- moment inequalities / example 4 -------------------------------------------

def test_moment_inequality_dominance_rule():
    model = moment_inequality_model(["a", "b"], [[0.0], [0.5]], [[-1.0], [0.0], [1.0]])
    g = model.correspondence
    assert outcomes_of(g, "-1") == (SLACK_OUTCOME,)
    assert outcomes_of(g, "0") == ("a",)
    assert outcomes_of(g, "1") == ("a", "b")


def test_moment_inequality_verdicts():
    # single phi(Y) = y - 0.25 on outcomes {0, 1}: E[phi] <= 0 iff P(1) <= 0.25
    model = moment_inequality_model(
        ["0", "1"], [[-0.25], [0.75]], [[-1.0], [-0.25], [0.0], [0.75], [1.0]]
    )
    sup = model.correspondence.outcome_support
    good = align(make_distribution([("0", 0.9), ("1", 0.1)]), sup)
    bad = align(make_distribution([("0", 0.1), ("1", 0.9)]), sup)
    assert maximize_dual(model, good).T <= 1e-6
    assert maximize_dual(model, bad).T > 1e-3


def test_moment_inequality_coarse_grid():
    with pytest.raises(GridTooCoarse):
        moment_inequality_model(["a"], [[2.0]], [[-1.0], [0.0]])


def test_moment_inequality_matches_its_per_node_definition():
    # node u admits {y : u >= phi(y)}, or the slack outcome when that is empty
    rng = np.random.default_rng(3)
    for d in (1, 2, 3):
        phi = rng.uniform(-1.0, 1.0, size=(4, d)).round(2)
        grid = np.vstack([rng.uniform(-1.5, 1.5, size=(30, d)).round(3), np.ones((1, d))])
        outcomes = ["a", "b", "c", "d"]
        model = moment_inequality_model(outcomes, phi, grid)
        labels = ["(" + ",".join(f"{v:.12g}" for v in row) + ")" if d > 1 else f"{row[0]:.12g}"
                  for row in grid]
        mapping = {lab: [y for y, f in zip(outcomes, phi) if (row >= f).all()] or [SLACK_OUTCOME]
                   for lab, row in zip(labels, grid)}
        g = Correspondence.from_map(mapping, outcome_support=outcomes + [SLACK_OUTCOME])
        assert model.correspondence == g
        assert model.moments.tobytes() == grid.T.tobytes()


def test_moment_inequality_repeated_labels_refused():
    with pytest.raises(DuplicateLabel, match=r"^latent support repeats the label '0'$"):
        moment_inequality_model(["a"], [[0.0]], [[-1.0], [0.0], [0.0], [1.0]])
    with pytest.raises(DuplicateLabel, match=r"^outcome support repeats the label 'a'$"):
        moment_inequality_model(["a", "a"], [[0.0], [0.5]], [[-1.0], [1.0]])


def test_example4_values():
    for m in (2, 10, 100, 1000):
        model, p = example4_instance(m)
        value, _ = primal_lp_oracle(model, p)
        assert value == pytest.approx(1 / m, abs=1e-9)


def test_example4_rejects_small_m():
    with pytest.raises(BadParameters):
        example4_instance(1)


# --- simulation -----------------------------------------------------------------

def test_simulate_deterministic():
    g, nu = entry_game(-1.0, -1.0)
    a = simulate(g, nu, "uniform-random", 200, seed=3)
    b = simulate(g, nu, "uniform-random", 200, seed=3)
    assert a == b


def test_simulate_zero_draws():
    g, nu = line_network_game([0.25, 0.25, 0.25, 0.25])
    assert simulate(g, nu, "first", 0, seed=0) == []


def test_simulate_first_rule_pushforward_band():
    g, nu = entry_game(-1.0, -1.0)
    n = 10_000
    data = simulate(g, nu, "first", n, seed=7)
    # under "first" the multiplicity region always reports (0,1)
    expected = {"(0,0)": 0.25, "(0,1)": 0.375, "(1,0)": 0.3125, "(1,1)": 0.0625}
    p_n = empirical(data)
    for y, q in expected.items():
        sigma = (q * (1 - q) / n) ** 0.5
        assert abs(p_n.mass(y) - q) <= 3 * sigma + 1e-9


def test_simulate_pushforward_is_compatible():
    g, nu = entry_game(-1.0, -1.0)
    push = make_distribution([("(0,0)", 0.25), ("(0,1)", 0.375), ("(1,0)", 0.3125), ("(1,1)", 0.0625)])
    assert solve_zero_one(push, nu, g).compatible


def test_custom_rule_validated():
    g, nu = line_network_game([0.25, 0.25, 0.25, 0.25])
    with pytest.raises(BadRule):
        simulate(g, nu, "nonsense", 5, seed=0)


def test_sample_distribution_counts():
    p = make_distribution([("a", 0.5), ("b", 0.5)])
    data = sample_distribution(p, 1000, seed=1)
    assert len(data) == 1000
    assert set(data) == {"a", "b"}
