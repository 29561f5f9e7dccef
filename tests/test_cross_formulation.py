"""A parametric model is a semiparametric one: the max flow against the LP.

Give (g, nu) the moment rows m_j(u) = 1{u = u_j} - nu_j for every latent but
the last (the last is implied, since the masses sum to one).  Then E_mu[m] = 0
holds exactly when mu = nu, so the semiparametric statistic T of the model
equals the zero-one transport value.  The two solvers share no code path:
csgraph's Dinic max flow on the correspondence's arcs against the HiGHS
simplex on its dense cost matrix.  The same holds for the empirical
distribution of a sample, whose statistic ``statistic_tv_core`` reports.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from falsiflow.correspondence import Correspondence, capacity
from falsiflow.inference import statistic_tv_core
from falsiflow.measure import DENOMINATOR, FiniteDistribution, empirical
from falsiflow.models import SELECTION_RULES, simulate
from falsiflow.semiparametric import SemiparametricModel, maximize_dual
from falsiflow.transport import solve_zero_one


def fixed_point(labels, weights):
    """Fixed-point distribution proportional to nonnegative integer weights (not all 0)."""
    weights = np.asarray(weights, dtype=np.int64)
    numers = weights * DENOMINATOR // weights.sum()
    numers[np.argmax(numers)] += DENOMINATOR - numers.sum()
    return FiniteDistribution(tuple(labels), tuple(int(n) for n in numers))


@st.composite
def parametric_models(draw):
    n_y = draw(st.integers(1, 8))
    n_u = draw(st.integers(1, 12))
    images = draw(st.lists(st.sets(st.integers(0, n_y - 1), min_size=1), min_size=n_u, max_size=n_u))
    outcomes = [f"y{i}" for i in range(n_y)]
    g = Correspondence.from_map(
        {f"u{j}": [outcomes[i] for i in image] for j, image in enumerate(images)}, outcomes
    )

    def weights(k):
        return draw(st.lists(st.integers(0, 20), min_size=k, max_size=k).filter(any))

    return g, fixed_point(g.latent_support, weights(n_u)), fixed_point(outcomes, weights(n_y))


def point_identified(g, nu):
    """The semiparametric model whose moment rows pin the latent distribution to nu."""
    n_u = len(g.latent_support)
    masses = np.array(nu.numerators) / DENOMINATOR
    return SemiparametricModel(g, np.eye(n_u)[: n_u - 1] - masses[: n_u - 1, None])


@settings(max_examples=60, deadline=None)
@given(parametric_models())
def test_max_flow_equals_lp_on_the_point_identified_model(instance):
    g, nu, p = instance
    flow = solve_zero_one(p, nu, g)
    t = maximize_dual(point_identified(g, nu), p).T
    assert abs(t - flow.primal_value) <= 1e-9
    # the flow's witness A attains the LP value: P(A) - capacity(A) = T
    p_of_a = sum(p.mass(y) for y in flow.witness)
    assert abs(p_of_a - capacity(g, nu, flow.witness) - t) <= 1e-9


@settings(max_examples=60, deadline=None)
@given(parametric_models(), st.integers(1, 200), st.sampled_from(SELECTION_RULES),
       st.booleans(), st.integers(0, 2**32 - 1))
def test_tv_core_statistic_equals_lp_on_an_empirical_p(instance, n, rule, from_nu, seed):
    # the sample is drawn from the model itself, or through the uniform
    # latent distribution, which the model need not admit
    g, nu, _ = instance
    source = nu if from_nu else fixed_point(g.latent_support, np.ones(len(g.latent_support)))
    sample = simulate(g, source, rule, n, seed)
    t = maximize_dual(point_identified(g, nu), empirical(sample)).T
    assert abs(statistic_tv_core(sample, nu, g).value - t) <= 1e-9


def random_model(rng, n_y, n_u):
    """n_u latents, each admitting 1 to 3 of n_y outcomes, and a random nu."""
    outcomes = [f"y{i}" for i in range(n_y)]
    g = Correspondence.from_map(
        {f"u{j}": [outcomes[i] for i in rng.choice(n_y, size=rng.integers(1, 4), replace=False)]
         for j in range(n_u)},
        outcomes,
    )
    return g, fixed_point(g.latent_support, rng.integers(1, 100, size=n_u))


@pytest.mark.parametrize("n_u", [100, 200])
def test_max_flow_equals_lp_at_scale(n_u):
    # a fixed P, and the empirical P of a sample drawn from latents the model
    # gives little mass: the first tenth, at 100 times their nu weight
    rng = np.random.default_rng(n_u)
    g, nu = random_model(rng, 10, n_u)
    boost = np.where(np.arange(n_u) < n_u // 10, 100, 1) * np.array(nu.numerators)
    sample = simulate(g, fixed_point(g.latent_support, boost // boost.min()), "uniform-random", 500, n_u)
    for p in (fixed_point(g.outcome_support, rng.integers(1, 100, size=10)), empirical(sample)):
        t = maximize_dual(point_identified(g, nu), p).T
        assert t > 0
        assert abs(t - solve_zero_one(p, nu, g).primal_value) <= 1e-9
