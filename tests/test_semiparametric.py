import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from falsiflow import lp, semiparametric
from falsiflow.correspondence import Correspondence
from falsiflow.errors import CertificateMismatch, Infeasible, SupportMismatch
from falsiflow.measure import align, make_distribution
from falsiflow.models import (
    binary_response_pilot,
    example4_instance,
    moment_inequality_model,
    pilot_distribution,
)
from falsiflow.semiparametric import (
    COMPATIBILITY_THRESHOLD,
    SemiparametricModel,
    dual_objective,
    maximize_dual,
    maximize_dual_batch,
)
from oracles import mass_rows, primal_lp_oracle

# (P(Z=1 | X=1), P(Z=1 | X=-1)): near the boundary, outside, inside, outside
PILOT_POINTS = [(0.33, 0.67), (0.5, 0.5), (0.2, 0.9), (0.6, 0.4)]


@pytest.fixture(scope="module")
def pilot_half():
    return binary_response_pilot(0.5)


def aligned(model, p):
    return align(p, model.correspondence.outcome_support)


def test_dual_objective_pilot_quarter(pilot_half):
    # on the point mass at (Z=1, X=1), at lambda=(0.25, 0) the objective is the
    # inner minimum -0.25, attained on the cell x=1, eps <= -1 where the
    # moment vector is (1, 0)
    p = aligned(pilot_half, make_distribution([("(1,1)", 1.0)]))
    assert dual_objective(pilot_half, p, [0.25, 0.0]) == pytest.approx(-0.25)


def test_pilot_moment_values():
    eta = 0.5
    m = binary_response_pilot(eta, epsilon_grid=[-1.5, -0.5, 0.5, 1.5])
    j = m.correspondence.latent_support.index("(1,-1.5)")
    assert m.moments[0, j] == pytest.approx(2 * (1 - eta))
    assert m.moments[1, j] == pytest.approx(0.0)


def test_dual_objective_zero_lambda(pilot_half):
    p = aligned(pilot_half, pilot_distribution(0.4, 0.6))
    assert dual_objective(pilot_half, p, [0.0, 0.0]) == 0.0


def test_dual_objective_support_mismatch(pilot_half):
    with pytest.raises(SupportMismatch):
        dual_objective(pilot_half, make_distribution([("a", 1.0)]), [0.0, 0.0])


@settings(max_examples=25, deadline=None)
@given(
    st.tuples(st.floats(-5, 5), st.floats(-5, 5)),
    st.tuples(st.floats(-5, 5), st.floats(-5, 5)),
)
def test_dual_objective_concave_midpoint(l1, l2):
    model = binary_response_pilot(0.3, epsilon_grid=[-1.5, -0.5, 0.5, 1.5])
    p = aligned(model, pilot_distribution(0.45, 0.55))
    l1, l2 = np.array(l1), np.array(l2)
    f1 = dual_objective(model, p, l1)
    f2 = dual_objective(model, p, l2)
    fmid = dual_objective(model, p, (l1 + l2) / 2)
    assert fmid >= (f1 + f2) / 2 - 1e-12


def test_compatible_pilot_T_zero(pilot_half):
    p = aligned(pilot_half, pilot_distribution(0.3, 0.7))
    cert = maximize_dual(pilot_half, p)
    assert cert.compatible
    assert cert.T <= 1e-6


def test_incompatible_pilot_matches_primal():
    model = binary_response_pilot(0.3)
    p = aligned(model, pilot_distribution(0.5, 0.5))
    cert = maximize_dual(model, p)
    assert cert.T > 1e-6
    value, _ = primal_lp_oracle(model, p)
    assert abs(cert.T - value) <= 1e-5


@pytest.mark.parametrize("scales", [(1e-12, 1e-12), (1e-6, 1e-6), (1e6, 1e6), (1e-12, 1), (1, 1e6)])
def test_moment_row_scale_leaves_T(scales):
    # T = (1/2)[(0.6 - 0.3) + 0] = 0.15; a moment row of about 1e-12 sits below HiGHS's
    # feasibility tolerance, so without _primal_matrix's row scaling it would read as 0
    pilot = binary_response_pilot(0.3)
    model = SemiparametricModel(pilot.correspondence, pilot.moments * np.array(scales)[:, None])
    cert = maximize_dual(model, aligned(model, pilot_distribution(0.6, 0.6)))
    assert cert.T == pytest.approx(0.15, abs=1e-9)


def test_example4_T(pilot_half):
    model, p = example4_instance(100)
    cert = maximize_dual(model, p)
    assert cert.T == pytest.approx(0.01, abs=1e-5)


@pytest.mark.parametrize("grid", [None, np.linspace(-2.0, 2.0, 201)])
def test_pilot_T_near_region_boundary(grid):
    # T = (1/2)[(p1 - eta)^+ + (eta - p_-1)^+] = 0.015 at eta=0.3, P=(0.33, 0.67)
    model = binary_response_pilot(0.3, epsilon_grid=grid)
    cert = maximize_dual(model, aligned(model, pilot_distribution(0.33, 0.67)))
    assert cert.T == pytest.approx(0.015, abs=1e-9)


def test_no_moments_certificate():
    g = Correspondence.from_map({"u": ["a", "b"]})
    model = SemiparametricModel(g, np.zeros((0, 1)))
    p = make_distribution([("a", 0.5), ("b", 0.5)])
    cert = maximize_dual(model, p)
    assert cert.T == 0.0
    assert cert.iterations == 0


def test_weak_duality_random_lambdas():
    model = binary_response_pilot(0.4, epsilon_grid=[-1.5, -0.5, 0.5, 1.5])
    p = aligned(model, pilot_distribution(0.6, 0.7))
    value, _ = primal_lp_oracle(model, p)
    rng = np.random.default_rng(9)
    for _ in range(25):
        lam = rng.normal(scale=3.0, size=2)
        assert dual_objective(model, p, lam) <= value + 1e-9


def test_maximize_dual_diverges_on_empty_V():
    g = Correspondence.from_map({"u1": ["a"], "u2": ["a"]})
    model = SemiparametricModel(g, np.array([[1.0, 2.0]]))
    p = make_distribution([("a", 1.0)])
    with pytest.raises(Infeasible):
        maximize_dual(model, p)


def test_vacuous_moments_reduce_to_parametric_free_nu():
    g = Correspondence.from_map({"u1": ["a"], "u2": ["b"]})
    model = SemiparametricModel(g, np.zeros((1, 2)))
    p = make_distribution([("a", 0.4), ("b", 0.6)])
    value, _ = primal_lp_oracle(model, p)
    assert value == pytest.approx(0.0, abs=1e-9)


def test_singleton_V_recovers_parametric():
    # indicator moments pin nu = (0.3, 0.7) exactly
    from falsiflow.transport import solve_zero_one

    g = Correspondence.from_map({"u1": ["a"], "u2": ["a", "b"]})
    moments = np.array([[1.0 - 0.3, -0.3], [-0.7, 1.0 - 0.7]])
    model = SemiparametricModel(g, moments)
    nu = make_distribution([("u1", 0.3), ("u2", 0.7)])
    for masses in [(0.5, 0.5), (0.9, 0.1), (0.2, 0.8)]:
        p = make_distribution([("a", masses[0]), ("b", masses[1])])
        value, _ = primal_lp_oracle(model, p)
        assert value == pytest.approx(solve_zero_one(p, nu, g).primal_value, abs=1e-8)


def test_minimizer_map_covers_outcomes(pilot_half):
    p = aligned(pilot_half, pilot_distribution(0.2, 0.9))
    cert = maximize_dual(pilot_half, p)
    assert set(cert.minimizer_map) == set(pilot_half.correspondence.outcome_support)
    assert set(cert.minimizer_map.values()) <= set(pilot_half.correspondence.latent_support)


def test_certificate_threshold(pilot_half):
    cert = maximize_dual(pilot_half, aligned(pilot_half, pilot_distribution(0.3, 0.7)))
    assert cert.to_json()["threshold"] == 1e-06
    above = math.nextafter(COMPATIBILITY_THRESHOLD, 1.0)
    for T, compatible in [(COMPATIBILITY_THRESHOLD, True), (above, False)]:
        flipped = replace(cert, T=T)
        assert flipped.compatible is compatible
        assert flipped.to_json()["compatible"] is compatible


def first_of_class(model, label):
    """No earlier latent node has the same image and moment column."""
    g = model.correspondence
    j = g.latent_support.index(label)
    same = (np.array(g.image[:j], dtype=object) == g.image[j]) & (
        model.moments[:, :j] == model.moments[:, [j]]
    ).all(axis=0)
    return not same.any()


def test_merged_columns_pilot():
    model = binary_response_pilot(0.3)
    first, cost, moments = model.merged_columns
    assert cost.shape == (4, 6) and moments.shape == (2, 6)
    assert list(first) == sorted(first)
    assert all(first_of_class(model, model.correspondence.latent_support[j]) for j in first)


@pytest.mark.parametrize("nodes", [401, 1001, 20001])
def test_large_pilot_grids_match_41_nodes(nodes):
    small = binary_response_pilot(0.3)
    large = binary_response_pilot(0.3, epsilon_grid=np.linspace(-2.0, 2.0, nodes))
    for p1, pm1 in PILOT_POINTS:
        p = pilot_distribution(p1, pm1)
        ref = maximize_dual(small, aligned(small, p))
        cert = maximize_dual(large, aligned(large, p))
        assert cert.T == ref.T
        assert cert.lambda_star.tobytes() == ref.lambda_star.tobytes()
        assert all(first_of_class(large, u) for u in cert.minimizer_map.values())


def test_unmerged_primal_lp_at_1001_nodes():
    model = binary_response_pilot(0.3, epsilon_grid=np.linspace(-2.0, 2.0, 1001))
    for p1, pm1 in PILOT_POINTS:
        p = aligned(model, pilot_distribution(p1, pm1))
        value, pi = primal_lp_oracle(model, p)
        assert pi.shape == (4, 2002)
        assert abs(value - maximize_dual(model, p).T) <= 1e-9


def resamples(support, probs, n, count, rng):
    return [make_distribution(zip(support, rng.multinomial(n, probs) / n)) for _ in range(count)]


def test_batch_matches_one_at_a_time_on_pilot_resamples():
    rng = np.random.default_rng(31)
    blocks = 0
    for eta in (0.15, 0.3, 0.5, 0.7, 0.85):
        model = binary_response_pilot(eta)
        support = model.correspondence.outcome_support
        p1, pm1 = rng.uniform(0.1, 0.9, size=2)
        probs = aligned(model, pilot_distribution(p1, pm1)).masses
        ps = resamples(support, probs, int(rng.integers(50, 3000)), 200, rng)
        for cert, p in zip(maximize_dual_batch(model, *mass_rows(ps)), ps, strict=True):
            ref = maximize_dual(model, p)
            assert cert.T == ref.T
            assert cert.lambda_star.tobytes() == ref.lambda_star.tobytes()
            assert cert.minimizer_map == ref.minimizer_map
            blocks += 1
    assert blocks >= 1000


def test_batch_matches_one_at_a_time_on_moment_inequalities_and_example4():
    rng = np.random.default_rng(32)
    cases = []
    outcomes = list("abcde")
    for _ in range(12):
        phi = rng.uniform(-1.0, 1.0, size=(5, 2))
        # the corners dominate every phi and put 0 in the hull of the moments
        grid = np.vstack([rng.uniform(-1.0, 1.2, size=(40, 2)), [[1.2, 1.2], [-1.0, -1.0]]])
        model = moment_inequality_model(outcomes, phi, grid)
        base = rng.dirichlet(np.ones(5))
        cases.append((model, resamples(outcomes, base, 200, 30, rng)))
    real = ["y0", "y1", "y2"]
    for m in (2, 10, 100, 1000):
        ps = resamples(real, rng.dirichlet(np.ones(3)), 100, 30, rng)
        model, _ = example4_instance(m, ps[0])
        cases.append((model, ps))
    for model, ps in cases:
        for cert, p in zip(maximize_dual_batch(model, *mass_rows(ps)), ps, strict=True):
            assert abs(cert.T - maximize_dual(model, p).T) <= 1e-12


def lp_solves(monkeypatch):
    """Record every program ``lp.solve`` is given from here on."""
    programs = []
    solve = lp.solve
    monkeypatch.setattr(lp, "solve", lambda program: programs.append(program) or solve(program))
    return programs


def invert_point(eta, seed):
    """The pilot at ``eta`` and the distributions of one ``semi-invert`` grid
    point: P_n of n = 2000 near (0.35, 0.65), then its B = 2 resamples."""
    rng = np.random.default_rng(seed)
    model = binary_response_pilot(eta)
    support = model.correspondence.outcome_support
    n = 2000
    p_n = make_distribution(zip(support, rng.multinomial(
        n, aligned(model, pilot_distribution(*rng.uniform([0.33, 0.63], [0.37, 0.67]))).masses) / n))
    return model, [p_n, *resamples(support, p_n.masses, n, 2, rng)]


@pytest.mark.parametrize("eta", [0.15, 0.5, 0.85])
def test_cover_takes_one_lp_for_an_invert_point(eta, monkeypatch):
    model, ps = invert_point(eta, 901)
    programs = lp_solves(monkeypatch)
    certs = maximize_dual_batch(model, *mass_rows(ps))
    assert len(programs) == 1
    monkeypatch.undo()
    for cert, p in zip(certs, ps, strict=True):
        assert cert.T == maximize_dual(model, p).T


def test_cover_takes_one_lp_per_basis_across_the_region(monkeypatch):
    # P_n on both sides of the compatibility region need different bases;
    # every covered coupling passes lp._verify for its own right-hand side
    model = binary_response_pilot(0.3)
    rng = np.random.default_rng(34)
    ps = [aligned(model, pilot_distribution(p1, pm1))
          for p1, pm1 in [*PILOT_POINTS, *rng.uniform(0.05, 0.95, size=(20, 2))]]
    programs = lp_solves(monkeypatch)
    covers = []
    basic_solutions = lp.basic_solutions

    def spy(a, basis, rhs):
        x_basic, covered = basic_solutions(a, basis, rhs)
        covers.append((a, basis, rhs[covered], x_basic[covered]))
        return x_basic, covered

    monkeypatch.setattr(lp, "basic_solutions", spy)
    certs = maximize_dual_batch(model, *mass_rows(ps))
    monkeypatch.undo()
    assert 1 < len(programs) < len(ps)
    assert sum(len(b) for _, _, b, _ in covers) == len(ps) - len(programs)
    for a, basis, rhs, x_basic in covers:
        for b, xb in zip(rhs, x_basic):
            x = np.zeros(a.shape[1])
            x[basis] = xb
            lp._verify(lp.LinearProgram(c=np.zeros(a.shape[1]), a=a, b=b), x)
    assert {c.compatible for c in certs} == {True, False}
    for cert, p in zip(certs, ps, strict=True):
        ref = maximize_dual(model, p)
        assert cert.T == ref.T
        assert cert.minimizer_map == ref.minimizer_map


@pytest.mark.parametrize("basis", ["empty", "singular"])
def test_cover_without_a_usable_basis_takes_one_lp_each(basis, monkeypatch):
    model, ps = invert_point(0.5, 7)
    solve = lp.solve

    def unusable(program):
        sol = solve(program)
        if basis == "empty":
            return replace(sol, basis=np.empty(0, dtype=np.intp))
        return replace(sol, basis=np.concatenate([sol.basis[:1], sol.basis[:-1]]))

    monkeypatch.setattr(lp, "solve", unusable)
    programs = lp_solves(monkeypatch)
    certs = maximize_dual_batch(model, *mass_rows(ps))
    assert len(programs) == len(ps)
    monkeypatch.undo()
    for cert, p in zip(certs, ps, strict=True):
        assert_same_certificate(cert, maximize_dual(model, p))


def test_batch_rejects_one_perturbed_block(monkeypatch):
    # one LP's basis covers all three; the closed form of the third, a
    # covered one, is moved
    model, ps = invert_point(0.3, 3)
    programs = lp_solves(monkeypatch)
    assert len(maximize_dual_batch(model, *mass_rows(ps))) == len(ps)
    assert len(programs) == 1
    real = semiparametric._certify
    calls = []

    def third_shifted(values, weights, objective):
        calls.append(None)
        return real(values + 1e-6 if len(calls) == 3 else values, weights, objective)

    monkeypatch.setattr(semiparametric, "_certify", third_shifted)
    with pytest.raises(CertificateMismatch):
        maximize_dual_batch(model, *mass_rows(ps))
    assert len(calls) == 3


def test_batch_rejects_one_blocks_perturbed_moment_duals(monkeypatch):
    # the closed form re-derives each inner minimum from the multiplier alone,
    # so a wrong multiplier gives a dual value below the coupling's cost; the
    # second of several LPs has its multiplier moved
    model = binary_response_pilot(0.3)
    n_y = len(model.correspondence.outcome_support)
    ps = [aligned(model, pilot_distribution(p1, pm1)) for p1, pm1 in PILOT_POINTS]
    real = lp.solve
    calls = []

    def second_moved(program):
        sol = real(program)
        calls.append(None)
        if len(calls) != 2:
            return sol
        duals = sol.duals.copy()
        duals[n_y] += 0.5
        return replace(sol, duals=duals)

    monkeypatch.setattr(lp, "solve", second_moved)
    with pytest.raises(CertificateMismatch, match="does not certify the primal optimum"):
        maximize_dual_batch(model, *mass_rows(ps))
    assert len(calls) == 2
    monkeypatch.undo()
    assert len(maximize_dual_batch(model, *mass_rows(ps))) == len(ps)


def test_feasible_suboptimal_coupling_is_rejected(monkeypatch):
    # a point-identified model (moments pin mu = nu), where the product
    # coupling P x nu is feasible and costs 0.5 against the optimum 0
    g = Correspondence.from_map({"u": ["a"], "v": ["b"]})
    model = SemiparametricModel(g, [[0.5, -0.5]])
    p = make_distribution([("a", 0.5), ("b", 0.5)])
    assert maximize_dual(model, p).T == 0.0 and primal_lp_oracle(model, p)[0] == 0.0
    real = lp.solve

    def product_coupling(program):
        sol = real(program)
        return replace(sol, x=np.outer(program.b[:2], [0.5, 0.5]).ravel())

    monkeypatch.setattr(lp, "solve", product_coupling)
    with pytest.raises(CertificateMismatch, match="primal optimum 0.5"):
        maximize_dual(model, p)

    # a covered distribution takes the basis {pi(a,u), pi(a,v), pi(b,u)},
    # whose basic solution (0, 0.5, 0.5) is feasible and costs 1
    def suboptimal_basis(program):
        return replace(real(program), basis=np.array([0, 1, 2]))

    monkeypatch.setattr(lp, "solve", suboptimal_basis)
    with pytest.raises(CertificateMismatch, match="primal optimum 1.0"):
        maximize_dual_batch(model, *mass_rows([p, p]))


def test_batch_of_none_and_unseen_outcome():
    model = binary_response_pilot(0.3)
    assert maximize_dual_batch(model, *mass_rows([])) == []
    [cert] = maximize_dual_batch(model, *mass_rows([make_distribution([("a", 1.0)])]))
    assert cert.T == 1.0
    assert list(cert.minimizer_map) == list(model.correspondence.outcome_support) + ["a"]


def assert_same_certificate(cert, ref):
    assert cert.T == ref.T
    assert cert.lambda_star.tobytes() == ref.lambda_star.tobytes()
    assert list(cert.minimizer_map.items()) == list(ref.minimizer_map.items())
    assert cert.iterations == ref.iterations


def extended(model, labels):
    """The model with the outcome labels appended that no latent node admits."""
    return SemiparametricModel(model.correspondence.extend_outcomes(labels), model.moments)


def test_any_labels_equal_explicit_extension():
    """Distributions with shuffled, missing and unseen labels give what
    extending the model over their union and aligning them first gives."""
    rng = np.random.default_rng(33)
    for eta in (0.2, 0.5, 0.8):
        model = binary_response_pilot(eta)
        ps = []
        for _ in range(20):
            labels = [y for y in model.correspondence.outcome_support if rng.random() < 0.7]
            labels += [f"new{k}" for k in range(rng.integers(0 if labels else 1, 3))]
            ps.append(make_distribution(zip(rng.permutation(np.array(labels, dtype=object)),
                                            rng.dirichlet(np.ones(len(labels))))))
        for p in ps:
            ext = extended(model, p.support)
            assert_same_certificate(maximize_dual(model, p), maximize_dual(ext, aligned(ext, p)))
        ext = extended(model, [y for p in ps for y in p.support])
        for cert, ref in zip(maximize_dual_batch(model, *mass_rows(ps)),
                             maximize_dual_batch(ext, *mass_rows([aligned(ext, p) for p in ps])),
                             strict=True):
            assert_same_certificate(cert, ref)
