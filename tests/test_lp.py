import numpy as np
import pytest
from scipy import sparse

from falsiflow import lp
from falsiflow.errors import DimensionMismatch, LpFailure


def test_one_variable():
    prog = lp.LinearProgram(c=[1.0], a=[[1.0]], b=[1.0])
    sol = lp.solve(prog)
    assert sol.status is lp.Status.OPTIMAL
    assert sol.x[0] == pytest.approx(1.0)
    assert sol.objective == pytest.approx(1.0)


def test_infeasible():
    prog = lp.LinearProgram(c=[1.0], a=[[1.0], [1.0]], b=[1.0, 0.0])
    assert lp.solve(prog).status is lp.Status.INFEASIBLE


def test_unbounded():
    # min -x1 with x1 = x2 and both free to grow
    prog = lp.LinearProgram(c=[-1.0, 0.0], a=[[1.0, -1.0]], b=[0.0])
    assert lp.solve(prog).status is lp.Status.UNBOUNDED


def test_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        lp.LinearProgram(c=[1.0, 2.0], a=[[1.0]], b=[1.0])


def test_nonfinite_rejected():
    with pytest.raises(DimensionMismatch):
        lp.LinearProgram(c=[np.inf], a=[[1.0]], b=[1.0])
    with pytest.raises(DimensionMismatch):
        lp.LinearProgram(c=[1.0], a=sparse.csc_array([[np.nan]]), b=[1.0])


def test_size_guard():
    # the guard counts stored nonzeros, not the entries of a dense matrix
    lp.LinearProgram(c=np.zeros(101), a=np.zeros((101, 101)), b=np.zeros(101))
    n = lp.MAX_NONZEROS
    lp.LinearProgram(c=np.zeros(n), a=sparse.eye_array(n, format="csc"), b=np.zeros(n))
    with pytest.raises(DimensionMismatch):
        lp.LinearProgram(
            c=np.zeros(n + 1), a=sparse.eye_array(n + 1, format="csc"), b=np.zeros(n + 1)
        )


def test_sparse_input_drops_explicit_zeros():
    a = sparse.csc_array((np.array([1.0, 0.0, 2.0]), np.array([0, 1, 1]), np.array([0, 2, 3])))
    prog = lp.LinearProgram(c=[1.0, 1.0], a=a, b=[1.0, 2.0])
    assert prog.a.nnz == 2
    assert a.nnz == 3  # the caller's matrix is left as it was
    assert np.array_equal(prog.a.toarray(), [[1.0, 0.0], [0.0, 2.0]])
    assert lp.solve(prog).objective == pytest.approx(2.0)


def test_transportation_lp_known_value():
    # 4 outcomes x 3 latents, cost = 1 outside the admissible pairs; the
    # instance carries 0.1 of unavoidable violation mass
    p = np.array([0.3, 0.5, 0.0, 0.2])
    nu = np.array([0.3, 0.4, 0.3])
    adm = np.array(
        [
            [1, 0, 0],
            [0, 1, 0],
            [0, 1, 0],
            [0, 0, 1],
        ]
    )
    cost = 1.0 - adm
    rows = []
    rhs = []
    for i in range(4):
        row = np.zeros(12)
        row[i * 3 : (i + 1) * 3] = 1.0
        rows.append(row)
        rhs.append(p[i])
    for j in range(3):
        row = np.zeros(12)
        row[j::3] = 1.0
        rows.append(row)
        rhs.append(nu[j])
    sol = lp.solve(lp.LinearProgram(c=cost.ravel(), a=np.array(rows), b=np.array(rhs)))
    assert sol.status is lp.Status.OPTIMAL
    assert sol.objective == pytest.approx(0.1, abs=1e-9)


def test_duals_satisfy_strong_duality():
    # x1 + x2 >= 1 and x1 + 2 x2 >= 1.5, written with surplus variables
    prog = lp.LinearProgram(
        c=[2.0, 3.0, 0.0, 0.0],
        a=[[1.0, 1.0, -1.0, 0.0], [1.0, 2.0, 0.0, -1.0]],
        b=[1.0, 1.5],
    )
    sol = lp.solve(prog)
    assert sol.status is lp.Status.OPTIMAL
    assert sol.objective == pytest.approx(2.5, abs=1e-9)
    assert sol.duals @ prog.b == pytest.approx(sol.objective, abs=1e-8)


def test_lower_bounds():
    # x1 - x2 = -1: without the bound x >= 0 the objective x1 + x2 is unbounded
    # below; with it the optimum sits on x1 = 0
    prog = lp.LinearProgram(c=[1.0, 1.0], a=[[1.0, -1.0]], b=[-1.0])
    sol = lp.solve(prog)
    assert sol.status is lp.Status.OPTIMAL
    assert sol.objective == pytest.approx(1.0, abs=1e-9)
    assert sol.x == pytest.approx([0.0, 1.0], abs=1e-9)


def test_verify_rejects_each_violation():
    # min x1 + 2 x2 s.t. x1 + x2 = 1: x = (1, 0), y = 1, reduced costs (0, 1)
    prog = lp.LinearProgram(c=[1.0, 2.0], a=[[1.0, 1.0]], b=[1.0])
    x, y = np.array([1.0, 0.0]), np.array([1.0])
    lp._verify(prog, x, y)
    with pytest.raises(LpFailure, match="primal residual"):
        lp._verify(prog, np.array([1.0, 0.1]), y)
    with pytest.raises(LpFailure, match="dual infeasibility"):
        lp._verify(prog, x, np.array([1.5]))
    with pytest.raises(LpFailure, match="duality gap"):
        lp._verify(prog, x, np.array([0.5]))
    # x1 + x2 = 1 and x1 - x2 = 1 at x = (1, 0): the multipliers (-999, 1000)
    # are dual feasible with no gap, but weigh a 1e-9 residual by 1000
    prog = lp.LinearProgram(c=[1.0, 2.0], a=[[1.0, 1.0], [1.0, -1.0]], b=[1.0, 1.0])
    lp._verify(prog, np.array([1.0, 0.0]), np.array([-999.0, 1000.0]))
    with pytest.raises(LpFailure, match="complementary slackness"):
        lp._verify(prog, np.array([1.0 - 0.5e-9, 0.5e-9]), np.array([-999.0, 1000.0]))


def test_fuzz_terminates_and_verifies():
    # every Optimal return passes the internal residual checks at 1e-9;
    # Infeasible/Unbounded are legitimate outcomes of the draw
    rng = np.random.default_rng(2024)
    statuses = set()
    for _ in range(300):
        m = int(rng.integers(1, 8))
        n = int(rng.integers(1, 8))
        a = rng.normal(size=(m, n)) * (rng.random(size=(m, n)) < 0.7)
        # half the draws are feasible by construction
        b = a @ rng.random(n) if rng.random() < 0.5 else rng.normal(size=m)
        prog = lp.LinearProgram(c=rng.normal(size=n), a=sparse.csc_array(a), b=b)
        sol = lp.solve(prog)
        statuses.add(sol.status)
        if sol.status is lp.Status.OPTIMAL:
            assert sol.objective is not None
            assert np.abs(prog.a @ sol.x - prog.b).max() <= 1e-8
    assert statuses == set(lp.Status)


def test_reproducible():
    prog = lp.LinearProgram(
        c=[1.0, 2.0, 0.5, 0.0],
        a=[[1.0, 1.0, 1.0, 0.0], [2.0, 0.0, 1.0, -1.0]],
        b=[1.0, 0.7],
    )
    a = lp.solve(prog)
    b = lp.solve(prog)
    assert np.array_equal(a.x, b.x)
    assert a.objective == b.objective
