import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest
from scipy import sparse
from scipy.optimize import linprog

import falsiflow
from falsiflow import lp, semiparametric
from falsiflow.errors import DimensionMismatch, Infeasible, LpFailure
from falsiflow.measure import align, make_distribution
from falsiflow.models import (
    binary_response_pilot,
    example4_instance,
    moment_inequality_model,
    pilot_distribution,
)
from oracles import mass_rows, primal_lp_oracle


def _scipy(a: lp.CscMatrix) -> sparse.csc_array:
    """A program's constraint matrix as scipy's CSC array, for the reference computations."""
    return sparse.csc_array((a.data, a.indices, a.indptr), shape=a.shape)


def _csc(a) -> lp.CscMatrix:
    """A dense or scipy sparse matrix as the record a program takes, in
    scipy's own CSC conversion."""
    m = sparse.csc_array(a, dtype=float)
    return lp.CscMatrix(m.data, m.indices.astype(np.int32), m.indptr.astype(np.int32), m.shape)


def test_one_variable():
    prog = lp.LinearProgram(c=[1.0], a=_csc([[1.0]]), b=[1.0])
    sol = lp.solve(prog)
    assert sol.x[0] == pytest.approx(1.0)
    assert prog.c @ sol.x == pytest.approx(1.0)


def test_infeasible():
    prog = lp.LinearProgram(c=[1.0], a=_csc([[1.0], [1.0]]), b=[1.0, 0.0])
    with pytest.raises(Infeasible):
        lp.solve(prog)


def test_unbounded():
    # min -x1 with x1 = x2 and both free to grow
    prog = lp.LinearProgram(c=[-1.0, 0.0], a=_csc([[1.0, -1.0]]), b=[0.0])
    with pytest.raises(LpFailure, match="^solver failure: Unbounded$"):
        lp.solve(prog)


def test_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        lp.LinearProgram(c=[1.0, 2.0], a=_csc([[1.0]]), b=[1.0])


def test_nonfinite_rejected():
    with pytest.raises(DimensionMismatch):
        lp.LinearProgram(c=[np.inf], a=_csc([[1.0]]), b=[1.0])
    with pytest.raises(DimensionMismatch):
        lp.LinearProgram(c=[1.0], a=_csc([[np.nan]]), b=[1.0])


def test_size_guard():
    # the guard counts stored nonzeros, not the entries of a dense matrix
    lp.LinearProgram(c=np.zeros(101), a=_csc(np.zeros((101, 101))), b=np.zeros(101))
    n = lp.MAX_NONZEROS
    lp.LinearProgram(c=np.zeros(n), a=_csc(sparse.eye_array(n)), b=np.zeros(n))
    with pytest.raises(DimensionMismatch):
        lp.LinearProgram(c=np.zeros(n + 1), a=_csc(sparse.eye_array(n + 1)), b=np.zeros(n + 1))


def _canonical(a) -> sparse.csc_array:
    """scipy's canonical CSC form of ``a``: duplicates summed, no explicit
    zeros, row indices sorted."""
    ref = sparse.csc_array(a, dtype=float, copy=True)
    ref.sum_duplicates()
    ref.eliminate_zeros()
    return ref


def _assert_same_csc(record: lp.CscMatrix, ref: sparse.csc_array):
    assert record.shape == ref.shape
    assert record.size == ref.nnz
    assert np.array_equal(record.data, ref.data)
    assert np.array_equal(record.indices, ref.indices)
    assert np.array_equal(record.indptr, ref.indptr)
    assert record.data.dtype == np.float64
    assert record.indices.dtype == record.indptr.dtype == np.int32


def test_csc_record_from_solve_primal_matches_scipy(monkeypatch):
    programs = []
    solve = lp.solve
    monkeypatch.setattr(lp, "solve", lambda program: programs.append(program) or solve(program))
    model = binary_response_pilot(0.3)
    sup = model.correspondence.outcome_support
    rng = np.random.default_rng(5)
    semiparametric.maximize_dual_batch(
        model, *mass_rows([make_distribution(zip(sup, rng.dirichlet(np.ones(len(sup))))) for _ in range(3)]))
    phi, grid = [[-0.25], [0.75]], [[-1.0], [-0.25], [0.0], [0.75], [1.0]]
    model = moment_inequality_model(["0", "1"], phi, grid)
    p = align(make_distribution([("0", 0.4), ("1", 0.6)]), model.correspondence.outcome_support)
    cert = semiparametric.maximize_dual(model, p)
    monkeypatch.undo()
    assert abs(cert.T - primal_lp_oracle(model, p)[0]) <= 1e-9
    assert len(programs) >= 2
    for program in programs:
        _assert_same_csc(program.a, _canonical(_scipy(program.a).toarray()))


def test_products_match_scipy():
    # _verify's A x against scipy's own sparse product
    rng = np.random.default_rng(2024)
    for _ in range(300):
        m = int(rng.integers(1, 8))
        n = int(rng.integers(1, 8))
        a = rng.normal(size=(m, n)) * (rng.random(size=(m, n)) < 0.7)
        record = _csc(a)
        x = rng.normal(size=n)
        ours, ref = record.matvec(x), _scipy(record) @ x
        assert ours.shape == ref.shape
        assert (np.abs(ours - ref) <= 1e-15 * (np.abs(a) @ np.abs(x))).all()


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
    prog = lp.LinearProgram(c=cost.ravel(), a=_csc(rows), b=np.array(rhs))
    assert prog.c @ lp.solve(prog).x == pytest.approx(0.1, abs=1e-9)


def test_duals_satisfy_strong_duality():
    # x1 + x2 >= 1 and x1 + 2 x2 >= 1.5, written with surplus variables
    prog = lp.LinearProgram(
        c=[2.0, 3.0, 0.0, 0.0],
        a=_csc([[1.0, 1.0, -1.0, 0.0], [1.0, 2.0, 0.0, -1.0]]),
        b=[1.0, 1.5],
    )
    sol = lp.solve(prog)
    assert prog.c @ sol.x == pytest.approx(2.5, abs=1e-9)
    assert sol.duals @ prog.b == pytest.approx(prog.c @ sol.x, abs=1e-8)


def test_lower_bounds():
    # x1 - x2 = -1: without the bound x >= 0 the objective x1 + x2 is unbounded
    # below; with it the optimum sits on x1 = 0
    prog = lp.LinearProgram(c=[1.0, 1.0], a=_csc([[1.0, -1.0]]), b=[-1.0])
    sol = lp.solve(prog)
    assert prog.c @ sol.x == pytest.approx(1.0, abs=1e-9)
    assert sol.x == pytest.approx([0.0, 1.0], abs=1e-9)


def test_verify_rejects_each_violation():
    # min x1 + 2 x2 s.t. x1 + x2 = 1: x = (1, 0) is feasible
    prog = lp.LinearProgram(c=[1.0, 2.0], a=_csc([[1.0, 1.0]]), b=[1.0])
    lp._verify(prog, np.array([1.0, 0.0]))
    with pytest.raises(LpFailure, match="primal residual"):
        lp._verify(prog, np.array([1.0, 0.1]))
    # x = (2, -1) meets the equation, but not x >= 0
    with pytest.raises(LpFailure, match="x >= 0"):
        lp._verify(prog, np.array([2.0, -1.0]))
    # the bound scales with 1 + max(|b|, |x|): 1e-9 off is within it, 3e-9 is not
    lp._verify(prog, np.array([1.0 + 1e-9, 0.0]))
    with pytest.raises(LpFailure, match="primal residual 3.000e-09 on row 0"):
        lp._verify(prog, np.array([1.0 + 3e-9, 0.0]))


def test_fuzz_terminates_and_verifies():
    # every optimum passes the internal residual checks at 1e-9 and matches
    # linprog; infeasible and unbounded programs are legitimate draws
    rng = np.random.default_rng(2024)
    statuses = set()
    for _ in range(300):
        m = int(rng.integers(1, 8))
        n = int(rng.integers(1, 8))
        a = rng.normal(size=(m, n)) * (rng.random(size=(m, n)) < 0.7)
        # half the draws are feasible by construction
        b = a @ rng.random(n) if rng.random() < 0.5 else rng.normal(size=m)
        prog = lp.LinearProgram(c=rng.normal(size=n), a=_csc(a), b=b)
        status, sol = _solve_matching_linprog(prog)
        statuses.add(status)
        if status == 0:
            assert np.abs(_scipy(prog.a) @ sol.x - prog.b).max() <= 1e-8
    assert statuses == {0, 2, 3}


#: The feasibility tolerances lp passes to HiGHS, for linprog to pass the same.
TOLERANCES = {"primal_feasibility_tolerance": lp._OPTIONS.primal_feasibility_tolerance,
              "dual_feasibility_tolerance": lp._OPTIONS.dual_feasibility_tolerance}


def _solve_matching_linprog(program):
    # scipy's linprog front end to the same HiGHS build is the independent
    # reference: an optimum (status 0) with bit-equal x, duals and iteration
    # count, Infeasible for status 2 and LpFailure for status 3;
    # returns linprog's status and the optimum, or None
    ref = linprog(program.c, A_eq=_scipy(program.a), b_eq=program.b, bounds=(0, None), method="highs",
                  options=TOLERANCES)
    assert ref.status in (0, 2, 3), ref.message
    if ref.status != 0:
        with pytest.raises(Infeasible if ref.status == 2 else LpFailure):
            lp.solve(program)
        return ref.status, None
    sol = lp.solve(program)
    assert np.array_equal(sol.x, ref.x)
    assert np.array_equal(sol.duals, ref.eqlin.marginals)
    assert sol.iterations == ref.nit
    if sol.basis.size:
        # the basis reproduces x: 0 off it, and B^-1 b on it
        assert np.count_nonzero(np.delete(sol.x, sol.basis)) == 0
        x_basic, [feasible] = lp.basic_solutions(program.a, sol.basis, program.b[None])
        assert feasible
        assert np.abs(x_basic[0] - sol.x[sol.basis]).max() <= 1e-9 * (1 + np.abs(sol.x).max())
    return ref.status, sol


def test_matches_linprog_on_semiparametric_programs(monkeypatch):
    # every program the semiparametric solver hands HiGHS: the pilot at
    # several eta, alone and as a batch of 25 the basis cover solves, two
    # moment-inequality models and example 4
    programs = []
    solve = lp.solve
    monkeypatch.setattr(lp, "solve", lambda program: programs.append(program) or solve(program))
    rng = np.random.default_rng(7)
    for eta in (0.1, 0.3, 0.5, 0.7, 0.9):
        model = binary_response_pilot(eta)
        sup = model.correspondence.outcome_support
        ps = [align(pilot_distribution(*rng.random(2)), sup) for _ in range(25)]
        semiparametric.maximize_dual(model, ps[0])
        semiparametric.maximize_dual_batch(model, *mass_rows(ps))
    nodes = np.linspace(-1.0, 1.0, 5)
    for phi, grid in (
        ([[-0.25], [0.75]], [[-1.0], [-0.25], [0.0], [0.75], [1.0]]),
        ([[0.0, 0.0], [0.5, -0.5]], np.array(np.meshgrid(nodes, nodes)).reshape(2, -1).T),
    ):
        model = moment_inequality_model(["0", "1"], phi, grid)
        sup = model.correspondence.outcome_support
        for q in (0.1, 0.25, 0.9):
            semiparametric.maximize_dual(model, align(make_distribution([("0", 1 - q), ("1", q)]), sup))
    for m in (2, 10, 1000):
        semiparametric.maximize_dual(*example4_instance(m))
    monkeypatch.undo()
    # each eta's batch takes at least one program, and a program has one block
    assert len(programs) >= 19
    assert max(p.b.size for p in programs) == 6
    for program in programs:
        assert _solve_matching_linprog(program)[0] == 0


def test_basic_solutions_are_feasible_only_within_tolerance():
    # x1 + x2 = b on the basis {x1}: x_B = b, feasible down to -TOLERANCE / 10
    a = _csc([[1.0, 1.0]])
    rhs = np.array([[1.0], [-0.5e-10], [-2e-10], [-1.0]])
    x_basic, feasible = lp.basic_solutions(a, np.array([0]), rhs)
    assert np.array_equal(x_basic, rhs)
    assert feasible.tolist() == [True, True, False, False]
    # no basis, or a singular one, covers nothing
    for basis in (np.empty(0, dtype=np.intp), np.array([0, 0])):
        two = _csc([[1.0, 1.0], [1.0, 1.0]])
        assert not lp.basic_solutions(two, basis, np.ones((2, 2)))[1].any()
    # nor does one whose dense B would pass the guard on entries
    n = 1001
    assert n * n > lp.MAX_NONZEROS
    assert not lp.basic_solutions(_csc(sparse.eye_array(n)), np.arange(n), np.ones((1, n)))[1].any()


def test_basic_solutions_check_the_residual():
    # an ill-conditioned B whose solve misses b by more than the bound of _verify
    a = _csc([[1.0, 1.0], [1.0, 1.0 + 1e-15]])
    x_basic, [feasible] = lp.basic_solutions(a, np.array([0, 1]), np.array([[1.0, 2.0]]))
    assert not feasible


def test_basis_is_empty_when_a_row_is_basic():
    # the second row repeats the first, so one logical variable stays basic
    sol = lp.solve(lp.LinearProgram(c=[1.0, 2.0], a=_csc([[1.0, 1.0], [2.0, 2.0]]), b=[1.0, 2.0]))
    assert sol.x.tolist() == [1.0, 0.0]
    assert sol.basis.size == 0
    # an A without entries: its one row is basic
    sol = lp.solve(lp.LinearProgram(c=[2.0], a=_csc([[0.0]]), b=[0.0]))
    assert sol.x.tolist() == [0.0] and sol.basis.size == 0
    sol = lp.solve(lp.LinearProgram(c=[2.0, 3.0, 0.0, 0.0],
                                    a=_csc([[1.0, 1.0, -1.0, 0.0], [1.0, 2.0, 0.0, -1.0]]),
                                    b=[1.0, 1.5]))
    assert sorted(sol.basis.tolist()) == [0, 1]


def test_reproducible():
    prog = lp.LinearProgram(
        c=[1.0, 2.0, 0.5, 0.0],
        a=_csc([[1.0, 1.0, 1.0, 0.0], [2.0, 0.0, 1.0, -1.0]]),
        b=[1.0, 0.7],
    )
    a = lp.solve(prog)
    b = lp.solve(prog)
    assert np.array_equal(a.x, b.x)
    assert np.array_equal(a.duals, b.duals)


# --- start-up: the HiGHS bindings without scipy.optimize or scipy.sparse ----

CORE = "scipy.optimize._highspy._core"


def _python(code: str) -> subprocess.CompletedProcess:
    """Run ``code`` in a fresh interpreter that imports falsiflow from this tree."""
    env = dict(os.environ, PYTHONPATH=str(Path(falsiflow.__file__).parent.parent))
    return subprocess.run([sys.executable, "-c", textwrap.dedent(code)],
                          env=env, capture_output=True, text=True, timeout=120)


def test_cli_import_runs_no_scipy_optimize_init():
    child = _python("""
        import sys
        import falsiflow.cli
        print(*sorted(k for k in sys.modules if k.startswith("scipy.optimize")))
    """)
    assert child.returncode == 0, child.stderr
    loaded = child.stdout.split()
    # the extension registers its own submodules (``cb``, ``simplex_constants``)
    assert CORE in loaded
    assert all(k == CORE or k.startswith(CORE + ".") for k in loaded), loaded


def _sparse_modules(stdout: str) -> list[str]:
    return [k for k in stdout.split() if k.startswith("scipy.sparse")]


def test_cli_import_loads_no_scipy_sparse():
    child = _python("""
        import sys
        import falsiflow.cli
        print(*sorted(sys.modules))
    """)
    assert child.returncode == 0, child.stderr
    assert _sparse_modules(child.stdout) == []


def _write_json(path: Path, obj) -> str:
    path.write_text(json.dumps(obj))
    return str(path)


def _run_cli(argv: list[str], before: str = "") -> subprocess.CompletedProcess:
    """``cli.main(argv)`` in a fresh interpreter, after the statement
    ``before``; prints the exit code, then every loaded module."""
    return _python(f"""
        {before}
        import sys
        from falsiflow.cli import main
        code = main({argv!r})
        print(code, *sorted(sys.modules))
    """)


SEARCH_SPEC = {"model": "search", "params": {
    "nu": {"support": ["e1", "e2", "e3"], "mass": [300000000, 300000000, 400000000]},
    "alpha": [["e1", 0.2], ["e2", 0.5], ["e3", 0.9]],
}}


@pytest.mark.parametrize("command", ["test-tn-halflines", "invert-semi", "simulate"])
def test_commands_without_max_flow_load_no_scipy_sparse(command, tmp_path):
    search = _write_json(tmp_path / "search.json", SEARCH_SPEC)
    pilot = _write_json(tmp_path / "pilot.json", {"model": "pilot", "params": {"eta": 0.5}})
    data = tmp_path / "data.csv"
    out = str(tmp_path / "out.txt")
    argv = {
        "test-tn-halflines": ["test", "--model", search, "--data", str(data),
                              "--stat", "tn-halflines", "--B", "20"],
        "invert-semi": ["invert", "--model", pilot, "--data", str(data), "--stat", "semi",
                        "--B", "20", "--grid", "eta=0.3:0.7:0.2"],
        "simulate": ["simulate", "--model", search, "--n", "10"],
    }[command]
    data.write_text("y\n0.5\n0.0\n0.9\n0.2\n" if command != "invert-semi"
                    else "y\n(0,-1)\n(1,1)\n(0,1)\n(1,-1)\n(1,1)\n")
    child = _run_cli(argv + ["--out", out])
    assert child.returncode == 0, child.stderr
    assert child.stdout.split()[0] == "0"
    assert Path(out).read_text()
    assert _sparse_modules(child.stdout) == []


def test_check_loads_csgraph_and_gives_the_same_bytes(tmp_path):
    # a custom spec whose P is incompatible, so the plan and the witness both show
    rng = np.random.default_rng(11)
    latents = [f"u{j}" for j in range(30)]
    outcomes = [f"y{i}" for i in range(8)]
    images = {u: sorted(rng.choice(outcomes, size=int(rng.integers(1, 4)), replace=False).tolist())
              for u in latents}
    nu = np.full(30, 1_000_000_000 // 30)
    nu[0] += 1_000_000_000 - nu.sum()
    p = rng.multinomial(1_000_000_000, rng.dirichlet(np.ones(8)))
    spec = _write_json(tmp_path / "custom.json", {"model": "custom", "params": {
        "correspondence": {"latent": latents, "outcomes": outcomes, "G": images},
        "nu": {"support": latents, "mass": nu.tolist()},
    }})
    dist = _write_json(tmp_path / "p.json", {"support": outcomes, "mass": p.tolist()})
    results = []
    for before in ("", "import scipy.sparse.csgraph"):
        out = tmp_path / f"out{len(results)}.json"
        child = _run_cli(["check", "--model", spec, "--dist", dist, "--out", str(out)], before)
        assert child.returncode == 0, child.stderr
        assert "scipy.sparse.csgraph" in child.stdout.split()
        results.append((child.stdout.split()[0], out.read_bytes()))
    assert results[0] == results[1]
    assert json.loads(results[0][1])["plan"]


@pytest.mark.parametrize("first", ["falsiflow", "scipy.optimize"])
def test_scipy_optimize_shares_the_bindings(first):
    imports = ["from falsiflow import lp", "from scipy.optimize import linprog"]
    if first == "scipy.optimize":
        imports.reverse()
    child = _python(f"""
        {imports[0]}
        {imports[1]}
        import sys
        import numpy as np
        from scipy import sparse
        import {CORE} as core
        assert core is lp.highs is sys.modules["{CORE}"]
        c, a, b = [1.0, 2.0, 0.5, 0.0], [[1.0, 1.0, 1.0, 0.0], [2.0, 0.0, 1.0, -1.0]], [1.0, 0.7]
        tol = {{"primal_feasibility_tolerance": lp._OPTIONS.primal_feasibility_tolerance,
                "dual_feasibility_tolerance": lp._OPTIONS.dual_feasibility_tolerance}}
        ref = linprog(c, A_eq=a, b_eq=b, bounds=(0, None), method="highs", options=tol)
        m = sparse.csc_array(a, dtype=float)
        record = lp.CscMatrix(m.data, m.indices.astype(np.int32), m.indptr.astype(np.int32), m.shape)
        sol = lp.solve(lp.LinearProgram(c=c, a=record, b=b))
        assert ref.status == 0
        assert np.array_equal(ref.x, sol.x), (ref.x, sol.x)
    """)
    assert child.returncode == 0, child.stderr


def test_missing_bindings_name_the_path():
    child = _python("""
        import importlib.machinery
        importlib.machinery.EXTENSION_SUFFIXES.insert(0, ".moved.so")
        import falsiflow.lp
    """)
    assert child.returncode == 1
    assert "ImportError: scipy's HiGHS bindings are not at " in child.stderr
    assert "_highspy/_core.moved.so" in child.stderr.replace(os.sep, "/")
