"""Sparse equality-form linear programs: the primal LP of the semiparametric
statistic.

A program is  min c'x  s.t.  A x = b,  x >= 0,  with A held as a
:class:`CscMatrix`, the three compressed-column arrays HiGHS reads.  It is
solved by the dual simplex method of HiGHS through the bindings scipy ships,
``scipy.optimize._highspy._core``: the one private scipy module ``src/``
imports, and only here.  It is loaded from its file, because importing it by
name runs the ``scipy.optimize`` package init, which costs every start-up
about 0.4 s and of which nothing here is used.  Nothing here imports
``scipy.sparse`` either (about 0.2 s more).  :func:`solve` returns only an
optimum, whose x it checks for primal feasibility at :data:`TOLERANCE`, with
its duals and basis but not HiGHS's objective value; every other outcome
raises.  Its one caller, :mod:`falsiflow.semiparametric`, certifies
optimality against c'x.  Whether a basis is optimal does not depend on b
(Bertsimas & Tsitsiklis, *Introduction to Linear Optimization*, 1997, §5.1),
so :func:`basic_solutions` tests the optimal basis of :func:`solve` on other b.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import scipy

from .errors import DimensionMismatch, Infeasible, LpFailure


def _load_highs():
    """scipy's HiGHS bindings, registered under their own name, so that a
    later ``import scipy.optimize`` in the process gets this module object;
    the one already imported, if ``scipy.optimize`` came first."""
    name = "scipy.optimize._highspy._core"
    if name in sys.modules:
        return sys.modules[name]
    suffix = importlib.machinery.EXTENSION_SUFFIXES[0]
    path = Path(scipy.__file__).parent / "optimize" / "_highspy" / f"_core{suffix}"
    if not path.is_file():
        raise ImportError(f"scipy's HiGHS bindings are not at {path}", name=name, path=str(path))
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


highs = _load_highs()

#: Feasibility tolerance of returned optima, and of the semiparametric certificate.
TOLERANCE = 1e-9

#: Guard on the stored nonzeros of A.  Each costs about 12 bytes here and
#: again in each copy HiGHS makes, so a program stays near 100 MB.  A dense
#: basis matrix (:func:`basic_solutions`) is held to as many entries.
MAX_NONZEROS = 10**6


#: The HiGHS options scipy's own LP front end sets: presolve on, dual simplex
#: (strategy 1), no output; and feasibility tolerances a tenth of TOLERANCE.  At
#: TOLERANCE itself, x may hold -1e-9 and T land one fixed-point unit too low.
_OPTIONS = highs.HighsOptions()
_OPTIONS.presolve = "on"
_OPTIONS.simplex_strategy = 1
_OPTIONS.output_flag = _OPTIONS.log_to_console = False
_OPTIONS.primal_feasibility_tolerance = _OPTIONS.dual_feasibility_tolerance = TOLERANCE / 10


@dataclass(frozen=True, eq=False)
class CscMatrix:
    """A sparse matrix in compressed sparse column form, without explicit
    zeros and with the row indices of each column ascending: column j holds
    the values ``data[indptr[j]:indptr[j + 1]]`` in the rows
    ``indices[indptr[j]:indptr[j + 1]]``."""

    data: np.ndarray     # float64
    indices: np.ndarray  # int32 row indices
    indptr: np.ndarray   # int32 column starts, shape[1] + 1 of them
    shape: tuple[int, int]

    @property
    def size(self) -> int:
        """The number of stored entries."""
        return self.data.size

    def matvec(self, x: np.ndarray) -> np.ndarray:
        """A x, summed entry by entry in storage order."""
        columns = np.repeat(np.arange(self.shape[1]), np.diff(self.indptr))
        return np.bincount(self.indices, self.data * x[columns], minlength=self.shape[0])


@dataclass(frozen=True)
class LinearProgram:
    """min c'x  s.t.  a x = b,  x >= 0."""

    c: np.ndarray
    a: CscMatrix
    b: np.ndarray

    def __post_init__(self):
        c = np.atleast_1d(np.asarray(self.c, dtype=float))
        b = np.atleast_1d(np.asarray(self.b, dtype=float))
        a = self.a
        object.__setattr__(self, "c", c)
        object.__setattr__(self, "b", b)
        if a.shape != (b.size, c.size):
            raise DimensionMismatch(f"constraint matrix is {a.shape}, expected {(b.size, c.size)}")
        if not (np.isfinite(c).all() and np.isfinite(a.data).all() and np.isfinite(b).all()):
            raise DimensionMismatch("all problem entries must be finite")
        if a.size > MAX_NONZEROS:
            raise DimensionMismatch(
                f"constraint matrix has {a.size} nonzeros, above the guard of {MAX_NONZEROS}"
            )


@dataclass(frozen=True)
class Solution:
    x: np.ndarray
    duals: np.ndarray  # one multiplier per constraint row
    iterations: int    # dual simplex iterations (``nit``)
    basis: np.ndarray  # the optimal basis's column indices, one per row; empty if a row is basic


def solve(program: LinearProgram) -> Solution:
    """The optimum HiGHS reports for ``program``, primal feasible at
    :data:`TOLERANCE`; every other outcome raises :class:`Infeasible` or :class:`LpFailure`."""
    model, matrix = highs.HighsLp(), program.a
    model.num_row_, model.num_col_ = matrix.shape
    model.a_matrix_.num_row_, model.a_matrix_.num_col_ = matrix.shape
    model.a_matrix_.format_ = highs.MatrixFormat.kColwise
    model.a_matrix_.start_ = matrix.indptr
    model.a_matrix_.index_ = matrix.indices
    model.a_matrix_.value_ = matrix.data
    model.col_cost_ = program.c
    model.col_lower_ = np.zeros(program.c.size)
    model.col_upper_ = np.full(program.c.size, highs.kHighsInf)
    model.row_lower_ = model.row_upper_ = program.b
    solver = highs._Highs()
    solver.passOptions(_OPTIONS)
    if solver.passModel(model) == highs.HighsStatus.kError:
        raise LpFailure("HiGHS refused the program")
    solver.run()
    status = solver.getModelStatus()
    message = solver.modelStatusToString(status)
    if status in (highs.HighsModelStatus.kInfeasible, highs.HighsModelStatus.kModelError):
        raise Infeasible(f"solver found the program infeasible: {message}")
    if status != highs.HighsModelStatus.kOptimal:
        raise LpFailure(f"solver failure: {message}")
    solution, info = solver.getSolution(), solver.getInfo()
    x, duals = np.array(solution.col_value), np.array(solution.row_dual)
    if not (np.isfinite(x).all() and np.isfinite(duals).all()):
        raise LpFailure("solver returned a non-finite solution")
    _verify(program, x)
    return Solution(x, duals, int(info.simplex_iteration_count), _basic_columns(solver, program.b.size))


def _basic_columns(solver, rows: int) -> np.ndarray:
    """The column indices of HiGHS's final basis, one per row; empty unless
    that basis is valid and no row (a logical variable) is basic."""
    basis = solver.getBasis()
    # getBasicVariables lists one index per row (row i as -1 - i), where the
    # column statuses of getBasis cost one Python object per column; but it
    # crashes the process on some bases with a basic row, such as that of an
    # A without entries, so the row statuses are read first
    if not basis.valid or highs.HighsBasisStatus.kBasic in basis.row_status:
        return np.empty(0, dtype=np.intp)
    status, basic = solver.getBasicVariables()
    if status != highs.HighsStatus.kOk or basic.size != rows or (basic < 0).any():
        return np.empty(0, dtype=np.intp)
    return basic.astype(np.intp)


def basic_solutions(a: CscMatrix, basis: np.ndarray, rhs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """x_B = B^-1 b for each row b of ``rhs``, where B holds the ``basis``
    columns of ``a``, and which of them are feasible: x_B >= -TOLERANCE / 10
    (HiGHS's bound) and B x_B = b at the bound of :func:`_verify`.  The point
    that is x_B on the basis and 0 elsewhere then passes :func:`_verify`, and
    under an optimal basis it is optimal.  None is feasible when ``basis`` is
    empty, B is singular, or B, held densely, has over :data:`MAX_NONZEROS` entries.
    """
    rows = a.shape[0]
    x, none = np.empty((len(rhs), basis.size)), np.zeros(len(rhs), dtype=bool)
    if basis.size != rows or rows * rows > MAX_NONZEROS:
        return x, none
    matrix = np.zeros((rows, rows))
    for k, j in enumerate(basis):
        entries = slice(a.indptr[j], a.indptr[j + 1])
        matrix[a.indices[entries], k] = a.data[entries]
    try:
        x = np.linalg.solve(matrix, rhs.T).T
    except np.linalg.LinAlgError:
        return x, none
    scale = 1.0 + np.maximum(np.abs(rhs).max(axis=1, initial=0.0), np.abs(x).max(axis=1, initial=0.0))
    resid = np.abs(x @ matrix.T - rhs).max(axis=1, initial=0.0)
    return x, (x >= -TOLERANCE / 10).all(axis=1) & (resid <= TOLERANCE * scale)


def _verify(program: LinearProgram, x: np.ndarray):
    """Raise :class:`LpFailure` unless x >= 0 and A x = b at TOLERANCE * (1 + max |b|, |x|)."""
    scale = 1.0 + max(np.abs(program.b).max(initial=0.0), np.abs(x).max(initial=0.0))
    if (x < -TOLERANCE * scale).any():
        raise LpFailure("primal solution violates x >= 0")
    resid = program.a.matvec(x) - program.b
    bad = np.flatnonzero(np.abs(resid) > TOLERANCE * scale)
    if bad.size:
        raise LpFailure(f"primal residual {resid[bad[0]]:.3e} on row {bad[0]}")
