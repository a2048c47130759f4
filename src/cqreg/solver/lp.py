"""Linear programs on a HiGHS session.

`LpSession` holds one HiGHS instance from the bindings that scipy ships
(`scipy.optimize._highspy._core`, a private scipy API; `pyproject.toml`
requires a scipy that has it).  `_load_core` loads that one extension
from its file instead of importing it.  An import would first run
`scipy.optimize`'s `__init__`, which loads all of `scipy.optimize` with
`scipy.spatial`, `scipy.fft` and `scipy.constants`: about 10 MiB of
resident memory in every process that fits, for one compiled module.
The loaded module is registered in `sys.modules` under its dotted name,
and an entry already there is reused, so a later `import scipy.optimize`
finds the same module object: HiGHS's bindings are initialized once and
`linprog` keeps working.  (The package `scipy.optimize._highspy` then
lacks a `_core` attribute; import statements still find the module.)
The loader relies on scipy's private file layout,
`scipy/optimize/_highspy/_core.*` (scipy >= 1.17).

`LpSession(problem)` passes the model exactly as
`scipy.optimize.linprog(method="highs")` passes it: column-wise, the `<=`
rows first and the `=` rows after (a sense without rows is a 0-row
block), infinities mapped to `kHighsInf`, presolve on, dual simplex, the
simplex and IPM iteration caps at _MAX_SIMPLEX_ITERS and no output.  The
first solve of a session is therefore the cold solve `linprog` gives,
bit for bit.  The model goes in through the array overload of
`passModel`: sizes, column-wise format, minimization, a zero offset,
costs, column and row bounds, the CSC arrays and an all-continuous
integrality array, which HiGHS turns into the `HighsLp` that `linprog`
fills field by field.  The CSC arrays of the reordered rows are written
by scipy's sparse kernels straight from the problem's CSR arrays, with
the bits `csc_array(a[order])` would hold.

`solve(lower, upper)` first replaces every column's bounds and clears the
solver, so it is again a cold solve, without stacking the matrices or
passing the model anew; `solve()` keeps the bounds and the basis.
Branch-and-bound re-solves its one relaxation this way per node.  A
solve with bounds is the cold solve a fresh session with those bounds
gives, bit for bit, only when every row was passed before the session's
first solve: after `solve` and then `add_rows`, `x` and the objective can
differ from the fresh session's in their last bits (with the same
iteration count), so branch-and-cut must not rely on it.

`add_rows` appends `<=` rows given by their CSR arrays.  HiGHS keeps the
last basis, with the new rows basic, so the next `solve` hot-starts from
it instead of presolving and solving from scratch.  That solve reaches an
optimum of the same model, but not necessarily the vertex a cold solve
picks when there are several; `min_nonbasic_dual` tells a caller whether
the optimum is unique.
Hot re-solves price with Devex instead of HiGHS's default dual steepest
edge (Forrest and Goldfarb 1992): it takes more iterations, each of them
cheaper.  The pricing rule only chooses the path to an optimum, so when
`min_nonbasic_dual` shows that optimum is unique, the rule cannot change
it.  A fresh session and a solve with bounds use the default pricing, so
cold solves are unaffected.

Every optimal solve carries its dual objective, so it can be certified by
comparing primal and dual objectives.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import os
import sys
import time

import numpy as np
import scipy
from scipy import sparse
from scipy.sparse import _sparsetools

from ..model import OptProblem
from .base import Solution, SolverError, Status


def _load_core():
    """scipy's HiGHS bindings, without importing `scipy.optimize`."""
    name = "scipy.optimize._highspy._core"
    module = sys.modules.get(name)
    if module is not None:
        return module
    directory = os.path.join(scipy.__path__[0], "optimize", "_highspy")
    spec = importlib.machinery.PathFinder.find_spec(name, [directory])
    if spec is None:
        raise ImportError(f"scipy's HiGHS bindings are not in {directory}", name=name)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    try:
        spec.loader.exec_module(module)
    except BaseException:
        del sys.modules[name]
        raise
    return module


_core = _load_core()

_MAX_SIMPLEX_ITERS = 100_000

_OPTIONS = (
    ("output_flag", False),
    ("log_to_console", False),
    ("presolve", "on"),
    ("simplex_strategy", 1),  # dual simplex
    ("simplex_iteration_limit", _MAX_SIMPLEX_ITERS),
    ("ipm_iteration_limit", _MAX_SIMPLEX_ITERS),
)

# Dual simplex pricing: HiGHS's default (-1, dual steepest edge unless it
# proves too costly) for cold solves, Devex (1) for hot ones.
_PRICING = "simplex_dual_edge_weight_strategy"
_COLD_PRICING = -1
_HOT_PRICING = 1

_COLWISE = int(_core.MatrixFormat.kColwise)
_MINIMIZE = int(_core.ObjSense.kMinimize)

_STATUS = {
    _core.HighsModelStatus.kOptimal: Status.OPTIMAL,
    _core.HighsModelStatus.kIterationLimit: Status.ITERATION_LIMIT,
    _core.HighsModelStatus.kInfeasible: Status.INFEASIBLE,
    _core.HighsModelStatus.kUnbounded: Status.UNBOUNDED,
}


def _csc_of_rows(
    a: sparse.csr_matrix, order: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """CSC arrays (column starts, row indices, values) of the rows of `a`
    taken in `order`, with sorted row indices: the arrays
    `sparse.csc_array(a[order])` holds, bit for bit, without building
    either matrix."""
    n_rows, n_cols = a.shape
    idx = a.indptr.dtype
    indptr = np.zeros(n_rows + 1, dtype=idx)
    np.cumsum(np.diff(a.indptr)[order], out=indptr[1:])
    nnz = int(indptr[-1])
    indices, data = np.empty(nnz, dtype=idx), np.empty(nnz)
    _sparsetools.csr_row_index(
        n_rows, order.astype(idx), a.indptr, a.indices, a.data, indices, data
    )
    start, index, value = np.empty(n_cols + 1, dtype=idx), np.empty(nnz, dtype=idx), np.empty(nnz)
    _sparsetools.csr_tocsc(n_rows, n_cols, indptr, indices, data, start, index, value)
    return start, index, value


def _highs_inf(values: np.ndarray) -> np.ndarray:
    return np.clip(np.asarray(values, dtype=float), -_core.kHighsInf, _core.kHighsInf)


class LpSession:
    """One HiGHS model of a pure LP, kept between solves so rows can be
    appended and the model re-solved from the last basis or under new
    column bounds."""

    def __init__(self, problem: OptProblem):
        if problem.is_mip:
            raise ValueError("problem has integrality flags; use solve_mip")
        if problem.has_quad:
            raise ValueError("problem has a quadratic objective; use solve_qp")
        n_cols = problem.n_vars
        a = problem.a.tocsr()
        n_rows = a.shape[0]
        is_eq = problem.sense == "E"
        order = np.argsort(is_eq, kind="stable")  # the `<=` rows, then the `=` rows
        start, index, value = _csc_of_rows(a, order)
        self._lower = _highs_inf(problem.lower)
        self._upper = _highs_inf(problem.upper)
        self._row_upper = _highs_inf(problem.rhs[order])
        self._le = ~is_eq[order]

        self._highs = _core._Highs()
        for key, option in _OPTIONS:
            self._highs.setOptionValue(key, option)
        # Duals and nonbasic masks of the last optimal solve.
        self._last: tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray] | None = None
        status = self._highs.passModel(
            n_cols, n_rows, value.size, _COLWISE, _MINIMIZE, 0.0,  # 0.0: objective offset
            problem.obj_linear, self._lower, self._upper,
            np.where(self._le, -_core.kHighsInf, self._row_upper), self._row_upper,
            start, index, value,
            np.zeros(n_cols, dtype=np.int32),  # every column continuous
        )
        if status == _core.HighsStatus.kError:
            raise SolverError("HiGHS rejected the LP model")

    def add_rows(
        self, indptr: np.ndarray, indices: np.ndarray, data: np.ndarray, rhs: np.ndarray
    ) -> None:
        """Append the rows a @ x <= rhs, `a` given by its CSR arrays (int32
        `indptr` and `indices`, float64 `data`); the next solve starts from
        the current basis and prices with Devex."""
        m = rhs.shape[0]
        rhs = _highs_inf(rhs)
        self._highs.setOptionValue(_PRICING, _HOT_PRICING)
        status = self._highs.addRows(
            m, np.full(m, -_core.kHighsInf), rhs, data.size, indptr[:-1], indices, data
        )
        if status == _core.HighsStatus.kError:
            raise SolverError("HiGHS rejected the appended rows")
        self._row_upper = np.concatenate([self._row_upper, rhs])
        self._le = np.concatenate([self._le, np.ones(m, dtype=bool)])

    def solve(self, lower: np.ndarray | None = None, upper: np.ndarray | None = None) -> Solution:
        """Solve the model from the last basis when there is one.  Given
        bounds, first replace every column's bounds and drop the basis, so
        the solve is a cold one (see the module docstring for when it gives
        a fresh session's bits)."""
        if lower is not None:
            self._lower = _highs_inf(lower)
            self._upper = _highs_inf(upper)
            self._highs.clearSolver()
            self._highs.setOptionValue(_PRICING, _COLD_PRICING)
            n_cols = self._lower.size
            status = self._highs.changeColsBounds(
                n_cols, np.arange(n_cols, dtype=np.int32), self._lower, self._upper
            )
            if status == _core.HighsStatus.kError:
                raise SolverError("HiGHS rejected the column bounds")
        start = time.perf_counter()
        self._last = None
        self._highs.run()
        model_status = self._highs.getModelStatus()
        status = _STATUS.get(model_status)
        if status is None:
            raise SolverError(f"LP solve failed: {self._highs.modelStatusToString(model_status)}")
        info = self._highs.getInfo()
        iterations = info.simplex_iteration_count or info.ipm_iteration_count
        if status is not Status.OPTIMAL:
            return Solution(status, None, float("nan"), iterations, 0, time.perf_counter() - start)
        solution = self._highs.getSolution()
        x = np.array(solution.col_value)
        col_dual = np.array(solution.col_dual)
        row_dual = np.array(solution.row_dual)
        cols, rows = self._nonbasic()
        self._last = (col_dual, row_dual, cols, rows)
        # Nonbasic columns sit at the bound their reduced cost prices.
        dual = float(self._row_upper @ row_dual)
        dual += float(col_dual[cols] @ x[cols])
        return Solution(
            status=status,
            x=x,
            objective=float(info.objective_function_value),
            iterations=int(iterations),
            wall_time=time.perf_counter() - start,
            dual_objective=dual,
        )

    def min_nonbasic_dual(self) -> float:
        """Smallest |reduced cost| over the nonbasic columns that are not fixed
        and the nonbasic `<=` rows of the last solve, which must have been
        optimal (inf when there are none).

        When it is nonzero the basis is dual nondegenerate: moving any
        nonbasic variable off its bound raises the objective, so the basis's
        vertex is the only optimum.
        """
        col_dual, row_dual, cols, rows = self._last
        reduced = np.concatenate([col_dual[cols & (self._lower < self._upper)], row_dual[rows & self._le]])
        return float(np.min(np.abs(reduced), initial=np.inf))

    def _nonbasic(self) -> tuple[np.ndarray, np.ndarray]:
        """Masks of the nonbasic columns and rows of the last basis."""
        _, basic = self._highs.getBasicVariables()
        cols = np.ones(self._lower.size, dtype=bool)
        rows = np.ones(self._le.size, dtype=bool)
        cols[basic[basic >= 0]] = False
        rows[-1 - basic[basic < 0]] = False
        return cols, rows


def solve_lp(problem: OptProblem) -> Solution:
    """Solve a pure LP to optimality (deterministic for a fixed problem)."""
    return LpSession(problem).solve()
