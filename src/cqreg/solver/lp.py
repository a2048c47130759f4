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

The model is passed exactly as
`scipy.optimize.linprog(method="highs")` passes it: column-wise, the `<=`
rows first and the `=` rows after (as `split_rows` orders them; a sense
without rows is a 0-row block), infinities mapped to `kHighsInf`,
presolve on, dual simplex, the simplex and IPM iteration caps at
_MAX_SIMPLEX_ITERS and no output.  The first solve of a session is
therefore the cold solve `linprog` gives, bit for bit.

`set_bounds` replaces the column bounds and clears the solver, so the
next `solve` is again a cold solve, without stacking the matrices or
passing the model anew.  Branch-and-bound re-solves its one relaxation
this way per node.  It is the cold solve a fresh session with those
bounds gives, bit for bit, only when every row was passed before the
session's first solve: after `solve` and then `add_rows`, `x` and the
objective can differ from the fresh session's in their last bits (with
the same iteration count), so branch-and-cut must not rely on it.

`add_rows` appends `<=` rows.  HiGHS keeps the last basis, with the new
rows basic, so the next `solve` hot-starts from it instead of presolving
and solving from scratch.  That solve reaches an optimum of the same
model, but not necessarily the vertex a cold solve picks when there are
several; `min_nonbasic_dual` tells a caller whether the optimum is unique.
Hot re-solves price with Devex instead of HiGHS's default dual steepest
edge (Forrest and Goldfarb 1992): it takes more iterations, each of them
cheaper.  The pricing rule only chooses the path to an optimum, so when
`min_nonbasic_dual` shows that optimum is unique, the rule cannot change
it.  A fresh session and `set_bounds` use the default pricing, so cold
solves are unaffected.

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

_STATUS = {
    _core.HighsModelStatus.kOptimal: Status.OPTIMAL,
    _core.HighsModelStatus.kIterationLimit: Status.ITERATION_LIMIT,
    _core.HighsModelStatus.kInfeasible: Status.INFEASIBLE,
    _core.HighsModelStatus.kUnbounded: Status.UNBOUNDED,
}


def split_rows(problem: OptProblem):
    """Partition the constraint rows into (A_ub, b_ub, A_eq, b_eq) for HiGHS;
    a sense with no rows gives a 0-row block."""
    is_eq = problem.sense == "E"
    a = problem.a.tocsr()
    return a[~is_eq], problem.rhs[~is_eq], a[is_eq], problem.rhs[is_eq]


def _highs_inf(values: np.ndarray) -> np.ndarray:
    return np.clip(np.asarray(values, dtype=float), -_core.kHighsInf, _core.kHighsInf)


class LpSession:
    """One HiGHS model: min c @ x s.t. a_ub @ x <= b_ub, a_eq @ x == b_eq,
    lower <= x <= upper, kept between solves so rows can be appended and
    the model re-solved from the last basis."""

    def __init__(self, c, a_ub, b_ub, a_eq, b_eq, lower: np.ndarray, upper: np.ndarray):
        n_cols = c.shape[0]
        a = sparse.csc_array(sparse.vstack([a_ub, a_eq]))
        self._lower = _highs_inf(lower)
        self._upper = _highs_inf(upper)
        self._row_upper = _highs_inf(np.concatenate([b_ub, b_eq]))
        self._le = np.concatenate([np.ones(b_ub.size, dtype=bool), np.zeros(b_eq.size, dtype=bool)])

        lp = _core.HighsLp()
        lp.num_col_ = n_cols
        lp.num_row_ = a.shape[0]
        lp.a_matrix_.num_col_ = n_cols
        lp.a_matrix_.num_row_ = a.shape[0]
        lp.a_matrix_.format_ = _core.MatrixFormat.kColwise
        lp.a_matrix_.start_ = a.indptr
        lp.a_matrix_.index_ = a.indices
        lp.a_matrix_.value_ = a.data
        lp.col_cost_ = c
        lp.col_lower_ = self._lower
        lp.col_upper_ = self._upper
        lp.row_lower_ = np.where(self._le, -_core.kHighsInf, self._row_upper)
        lp.row_upper_ = self._row_upper

        self._highs = _core._Highs()
        for key, value in _OPTIONS:
            self._highs.setOptionValue(key, value)
        # Duals and nonbasic masks of the last optimal solve.
        self._last: tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray] | None = None
        if self._highs.passModel(lp) == _core.HighsStatus.kError:
            raise SolverError("HiGHS rejected the LP model")

    @classmethod
    def for_problem(cls, problem: OptProblem) -> LpSession:
        """A session holding a pure LP."""
        if problem.is_mip:
            raise ValueError("problem has integrality flags; use solve_mip")
        if problem.has_quad:
            raise ValueError("problem has a quadratic objective; use solve_qp")
        return cls(problem.obj_linear, *split_rows(problem), problem.lower, problem.upper)

    def add_rows(self, a: sparse.csr_matrix, rhs: np.ndarray) -> None:
        """Append the rows a @ x <= rhs (`a` in CSR form); the next solve
        starts from the current basis and prices with Devex."""
        m = a.shape[0]
        rhs = _highs_inf(rhs)
        self._highs.setOptionValue(_PRICING, _HOT_PRICING)
        status = self._highs.addRows(
            m, np.full(m, -_core.kHighsInf), rhs, a.nnz, a.indptr[:-1], a.indices, a.data
        )
        if status == _core.HighsStatus.kError:
            raise SolverError("HiGHS rejected the appended rows")
        self._row_upper = np.concatenate([self._row_upper, rhs])
        self._le = np.concatenate([self._le, np.ones(m, dtype=bool)])

    def set_bounds(self, lower: np.ndarray, upper: np.ndarray) -> None:
        """Replace every column's bounds and drop the basis, so the next solve
        is a cold solve.  It gives a fresh session's bits with these bounds
        only if every row was passed before this session's first solve;
        after `solve` and then `add_rows` the bits can differ (see the
        module docstring)."""
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

    def solve(self) -> Solution:
        """Solve the current model, from the last basis when there is one."""
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


def solve_arrays(
    c: np.ndarray,
    a_ub,
    b_ub,
    a_eq,
    b_eq,
    lower: np.ndarray,
    upper: np.ndarray,
) -> Solution:
    """One cold HiGHS solve of a fresh session (no caller in the package;
    bench/instrument.py wraps its name in `bnb`)."""
    return LpSession(c, a_ub, b_ub, a_eq, b_eq, lower, upper).solve()


def solve_lp(problem: OptProblem) -> Solution:
    """Solve a pure LP to optimality (deterministic for a fixed problem)."""
    return LpSession.for_problem(problem).solve()
