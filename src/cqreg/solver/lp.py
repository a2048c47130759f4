"""Linear programs on a HiGHS session.

`LpSession` holds one HiGHS instance from the bindings that scipy ships
(`scipy.optimize._highspy._core`, a private scipy API; `pyproject.toml`
requires a scipy that has it).  `base.load_extension` loads that one
extension from its file instead of importing it.  An import would first
run `scipy.optimize`'s `__init__`, which loads all of `scipy.optimize`
with `scipy.spatial`, `scipy.fft` and `scipy.constants`: about 10 MiB of
resident memory in every process that fits, for one compiled module.  A
later `import scipy.optimize` finds the same module object, so HiGHS's
bindings are initialized once and `linprog` keeps working.  The loader
relies on scipy's private file layout, `scipy/optimize/_highspy/_core.*`
(scipy >= 1.17).

`LpSession(problem)` gives HiGHS the model that
`scipy.optimize.linprog(method="highs")` gives it: the `<=` rows first
and the `=` rows after (a sense without rows is a 0-row block), presolve
on, dual simplex, the simplex iteration cap at _MAX_SIMPLEX_ITERS and no
output (`linprog` also caps IPM iterations, which dual simplex never makes).
The first solve of a session is therefore the cold solve `linprog` gives,
bit for bit.  The model goes in through `_pass_model`, the array
overload of `passModel` that `export_mps` also uses: sizes, row-wise
format, minimization, a zero offset, costs, column and row bounds, the
CSR arrays of the reordered rows `a[order]` (scipy's `csr_row_index`
gather) and the problem's integrality, all continuous in a session.
HiGHS builds the column-wise matrix from the rows itself, the one
`linprog`'s CSC arrays give, so the session never transposes the
matrix.  Rows pass as CSR in both calls that take them, `passModel` and
`addRows`.  Infinite bounds pass as `inf`, which is HiGHS's own infinity.

`solve(lower, upper)` first replaces every column's bounds and clears the
solver, so it is again a cold solve, without stacking the matrices or
passing the model anew; `solve()` keeps the bounds and the basis.
Branch-and-bound solves its root and every pinned point this way.  A
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

`solve_hot(basis, lower, upper, bound)` is branch-and-bound's node
re-solve: it replaces every column's bounds, installs `basis` (a
`basis()` read after an optimal solve of the same model under other
bounds) and runs dual simplex from it, without presolve, at the session's
pricing.  `bound` is HiGHS's `objective_bound`: dual simplex stops as soon
as its dual objective, a lower bound on the optimum, exceeds it, and the
solve returns status CUTOFF without a point.  The bound holds for that one
solve.  A cold solve never carries a bound, so it always runs to its
optimum; only a hot solve can return CUTOFF.  Branch-and-bound runs its hot
and cold solves in one session: a `solve(lower, upper)` after hot solves
still gives a fresh session's bits, since it clears the solver first.

A solve reads back only its status, iteration count, objective and `x`.
The duals and the basis of the last optimal solve are read from HiGHS
when `min_nonbasic_dual` or `dual_objective` asks for them, so a caller
that certifies a fit pays for them and a branch-and-bound node does not.
"""

from __future__ import annotations

import numpy as np

from ..model import OptProblem
from .base import Solution, SolverError, Status, load_extension

_core = load_extension("scipy.optimize._highspy._core")

_MAX_SIMPLEX_ITERS = 100_000

_OPTIONS = (
    ("output_flag", False),
    ("log_to_console", False),
    ("presolve", "on"),
    ("simplex_strategy", 1),  # dual simplex
    ("simplex_iteration_limit", _MAX_SIMPLEX_ITERS),
)

# Dual simplex pricing: HiGHS's default (-1, dual steepest edge unless it
# proves too costly) for cold solves, Devex (1) for hot ones.
_PRICING = "simplex_dual_edge_weight_strategy"
_COLD_PRICING = -1
_HOT_PRICING = 1

_ROWWISE = int(_core.MatrixFormat.kRowwise)
_MINIMIZE = int(_core.ObjSense.kMinimize)

_STATUS = {
    _core.HighsModelStatus.kOptimal: Status.OPTIMAL,
    _core.HighsModelStatus.kIterationLimit: Status.ITERATION_LIMIT,
    _core.HighsModelStatus.kInfeasible: Status.INFEASIBLE,
    _core.HighsModelStatus.kUnbounded: Status.UNBOUNDED,
    _core.HighsModelStatus.kObjectiveBound: Status.CUTOFF,  # only a hot solve carries a bound
}
_BOUND = "objective_bound"  # dual simplex stops once its objective exceeds it


def _pass_model(highs, problem: OptProblem, order: np.ndarray) -> None:
    """Give `highs` the problem with its rows in `order`: a `<=` row has no
    lower side, an `=` row both sides at its right-hand side."""
    rows = problem.a.tocsr()[order]
    rhs = problem.rhs[order].astype(float)
    status = highs.passModel(
        problem.n_vars, rows.shape[0], rows.nnz, _ROWWISE, _MINIMIZE, 0.0,  # 0.0: objective offset
        problem.obj_linear, problem.lower, problem.upper,
        np.where(problem.sense[order] == "E", rhs, -np.inf), rhs,
        rows.indptr, rows.indices, rows.data,
        problem.integer.astype(np.int32),
    )
    if status == _core.HighsStatus.kError:
        raise SolverError("HiGHS rejected the model")


class LpSession:
    """One HiGHS model of a pure LP, kept between solves so rows can be
    appended and the model re-solved from the last basis or under new
    column bounds."""

    def __init__(self, problem: OptProblem):
        if problem.is_mip:
            raise ValueError("problem has integrality flags; use solve_mip")
        if problem.has_quad:
            raise ValueError("problem has a quadratic objective; use solve_qp")
        is_eq = problem.sense == "E"
        order = np.argsort(is_eq, kind="stable")  # the `<=` rows, then the `=` rows
        self._lower = np.array(problem.lower, dtype=float)
        self._upper = np.array(problem.upper, dtype=float)
        self._row_upper = problem.rhs[order].astype(float)
        self._le = ~is_eq[order]

        self._highs = _core._Highs()
        for key, option in _OPTIONS:
            self._highs.setOptionValue(key, option)
        self._x: np.ndarray | None = None  # x of the last solve, while it is optimal and current
        _pass_model(self._highs, problem, order)

    def add_rows(
        self, indptr: np.ndarray, indices: np.ndarray, data: np.ndarray, rhs: np.ndarray
    ) -> None:
        """Append the rows a @ x <= rhs, `a` given by its CSR arrays (int32
        `indptr` and `indices`, float64 `data`); the next solve starts from
        the current basis and prices with Devex."""
        m = rhs.shape[0]
        self._highs.setOptionValue(_PRICING, _HOT_PRICING)
        status = self._highs.addRows(m, np.full(m, -np.inf), rhs, data.size, indptr[:-1], indices, data)
        if status == _core.HighsStatus.kError:
            raise SolverError("HiGHS rejected the appended rows")
        self._row_upper = np.concatenate([self._row_upper, rhs])
        self._le = np.concatenate([self._le, np.ones(m, dtype=bool)])
        self._x = None

    def solve(self, lower: np.ndarray | None = None, upper: np.ndarray | None = None) -> Solution:
        """Solve the model from the last basis when there is one.  Given
        bounds, first replace every column's bounds and drop the basis, so
        the solve is a cold one (see the module docstring for when it gives
        a fresh session's bits)."""
        if lower is not None:
            self._highs.clearSolver()
            self._highs.setOptionValue(_PRICING, _COLD_PRICING)
            self._set_bounds(lower, upper)
        return self._run()

    def solve_hot(self, basis, lower: np.ndarray, upper: np.ndarray, bound: float) -> Solution:
        """Replace every column's bounds and run dual simplex from `basis`
        (a `basis()` of this model) under the objective bound `bound`: the
        solve ends with status CUTOFF once its dual objective exceeds it.
        The bound holds for this one solve."""
        if self._highs.setBasis(basis) == _core.HighsStatus.kError:
            raise SolverError("HiGHS rejected the basis")
        self._set_bounds(lower, upper)
        self._highs.setOptionValue(_BOUND, bound)
        try:
            return self._run()
        finally:
            self._highs.setOptionValue(_BOUND, np.inf)

    def basis(self):
        """HiGHS's basis after the last solve, to pass to `solve_hot`."""
        return self._highs.getBasis()

    def _set_bounds(self, lower: np.ndarray, upper: np.ndarray) -> None:
        self._lower = np.array(lower, dtype=float)
        self._upper = np.array(upper, dtype=float)
        n_cols = self._lower.size
        status = self._highs.changeColsBounds(
            n_cols, np.arange(n_cols, dtype=np.int32), self._lower, self._upper
        )
        if status == _core.HighsStatus.kError:
            raise SolverError("HiGHS rejected the column bounds")

    def _run(self) -> Solution:
        self._x = None
        self._highs.run()
        model_status = self._highs.getModelStatus()
        status = _STATUS.get(model_status)
        if status is None:
            raise SolverError(f"LP solve failed: {self._highs.modelStatusToString(model_status)}")
        iterations = int(self._highs.getInfoValue("simplex_iteration_count")[1])
        if status is not Status.OPTIMAL:
            return Solution(status, None, float("nan"), iterations)
        self._x = np.array(self._highs.getSolution().col_value)
        return Solution(status, self._x, self._highs.getObjectiveValue(), iterations)

    def dual_objective(self) -> float:
        """Objective of the dual point of the last solve, which must have been
        optimal, with no rows appended since."""
        col_dual, row_dual, cols, _ = self._duals()
        # Nonbasic columns sit at the bound their reduced cost prices.
        dual = float(self._row_upper @ row_dual)
        return dual + float(col_dual[cols] @ self._x[cols])

    def min_nonbasic_dual(self) -> float:
        """Smallest |reduced cost| over the nonbasic columns that are not fixed
        and the nonbasic `<=` rows of the last solve, which must have been
        optimal, with no rows appended since (inf when there are none).

        When it is nonzero the basis is dual nondegenerate: moving any
        nonbasic variable off its bound raises the objective, so the basis's
        vertex is the only optimum.
        """
        col_dual, row_dual, cols, rows = self._duals()
        reduced = np.concatenate([col_dual[cols & (self._lower < self._upper)], row_dual[rows & self._le]])
        return float(np.min(np.abs(reduced), initial=np.inf))

    def _duals(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Column and row duals of the last solve, and the masks of its
        nonbasic columns and rows."""
        if self._x is None:
            raise SolverError("no optimal solve of the current model to read duals from")
        solution = self._highs.getSolution()
        _, basic = self._highs.getBasicVariables()
        cols = np.ones(self._lower.size, dtype=bool)
        rows = np.ones(self._le.size, dtype=bool)
        cols[basic[basic >= 0]] = False
        rows[-1 - basic[basic < 0]] = False
        return np.array(solution.col_dual), np.array(solution.row_dual), cols, rows


def solve_lp(problem: OptProblem) -> Solution:
    """Solve a pure LP to optimality (deterministic for a fixed problem)."""
    return LpSession(problem).solve()
