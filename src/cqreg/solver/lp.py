"""Linear-program solving on top of scipy's HiGHS interface.

Keeps the dual values so every optimal solve can be certified by comparing
primal and dual objectives.
"""

from __future__ import annotations

import time

import numpy as np
from scipy.optimize import linprog

from ..model import OptProblem
from .base import Solution, SolverError, Status

_MAX_SIMPLEX_ITERS = 100_000

_STATUS_MAP = {
    0: Status.OPTIMAL,
    1: Status.ITERATION_LIMIT,
    2: Status.INFEASIBLE,
    3: Status.UNBOUNDED,
}


def split_rows(problem: OptProblem):
    """Partition the constraint rows into (A_ub, b_ub, A_eq, b_eq) for HiGHS."""
    is_eq = problem.sense == "E"
    a = problem.a.tocsr()
    a_eq = a[is_eq] if is_eq.any() else None
    b_eq = problem.rhs[is_eq] if is_eq.any() else None
    is_le = ~is_eq
    a_ub = a[is_le] if is_le.any() else None
    b_ub = problem.rhs[is_le] if is_le.any() else None
    return a_ub, b_ub, a_eq, b_eq


def _bounds_list(lower: np.ndarray, upper: np.ndarray) -> list[tuple]:
    return [
        (None if lo == -np.inf else lo, None if up == np.inf else up)
        for lo, up in zip(lower, upper)
    ]


def solve_arrays(
    c: np.ndarray,
    a_ub,
    b_ub,
    a_eq,
    b_eq,
    lower: np.ndarray,
    upper: np.ndarray,
) -> Solution:
    """Low-level HiGHS call shared by solve_lp and the branch-and-bound nodes."""
    start = time.perf_counter()
    res = linprog(
        c,
        A_ub=a_ub,
        b_ub=b_ub,
        A_eq=a_eq,
        b_eq=b_eq,
        bounds=_bounds_list(lower, upper),
        method="highs",
        options={"maxiter": _MAX_SIMPLEX_ITERS},
    )
    elapsed = time.perf_counter() - start
    status = _STATUS_MAP.get(res.status)
    if status is None:
        raise SolverError(f"LP solve failed: {res.message}")
    dual = None
    if status is Status.OPTIMAL:
        dual = 0.0
        if b_eq is not None:
            dual += float(b_eq @ res.eqlin.marginals)
        if b_ub is not None:
            dual += float(b_ub @ res.ineqlin.marginals)
        finite_lo = lower != -np.inf
        finite_up = upper != np.inf
        dual += float(lower[finite_lo] @ res.lower.marginals[finite_lo])
        dual += float(upper[finite_up] @ res.upper.marginals[finite_up])
    return Solution(
        status=status,
        x=res.x if res.x is not None else None,
        objective=float(res.fun) if res.fun is not None else float("nan"),
        iterations=int(res.nit),
        wall_time=elapsed,
        dual_objective=dual,
    )


def solve_lp(problem: OptProblem) -> Solution:
    """Solve a pure LP to optimality (deterministic for a fixed problem)."""
    if problem.is_mip:
        raise ValueError("problem has integrality flags; use solve_mip")
    if problem.has_quad:
        raise ValueError("problem has a quadratic objective; use solve_qp")
    a_ub, b_ub, a_eq, b_eq = split_rows(problem)
    return solve_arrays(problem.obj_linear, a_ub, b_ub, a_eq, b_eq, problem.lower, problem.upper)
