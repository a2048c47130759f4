"""Branch-and-bound over the binary selection variables.

The integer variables are the d selectors z, so the tree has at most 2^d
leaves; each node solves an LP or diagonal-QP relaxation with tightened
z bounds.  One relaxation model is built per `solve_mip`, an `LpSession`
or a `QpContext` with its constraint matrices, scaling and KKT pattern,
and every relaxation of the tree is solved in it.

Every node goes through one routine, `node_solve(lower, upper, basis)`.
A box that breaks a row involving only selectors (in every model built
here, the cardinality row sum(z) <= k) is ruled out as infeasible without
a solve and does not count in `nodes`: the row's least activity over the
box exceeds its right-hand side.  The expectile IPM is slow to prove such
a node infeasible and often runs to its iteration cap.  Given its parent's
optimal basis, an LP node is solved hot, by dual simplex from that basis
(`solve_hot`) with the objective bound at the incumbent cutoff
`best_obj - _GAP`.  Dual simplex keeps a dual feasible basis, so its dual
objective is a lower bound on the node's optimum, and once that bound
passes the cutoff HiGHS stops with status CUTOFF: the node could not have
beaten the incumbent by more than the gap, so it is pruned, as a full
solve with that objective would have been.  A node without a basis (the
root, a pinned point, every QP node: the IPM has no basis), and a hot
solve that ends any other way than optimal, infeasible or cut off, gets
the model's cold `solve(lower, upper)`, once per selector box.  For an LP
that clears the solver first, so it gives the bits a fresh session would,
hot solves before it or not.

There is one incumbent rule, `try_fixed`: an integral point (the hint, the
probe, a node's rounded z or a pinned leaf's bounds) is solved cold with
the selectors pinned to it, and becomes the incumbent when that objective
beats the incumbent's.  Every returned point is therefore a cold solve's.
A hot node supplies only its prune, a bound for its children and a
branching choice, but a dual degenerate node can end at another optimal
vertex than a cold solve would, which can change the branching and so the
tree.  Which of several (near-)tied optimal supports comes back can
therefore depend on the tree (ROADMAP item 7).

After the root solve a round-up probe fixes every positive selector to 1;
when the cardinality row allows it this proves optimality in two solves,
otherwise the probe is ruled out as above.  On an integral root the probe
is the root's own point.  Children with z fixed to 1 are explored first,
so a greedy dive reaches an integral incumbent within d solves.  A node
whose relaxation stops at a solver cap is pruned as well, so a result
can read optimal without being proven (ROADMAP item 6).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from ..model import OptProblem
from .base import Solution, SolverError, Status
from .lp import LpSession
# Unused: kept only because bench/instrument.py wraps it; ROADMAP item 8 deletes it.
from .lp import solve_lp as solve_arrays  # noqa: F401
from .qp import QpContext

_INT_TOL = 1e-6
_GAP = 1e-6  # absolute optimality gap
_MAX_NODES = 1_000_000
# What a node gets when its selector box breaks a selector-only row.
_RULED_OUT = Solution(Status.INFEASIBLE, None, np.nan)


@dataclass
class _Node:
    lower: np.ndarray
    upper: np.ndarray
    bound: float
    basis: object = None  # the parent's optimal basis; None at the root and on QP nodes


def _pick_branch(zvals: np.ndarray, int_idx: np.ndarray) -> int | None:
    """Most fractional selector: closest to one half, ties by lowest index."""
    frac = np.minimum(zvals - np.floor(zvals), np.ceil(zvals) - zvals)
    cand = np.flatnonzero(frac > _INT_TOL)
    if not cand.size:
        return None
    return int(int_idx[cand[np.argmax(frac[cand])]])


def _selector_rows(problem: OptProblem, int_idx: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The rows of `problem.a` whose nonzeros all fall on the integer columns
    `int_idx`: dense coefficients over those columns and the right-hand
    sides."""
    a = problem.a.tocsr()
    # Nonzeros on continuous columns before each row boundary.
    continuous = np.concatenate(([0], np.cumsum(~problem.integer[a.indices])))[a.indptr]
    rows = np.flatnonzero(continuous[1:] == continuous[:-1])
    coef = np.zeros((rows.size, problem.n_vars))
    for i, r in enumerate(rows):
        span = slice(a.indptr[r], a.indptr[r + 1])
        coef[i, a.indices[span]] = a.data[span]
    return coef[:, int_idx], problem.rhs[rows]


def _box_breaks(rows: tuple[np.ndarray, np.ndarray], lo: np.ndarray, up: np.ndarray) -> bool:
    """True when no selector point in the box [lo, up] meets every row of
    `rows`: a row's least activity over the box exceeds its right-hand side."""
    coef, rhs = rows
    least = np.maximum(coef, 0.0) @ lo + np.minimum(coef, 0.0) @ up
    return bool(np.any(least > rhs + _INT_TOL))


def solve_mip(problem: OptProblem, incumbent_hint: np.ndarray | None = None) -> Solution:
    """Prove optimality of a small-binary MIP within the absolute gap _GAP (deterministic).

    `nodes` and `iterations` count every relaxation solved: cold, hot and
    cut off.  A node whose selector bounds break a row that involves only
    selectors is infeasible by that row alone; it is pruned without a
    relaxation solve and is not counted.  A node whose relaxation ends
    neither optimal nor infeasible (the IPM's iteration cap) is still
    pruned, and the result can read optimal: that is a known defect
    (ROADMAP item 6).
    """
    int_idx = np.flatnonzero(problem.integer)
    selector_rows = _selector_rows(problem, int_idx)
    relaxed = replace(problem, integer=np.zeros(problem.n_vars, dtype=bool))
    relax = QpContext(relaxed) if problem.has_quad else LpSession(relaxed)
    lower, upper = problem.lower.astype(float).copy(), problem.upper.astype(float).copy()

    best_x: np.ndarray | None = None
    best_obj = np.inf
    # Cold solves, keyed by selector bounds: the continuous bounds are the
    # same at every node.
    solved: dict[bytes, Solution] = {}
    nodes = iterations = 0  # over every relaxation solved, cold or hot

    def node_solve(lo, up, basis=None) -> Solution:
        """The relaxation over the box [lo, up]: ruled out when the box
        breaks a selector row, else hot from `basis` under the incumbent
        cutoff when that ends optimal, infeasible or cut off, else cold."""
        nonlocal nodes, iterations
        zlo, zup = lo[int_idx], up[int_idx]
        if _box_breaks(selector_rows, zlo, zup):
            return _RULED_OUT
        if basis is not None:
            try:
                sol = relax.solve_hot(basis, lo, up, best_obj - _GAP)
            except SolverError:  # a HiGHS status no node outcome maps to; not counted
                sol = None
            else:
                nodes, iterations = nodes + 1, iterations + sol.iterations
            if sol is not None and sol.status in (Status.OPTIMAL, Status.INFEASIBLE, Status.CUTOFF):
                return sol
        key = zlo.tobytes() + zup.tobytes()
        if key not in solved:
            solved[key] = sol = relax.solve(lo, up)
            nodes, iterations = nodes + 1, iterations + sol.iterations
        return solved[key]

    def result(status: Status, x: np.ndarray | None, objective: float) -> Solution:
        return Solution(status, x, objective, iterations, nodes)

    def try_fixed(zfix: np.ndarray) -> None:
        """The incumbent rule, which every pinned leaf goes through: solve
        with z pinned to an integral point (once per point) and keep it when
        it beats the incumbent."""
        nonlocal best_x, best_obj
        lo, up = lower.copy(), upper.copy()
        lo[int_idx] = zfix
        up[int_idx] = zfix
        sol = node_solve(lo, up)
        if sol.optimal and sol.objective < best_obj - 1e-12:
            x = sol.x.copy()
            # abs turns a rounded -0.0 into 0.0, so x's bits do not depend
            # on which node's rounding reached this point.
            x[int_idx] = np.abs(zfix)
            best_x, best_obj = x, sol.objective

    root = node_solve(lower, upper)
    if root.x is None:
        # Infeasible, unbounded, or stopped at the solver's cap without a point.
        return result(root.status, None, -np.inf if root.status is Status.UNBOUNDED else np.nan)
    if int_idx.size == 0:
        return result(root.status, root.x, root.objective)
    root_basis = relax.basis() if isinstance(relax, LpSession) else None

    if incumbent_hint is not None:
        try_fixed(np.rint(incumbent_hint).astype(float))
    # Round-up probe: selecting every positive z proves optimality when the
    # big-M rows were already slack at the root (on an integral root it pins
    # the root's own point); node_solve rules it out without a solve when it
    # breaks the cardinality row.
    try_fixed((root.x[int_idx] > _INT_TOL).astype(float))

    stack = [_Node(lower, upper, root.objective)]
    limited = False
    while stack:
        if nodes >= _MAX_NODES:
            limited = True
            break
        node = stack.pop()
        # best_obj stays inf until an incumbent is set.
        if node.bound >= best_obj - _GAP:
            continue
        # A pinned leaf, which try_fixed reads and which never branches,
        # is solved cold.
        pinned = np.array_equal(node.lower[int_idx], node.upper[int_idx])
        hot = None if pinned else node.basis
        sol = node_solve(node.lower, node.upper, hot)
        if not sol.optimal or sol.objective >= best_obj - _GAP:
            continue
        # The children start from this node's basis: read it before
        # try_fixed re-solves the model.  The root's was read after its solve.
        basis = root_basis if hot is None else relax.basis()
        zvals = sol.x[int_idx]
        j = _pick_branch(zvals, int_idx)
        if j is None:
            # A pinned leaf passes its own bounds, so try_fixed reads back
            # the solve above; it then always holds the incumbent.
            try_fixed(node.lower[int_idx] if pinned else np.rint(zvals))
            if best_obj <= sol.objective + _GAP:
                continue
            # Pinning the near-integral selectors moved the optimum; split on
            # the first unfixed one so leaves carry exact bounds.
            unfixed = int_idx[node.lower[int_idx] < node.upper[int_idx]]
            j = int(unfixed[0])
        lo0, up0 = node.lower.copy(), node.upper.copy()
        up0[j] = 0.0
        lo1, up1 = node.lower.copy(), node.upper.copy()
        lo1[j] = 1.0
        # LIFO: push the exclude-child first so the include-child dives first.
        stack.append(_Node(lo0, up0, sol.objective, basis))
        stack.append(_Node(lo1, up1, sol.objective, basis))

    if best_x is None:
        return result(Status.ITERATION_LIMIT if limited else Status.INFEASIBLE, None, np.nan)
    return result(Status.ITERATION_LIMIT if limited else Status.OPTIMAL, best_x, best_obj)
