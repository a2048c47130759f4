"""Branch-and-bound over the binary selection variables.

`solve_mip` solves the MIP `add_l0` builds: d binary selectors z that cost
nothing, big-M rows beta <= M z and one cardinality row sum(z) <= k.  A
node is its selector box, the d bounds branching tightens; the continuous
columns keep the problem's bounds.  Each node solves an LP or diagonal-QP
relaxation over its box, all of one tree in one relaxation model: an
`LpSession`, or a `QpContext` with its constraint matrices, scaling and
KKT pattern.

Before its solve, each node's selector box is propagated through the
cardinality row (Savelsbergh 1994, bound propagation).  A box with more
than k selectors fixed to 1 is ruled out without a solve; once k are at 1,
every free selector is pinned to 0.  A box that propagation pins is solved
as its pinned leaf, cold, and `try_fixed` reads that solve back.  The IPM
has no interior on the unpinned box, where sum(z) <= k forces the free
selectors to 0, and often ran to its iteration cap there.  Only an LP box
with a parent basis, an incumbent and no cached cold solve first gets the
hot cutoff solve over the node's own box, since a cutoff spares the cold
solve.

An include-child (z_j fixed to 1) is not solved when its parent's optimal
point, with z_j set to 1, still has sum(z) <= k.  Selectors cost nothing
and enter the other rows only as big-M bounds beta <= M z, so that point
is feasible for the child at the parent's objective.  The child's box lies
inside the parent's, so it is the child's optimum.  The child inherits it,
the parent's objective and the parent's basis.  So a root with at most k
positive selectors dives to their support without a solve, and that
support's pinned solve proves the root's objective optimal.

Every node that is solved goes through one routine, `node_solve(zlo,
zup, basis)`, which composes the relaxation's full bounds from the box.
Given its parent's optimal basis, an LP node is solved hot, by dual
simplex from that basis (`solve_hot`) with the objective bound at the
incumbent cutoff `best_obj - _GAP`.  Dual simplex keeps a dual feasible
basis, so its dual objective is a lower bound on the node's optimum, and
once that bound passes the cutoff HiGHS stops with status CUTOFF: the
node could not have beaten the incumbent by more than the gap, so it is
pruned, as a full solve with that objective would have been.  A node
without a basis (the root, a pinned point, every QP node: the IPM has no
basis), and a hot solve that ends any other way than optimal, infeasible
or cut off, gets the model's cold `solve(lower, upper)`, once per box.
For an LP that clears the solver first, so it gives the bits a fresh
session would, hot solves before it or not.

There is one incumbent rule, `try_fixed`: an integral point (the hint, a
node's rounded z or a pinned leaf's bounds) with at most k ones is solved
cold with the selectors pinned to it, and becomes the incumbent when that
objective beats the incumbent's.  Every returned point is therefore a
cold solve's.  A hot node and an inherited point supply only a prune, a
bound for the children and a branching choice, but a dual degenerate node
can end at another optimal vertex than a cold solve would, which can
change the branching and so the tree.  Which of several (near-)tied
optimal supports comes back can therefore depend on the tree (ROADMAP
item 7).

Children with z fixed to 1 are explored first, so a greedy dive reaches
an integral incumbent within d solves.  A node whose relaxation stops at
a solver cap is pruned as well, so a result can read optimal without
being proven (ROADMAP item 6).  The result's `unproven` counts the boxes
whose cold solve ended without proof: neither optimal nor infeasible on
HiGHS, and anything but optimal on the IPM, whose infeasible verdict is a
divergence heuristic, not a proof.  Each was pruned or skipped without
proof.  A tree that ends with no incumbent reads `ITERATION_LIMIT`, not
`INFEASIBLE`, when that count is above 0.
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


@dataclass
class _Node:
    lo: np.ndarray  # selector bounds, in selector order; the continuous bounds are the tree's
    up: np.ndarray
    bound: float
    basis: object = None  # the parent's optimal basis; None at the root and on QP nodes
    sol: Solution | None = None  # the parent's optimum, when it is this node's too


def _pick_branch(zvals: np.ndarray) -> int | None:
    """Position of the most fractional selector: closest to one half, ties by lowest."""
    frac = np.minimum(zvals - np.floor(zvals), np.ceil(zvals) - zvals)
    cand = np.flatnonzero(frac > _INT_TOL)
    if not cand.size:
        return None
    return int(cand[np.argmax(frac[cand])])


def _cardinality(problem: OptProblem, int_idx: np.ndarray) -> float:
    """k of the cardinality row sum(z) <= k over the integer columns
    `int_idx`, which must be the one row of `problem.a` whose nonzeros all
    fall on those columns; ValueError for any other shape."""
    a = problem.a.tocsr()
    # Nonzeros on continuous columns before each row boundary.
    continuous = np.concatenate(([0], np.cumsum(~problem.integer[a.indices])))[a.indptr]
    rows = np.flatnonzero(continuous[1:] == continuous[:-1])
    if int_idx.size and rows.size == 1:
        r = rows[0]
        span = slice(a.indptr[r], a.indptr[r + 1])
        cols, coef = a.indices[span], a.data[span]
        if problem.sense[r] == "L" and np.array_equal(np.sort(cols), int_idx) and np.all(coef == 1.0):
            return float(problem.rhs[r])
    raise ValueError("solve_mip needs selectors whose only selector-only row is sum(z) <= k, as add_l0 builds")


def _propagate(k: float, lo: np.ndarray, up: np.ndarray):
    """Bound propagation of sum(z) <= k over the binary box [lo, up]: None
    when more than k selectors are fixed to 1, else the box with every free
    selector pinned to 0 once k are at 1."""
    ones = lo.sum()
    if ones > k + _INT_TOL:
        return None
    return (lo, lo) if ones > k - _INT_TOL else (lo, up)


def solve_mip(problem: OptProblem, incumbent_hint: np.ndarray | None = None) -> Solution:
    """Prove optimality of an `add_l0` MIP within the absolute gap _GAP (deterministic).

    A node is its selector box; the continuous columns keep the problem's
    bounds.  `nodes` and `iterations` count every relaxation solved: cold,
    hot and cut off.  Before its solve, each box is propagated through the
    cardinality row sum(z) <= k (`_propagate`).  A box with more than k
    selectors at 1 is pruned without a solve, and a box that propagation
    pins is solved as its pinned leaf.  An include-child whose parent's
    optimum, with its selector set to 1, keeps sum(z) <= k takes that
    point without a solve.  Neither counts in `nodes`.  A node whose
    relaxation ends without proof (the IPM's iteration cap or its
    infeasible verdict) is still pruned, and the result can read optimal:
    that is a known defect (ROADMAP item 6), and `unproven` counts those
    boxes.

    ValueError unless the one row whose nonzeros all fall on the selectors
    is sum(z) <= k (`_cardinality`).  Outside it the selectors, which must
    cost nothing, may enter only `<=` rows with coefficients <= 0, as the
    big-M rows do: raising a selector then keeps every point feasible at
    its objective.
    """
    int_idx = np.flatnonzero(problem.integer)
    k = _cardinality(problem, int_idx)
    relaxed = replace(problem, integer=np.zeros(problem.n_vars, dtype=bool))
    relax = QpContext(relaxed) if problem.has_quad else LpSession(relaxed)
    lower, upper = problem.lower.astype(float), problem.upper.astype(float)

    best_x: np.ndarray | None = None
    best_obj = np.inf
    # Cold solves, keyed by the selector box's bytes.
    solved: dict[bytes, Solution] = {}
    nodes = iterations = 0  # over every relaxation solved, cold or hot
    unproven = 0  # boxes whose cold solve ended without proof
    # HiGHS proves infeasibility; the IPM's verdict is a heuristic.
    proven = (Status.OPTIMAL, Status.INFEASIBLE) if isinstance(relax, LpSession) else (Status.OPTIMAL,)

    def node_solve(zlo, zup, basis=None) -> Solution:
        """The relaxation over the selector box [zlo, zup]: hot from `basis`
        under the incumbent cutoff when that ends optimal, infeasible or cut
        off, else cold, once per box."""
        nonlocal nodes, iterations, unproven
        lo, up = lower.copy(), upper.copy()
        lo[int_idx], up[int_idx] = zlo, zup
        if basis is not None:
            try:
                sol = relax.solve_hot(basis, lo, up, best_obj - _GAP)
            except SolverError:  # a HiGHS status no node outcome maps to; not counted
                sol = None
            else:
                nodes, iterations = nodes + 1, iterations + sol.iterations
            if sol is not None and sol.status in (Status.OPTIMAL, Status.INFEASIBLE, Status.CUTOFF):
                return sol
        box = zlo.tobytes() + zup.tobytes()
        if box not in solved:
            solved[box] = sol = relax.solve(lo, up)
            nodes, iterations = nodes + 1, iterations + sol.iterations
            unproven += sol.status not in proven
        return solved[box]

    def result(status: Status, x: np.ndarray | None, objective: float) -> Solution:
        return Solution(status, x, objective, iterations, nodes, unproven)

    def try_fixed(zfix: np.ndarray) -> None:
        """The incumbent rule, which every pinned leaf goes through: solve
        with z pinned to an integral point (once per point) and keep it when
        it beats the incumbent.  A point with more than k selectors at 1 is
        skipped."""
        nonlocal best_x, best_obj
        if zfix.sum() > k + _INT_TOL:
            return
        sol = node_solve(zfix, zfix)
        if sol.optimal and sol.objective < best_obj - 1e-12:
            x = sol.x.copy()
            # abs turns a rounded -0.0 into 0.0, so x's bits do not depend
            # on which node's rounding reached this point.
            x[int_idx] = np.abs(zfix)
            best_x, best_obj = x, sol.objective

    box = _propagate(k, lower[int_idx], upper[int_idx])
    if box is None:
        return result(Status.INFEASIBLE, None, np.nan)
    root = node_solve(*box)
    if root.x is None:
        # Infeasible, unbounded, or stopped at the solver's cap without a point.
        # Infeasibility without proof is no verdict on the tree.
        status = Status.ITERATION_LIMIT if root.status is Status.INFEASIBLE and unproven else root.status
        return result(status, None, -np.inf if root.status is Status.UNBOUNDED else np.nan)
    root_basis = relax.basis() if isinstance(relax, LpSession) else None

    if incumbent_hint is not None:
        try_fixed(np.rint(incumbent_hint).astype(float))

    stack = [_Node(*box, root.objective)]
    while stack and nodes < _MAX_NODES:
        node = stack.pop()
        # best_obj stays inf until an incumbent is set.
        if node.bound >= best_obj - _GAP:
            continue
        box = _propagate(k, node.lo, node.up)
        if box is None:
            continue
        pinned = np.array_equal(*box)
        if node.sol is not None:
            sol, basis = node.sol, node.basis
        else:
            # A hot solve is over the node's own box.  A pinned box is solved
            # cold, and try_fixed reads that solve back.  A box that
            # propagation pinned, with a basis and an incumbent at hand and
            # no cold solve cached, first gets the hot cutoff solve: a cutoff
            # spares the cold solve.
            hot = node.basis
            cached = box[0].tobytes() + box[1].tobytes() in solved
            if pinned and (best_obj == np.inf or np.array_equal(node.lo, node.up) or cached):
                hot = None
            sol = node_solve(*(box if hot is None else (node.lo, node.up)), hot)
            # The children start from this node's basis: read it before
            # try_fixed re-solves the model.  The root's was read after its solve.
            basis = root_basis if hot is None else relax.basis()
        if not sol.optimal or sol.objective >= best_obj - _GAP:
            continue
        zvals = sol.x[int_idx]
        j = _pick_branch(zvals)
        if j is None:
            # A pinned box passes its pinned point: try_fixed reads back its
            # cold solve, or makes it after a hot solve.
            try_fixed(box[0] if pinned else np.rint(zvals))
            if best_obj <= sol.objective + _GAP:
                continue
            # Pinning the near-integral selectors moved the optimum; split on
            # the first unfixed one so leaves carry exact bounds.  A box with
            # none left (an inherited point whose pinned solve did not end
            # optimal) is dropped.
            unfixed = np.flatnonzero(node.lo < node.up)
            if not unfixed.size:
                continue
            j = int(unfixed[0])
        up0 = node.up.copy()
        up0[j] = 0.0
        lo1 = node.lo.copy()
        lo1[j] = 1.0
        include = _Node(lo1, node.up, sol.objective, basis)
        # Unless it breaks sum(z) <= k, the parent's optimum with z_j raised
        # to 1 stays feasible at the same objective, so it is the child's
        # optimum too: the child's box lies inside the parent's.
        x1 = sol.x.copy()
        x1[int_idx[j]] = 1.0
        if x1[int_idx].sum() <= k + _INT_TOL:
            include.sol = Solution(Status.OPTIMAL, x1, sol.objective)
        # LIFO: push the exclude-child first so the include-child dives first.
        stack.append(_Node(node.lo, up0, sol.objective, basis))
        stack.append(include)

    limited = bool(stack)  # stopped at _MAX_NODES with nodes left
    if best_x is None:
        # Infeasible only if every pruned relaxation was proven so.
        return result(Status.ITERATION_LIMIT if limited or unproven else Status.INFEASIBLE, None, np.nan)
    return result(Status.ITERATION_LIMIT if limited else Status.OPTIMAL, best_x, best_obj)
