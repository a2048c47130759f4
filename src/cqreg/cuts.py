"""Constraint generation for the shape-constraint system.

The full problem carries n(n-1) domination rows; the loop here solves a
reduced master seeded with the 2(n-1) pairs of the inputs' minimum
spanning tree, scans for the most violated row per observation, inserts
those rows and re-solves until every violation clears the tolerance (Lee,
Johnson, Moreno-Centeno and Kuosmanen 2013).  Because rows are only
added, the master optimum grows monotonically toward the full-problem
optimum.

A pure-LP master lives in one `LpSession` for the whole loop: new rows are
appended with `add_rows` and the master is re-solved from the previous
basis.  That hot-started solve is accepted only when a cold solve of the
same master would lead to the same rows:

- it is optimal and its basis is dual nondegenerate (every nonbasic,
  non-fixed column and every nonbasic `<=` row has |reduced cost| at least
  _DUAL_NONDEGENERATE), so its vertex is the only optimum;
- no observation's least slack lies within _TIE_MARGIN of -tol, and no
  violated observation's least slack lies within _TIE_MARGIN of its second
  least, so separation reads the same pairs from either solve.

Otherwise the master is rebuilt from the active pairs and cold-solved in a
fresh session, which the loop keeps unless that cold solve is itself dual
degenerate (some |reduced cost| below _DUAL_NONDEGENERATE).  The hot
solve after such a master was rejected in 89 of 96 attempts (the L1-CQR
cross-validation folds of the benchmark's `cqr-cv`, seed 0, replications
0-3), and every unpenalized CQR master is one, so the loop drops the
session and rebuilds the next master without a hot attempt.  An accepted
hot solve reads the rows a cold one would, so the rule changes what a
round costs, not the loop's rows or rounds.  Masters with binary
selectors or a quadratic objective are rebuilt and solved from scratch
every round.

The hot re-solve prices with Devex, not with the dual steepest edge of the
cold solve.  The pricing rule only chooses the simplex path, and an
accepted hot solve is the master's unique optimum, so the rule cannot
change an accepted master, only how fast it is reached: a rejected one is
rebuilt and cold-solved as before.

`solve_full_lp` grows a full-mode pure LP's rows in one session the same
way, at _GROW_TOL, and never appends the rows separation leaves out.  No
acceptance rule is needed: the last master is certified on all n(n-1)
rows by its worst slack and its duality gap (see `solve_full_lp`).  Most
Afriat rows never bind, so the session holds a small share of them and
its solves take few iterations where a cold solve of all rows takes many.

Each round computes the slack matrix of the solver's point once
(`_slack`); the tie checks, `separate` and the final worst slack all read
it.  Only the last point is read out as a `FitResult`.
`initial_constraints` keeps its last result, so the lambda candidates of a
CV fold, which share the fold's inputs, share one spanning tree.  The tree
is built in numpy (`_spanning_tree`) with the edges `scipy.sparse.csgraph`
would pick, ties included: importing csgraph for one call would load it
with `scipy.sparse.linalg` and `scipy.linalg`, about 9 MiB of resident
memory, into every process.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from .data import Dataset
from .model import FEAS_TOL, FitResult, OptProblem, afriat_rows, afriat_slack, extract_fit
from .solver import Solution, Status, solve_mip, solve_qp
# Unused: kept only because bench/instrument.py wraps it; ROADMAP item 8 deletes it.
from .solver import solve_lp  # noqa: F401
from .solver.lp import LpSession

_DUAL_NONDEGENERATE = 1e-7  # least |reduced cost| of a nonbasic variable
_TIE_MARGIN = 1e-9  # least gap that float noise in a certified optimum cannot close
# Separation tolerance of `solve_full_lp`: HiGHS's primal feasibility
# tolerance, so the grown fit is as feasible on the rows it omits as a solve
# holding them would be.  At FEAS_TOL its objective fell up to 1.1e-8
# relative below the cold solve's.
_GROW_TOL = 1e-7
_GAP_TOL = 1e-9  # largest relative duality gap of a certified grown LP
CUT_TOL = 0.01  # separation tolerance of the cut loop, so its fit is feasible to 0.01


@dataclass(frozen=True)
class CutLoopStats:
    """Trace of one constraint-generation run.

    `max_violation` is the most negative domination slack at the final
    iterate (violations are negative slacks, so termination guarantees
    max_violation >= -tol).  `warm` counts the rounds accepted from the
    hot-started basis; the other `iterations - warm` rounds were rebuilt
    and cold-solved, after a rejected hot solve or, when the round before
    was a dual-degenerate cold master, without one.
    """

    iterations: int
    added: tuple[int, ...]
    constraints: int
    max_violation: float
    warm: int


class CutLoopLimitError(RuntimeError):
    """Master-resolve cap reached; carries the best fit seen so far."""

    def __init__(self, message: str, fit: FitResult, stats: CutLoopStats):
        super().__init__(message)
        self.fit = fit
        self.stats = stats


# The last call's key (float input shape and bytes) and its pairs.
_seed_memo: tuple[tuple, list[tuple[int, int]]] | None = None


def initial_constraints(dataset: Dataset) -> list[tuple[int, int]]:
    """Seed pairs (i, h), hyperplane i dominating the fitted value at h: the
    2(n-1) pairs of the minimum spanning tree on input-space Euclidean
    distances, tree edges in sorted order, each followed by its reverse.

    The distances of `_distances` follow pdist's summation order, so ties
    and near-ties between edge lengths break as they did when the distances
    came from pdist.  A repeat call on the same inputs returns a copy of
    the last result.
    """
    global _seed_memo
    X = dataset.inputs
    key = (X.shape, X.tobytes())
    if _seed_memo is None or _seed_memo[0] != key:
        edges = _spanning_tree(_distances(X))
        _seed_memo = (key, [pair for a, b in edges for pair in ((a, b), (b, a))])
    return list(_seed_memo[1])


def _spanning_tree(dist: np.ndarray) -> list[tuple[int, int]]:
    """Edges (i, j), i < j, in sorted order, of the minimum spanning forest
    that `scipy.sparse.csgraph.minimum_spanning_tree(dist)` returns.

    Kruskal's algorithm as csgraph runs it: the entries are taken in the
    order of a stable sort of their weights, row by row, and each one that
    joins two components is kept.  csgraph reads a dense entry within 1e-8
    of zero, or an infinite one, as no edge; rows closer than that, such as
    duplicates, are not joined.  Only the entries above the diagonal are
    scanned: each one's mirror comes later in that order and so joins
    nothing, and the union-find rule does not change which entries are kept.
    """
    n = dist.shape[0]
    rows, cols = np.triu_indices(n, 1)
    weights = dist[rows, cols]
    edge = (weights > 1e-8) & (weights < np.inf)
    order = np.argsort(weights[edge], kind="stable")
    parent = list(range(n))

    def root(i: int) -> int:
        while parent[i] != i:
            parent[i] = i = parent[parent[i]]
        return i

    tree = []
    for i, j in zip(rows[edge][order].tolist(), cols[edge][order].tolist()):
        a, b = root(i), root(j)
        if a != b:
            parent[a] = b
            tree.append((i, j))
            if len(tree) == n - 1:
                break
    return sorted(tree)


def _distances(X: np.ndarray) -> np.ndarray:
    """The n x n Euclidean distances between the rows of X.

    Each squared distance is summed over the columns in order from zero and
    then square-rooted, as `scipy.spatial.distance.pdist` does, so the
    result equals `squareform(pdist(X))` bit for bit without importing
    `scipy.spatial`.
    """
    acc = np.zeros((X.shape[0], X.shape[0]))
    for col in X.T:
        diff = col[:, None] - col[None, :]
        acc += diff * diff
    return np.sqrt(acc)


def separate(slack: np.ndarray, tol: float) -> list[tuple[int, int, float]]:
    """Most violated domination row per observation of the slack matrix
    `afriat_slack` gives for a point.

    For each i returns (i, m(i), v_i) where m(i) minimizes
    slack[i, m] = yhat_i + beta_i @ (x_m - x_i) - yhat_m over all m (ties to
    the lowest index); only entries with v_i < -tol are reported.
    """
    m_idx = np.argmin(slack, axis=1)
    values = slack[np.arange(slack.shape[0]), m_idx]
    return [
        (int(i), int(m_idx[i]), float(values[i]))
        for i in np.flatnonzero(values < -tol)
    ]


def solve_with_cuts(
    builder: Callable[[np.ndarray], OptProblem],
    dataset: Dataset,
    tol: float = CUT_TOL,
) -> tuple[FitResult, CutLoopStats]:
    """Run the reduced-master loop until the full system is tol-feasible.

    `builder` maps an (m, 2) int array of (i, h) pairs to the master problem
    (any objective and extra penalty blocks).  Pure-LP masters are re-solved
    from the previous basis when the module's acceptance rule allows;
    masters with binary selectors are re-solved as MIPs each round,
    warm-started from the previous round's selection.  The fit's
    `meta.iterations` is the total over every master solve, hot, rejected
    and rebuilt.  The loop raises `CutLoopLimitError` after `_max_rounds(n)`
    master solves.
    """
    max_rounds = _max_rounds(dataset.n)
    # (m, 2) pairs in the order their rows sit in the master.
    active, present = _seed(dataset)
    added: list[int] = []
    warm = 0
    iterations = 0
    hint = None
    session: LpSession | None = None
    for _ in range(max_rounds):
        slack = None
        if session is not None:
            session.add_rows(*afriat_rows(dataset, new_pairs), np.zeros(len(new_pairs)))
            sol = session.solve()
            iterations += sol.iterations
            slack = _hot_slack(session, sol, problem, dataset, tol)
            if slack is None:
                session = None
            else:
                warm += 1
        if slack is None:
            problem = builder(active)
            sol, session = _solve_master(problem, hint)
            iterations += sol.iterations
            if sol.status is not Status.OPTIMAL:
                raise RuntimeError(f"master solve ended with status {sol.status}")
            if session is not None and session.min_nonbasic_dual() < _DUAL_NONDEGENERATE:
                session = None
            slack = _slack(problem, sol, dataset)
        if problem.layout.has_z:
            hint = np.rint(sol.x[problem.layout.z()]).astype(int)
        new_pairs = _new_pairs(slack, tol, present)
        added.append(len(new_pairs))
        if len(new_pairs) == 0:
            break
        active = np.concatenate([active, new_pairs])
    # The last master holds the rows before this round's new pairs.
    held = len(active) - len(new_pairs)
    fit = extract_fit(problem, dataset, sol)
    fit = replace(fit, meta=replace(fit.meta, iterations=iterations, constraints=held))
    stats = CutLoopStats(len(added), tuple(added), len(active), float(slack.min()), warm)
    if len(new_pairs) == 0:
        return fit, stats
    raise CutLoopLimitError(f"no tol-feasible master after {max_rounds} resolves", fit, stats)


def _max_rounds(n: int) -> int:
    """Cap on one cut loop's master solves: ceil(n^2 / 2)."""
    return max(1, math.ceil(n * n / 2))


def solve_full_lp(builder: Callable[[np.ndarray], OptProblem], dataset: Dataset) -> FitResult:
    """Optimum of the pure LP `builder(ALL_PAIRS)`, reached in one session.

    The session starts from the seed master.  Each round computes the slack
    of the solver's point and re-solves hot after appending the pairs
    `separate` finds at _GROW_TOL, until it finds none that is new.  The
    last master is then certified on the full LP without appending the rows
    it omits: its solve must be optimal, its worst slack over all n(n-1)
    rows at least -FEAS_TOL, and its relative duality gap
    |objective - dual objective| / (1 + |objective|) at most _GAP_TOL.  An
    omitted row has right-hand side 0, so giving it dual 0 changes no
    reduced cost and no dual objective: the master's duals stay feasible
    for the full LP, and a closed gap at a feasible point proves the fit
    optimal there.  It need not be the vertex a cold solve of the full LP
    returns.  Only the certified point is read out as a fit.
    `meta.iterations` is the total over every solve and `meta.constraints`
    is n(n-1), the rows the fit is certified on.  A fit that fails the
    certificate raises RuntimeError.
    """
    active, present = _seed(dataset)
    problem = builder(active)
    session = LpSession(problem)
    sol = session.solve()
    iterations = sol.iterations
    while sol.optimal:
        slack = _slack(problem, sol, dataset)
        new_pairs = _new_pairs(slack, _GROW_TOL, present)
        if len(new_pairs) == 0:
            break
        session.add_rows(*afriat_rows(dataset, new_pairs), np.zeros(len(new_pairs)))
        sol = session.solve()
        iterations += sol.iterations
    if sol.status is not Status.OPTIMAL:
        raise RuntimeError(f"solve ended with status {sol.status}")
    worst = float(slack.min())
    gap = abs(sol.objective - session.dual_objective()) / (1.0 + abs(sol.objective))
    if worst < -FEAS_TOL or gap > _GAP_TOL:
        raise RuntimeError(
            f"grown LP not certified: worst Afriat slack {worst:.3g}, relative duality gap {gap:.3g}"
        )
    n = dataset.n
    fit = extract_fit(problem, dataset, sol)
    return replace(fit, meta=replace(fit.meta, iterations=iterations, constraints=n * (n - 1)))


def _seed(dataset: Dataset) -> tuple[np.ndarray, np.ndarray]:
    """The seed pairs as an (m, 2) int array and the n x n mask of the
    pairs present."""
    active = np.asarray(initial_constraints(dataset), dtype=int).reshape(-1, 2)
    present = np.zeros((dataset.n, dataset.n), dtype=bool)
    present[active[:, 0], active[:, 1]] = True
    return active, present


def _slack(problem: OptProblem, sol: Solution, dataset: Dataset) -> np.ndarray:
    """The Afriat slack matrix of the solution's point, its yhat and beta
    read through the layout of `problem` (the master the point's session
    was built from: appended rows move no column)."""
    lay = problem.layout
    return afriat_slack(sol.x[lay.yhat()], sol.x[lay.beta_all()].reshape(lay.n, lay.d), dataset)


def _new_pairs(slack: np.ndarray, tol: float, present: np.ndarray) -> np.ndarray:
    """The pairs `separate` reports that are not yet present, as an (m, 2)
    int array; they are marked present."""
    violated = separate(slack, tol)
    found = np.array([(i, m) for i, m, _ in violated], dtype=int).reshape(-1, 2)
    # A reported pair can already be present only when tol undercuts the
    # master's own feasibility tolerance; that is a fixed point.
    new_pairs = found[~present[found[:, 0], found[:, 1]]]
    present[new_pairs[:, 0], new_pairs[:, 1]] = True
    return new_pairs


def _hot_slack(
    session: LpSession, sol: Solution, problem: OptProblem, dataset: Dataset, tol: float
) -> np.ndarray | None:
    """The slack matrix of the session's hot-started solve `sol` when it
    provably gives the cold solve's separation (see the module docstring),
    else None.  `problem` is the master the session was built from, before
    rows were appended."""
    if not sol.optimal or session.min_nonbasic_dual() < _DUAL_NONDEGENERATE:
        return None
    slack = _slack(problem, sol, dataset)
    two = np.partition(slack, 1, axis=1)
    least, second = two[:, 0], two[:, 1]
    if np.any(np.abs(least + tol) <= _TIE_MARGIN):
        return None
    if np.any((least < -tol) & (second - least <= _TIE_MARGIN)):
        return None
    return slack


def _solve_master(problem: OptProblem, hint) -> tuple[Solution, LpSession | None]:
    """Cold solve of a freshly built master; a pure LP keeps its session."""
    if problem.is_mip:
        return solve_mip(problem, incumbent_hint=hint), None
    if problem.has_quad:
        return solve_qp(problem), None
    session = LpSession(problem)
    return session.solve(), session
