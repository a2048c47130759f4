"""Constraint generation for the shape-constraint system.

The full problem carries n(n-1) domination rows; the loop here solves a
reduced master seeded from a spanning structure over the inputs, scans for
the most violated row per observation, inserts those rows and re-solves
until every violation clears the tolerance.  Because rows are only added,
the master optimum grows monotonically toward the full-problem optimum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy.sparse.csgraph import minimum_spanning_tree
from scipy.spatial.distance import pdist, squareform

from .data import Dataset
from .model import FitResult, OptProblem, extract_fit
from .solver import Solution, Status, solve_lp, solve_mip, solve_qp

MST = "mst"
SPANNING_PATH = "path"


@dataclass(frozen=True)
class CutLoopStats:
    """Trace of one constraint-generation run.

    `max_violation` is the most negative domination slack at the final
    iterate (violations are negative slacks, so termination guarantees
    max_violation >= -tol).
    """

    iterations: int
    added: tuple[int, ...]
    constraints: int
    max_violation: float


class CutLoopLimitError(RuntimeError):
    """Master-resolve cap reached; carries the best fit seen so far."""

    def __init__(self, message: str, fit: FitResult, stats: CutLoopStats):
        super().__init__(message)
        self.fit = fit
        self.stats = stats


def initial_constraints(dataset: Dataset, strategy: str = MST) -> list[tuple[int, int]]:
    """Seed pairs (i, h), hyperplane i dominating the fitted value at h, from a
    spanning structure on input-space Euclidean distances.

    MST keeps both directions of each tree edge (2(n-1) pairs); the spanning
    path is a greedy nearest-neighbor walk from the first observation (n-1
    directed pairs).
    """
    X = dataset.inputs
    n = dataset.n
    if strategy == MST:
        dist = squareform(pdist(X))
        tree = minimum_spanning_tree(dist).tocoo()
        edges = sorted(
            (min(int(a), int(b)), max(int(a), int(b))) for a, b in zip(tree.row, tree.col)
        )
        pairs = []
        for a, b in edges:
            pairs.append((a, b))
            pairs.append((b, a))
        return pairs
    if strategy == SPANNING_PATH:
        dist = squareform(pdist(X))
        visited = [0]
        remaining = set(range(1, n))
        while remaining:
            here = visited[-1]
            nxt = min(remaining, key=lambda j: (dist[here, j], j))
            visited.append(nxt)
            remaining.remove(nxt)
        return list(zip(visited[:-1], visited[1:]))
    raise ValueError(f"unknown strategy {strategy!r}")


def separate(fit: FitResult, dataset: Dataset, tol: float) -> list[tuple[int, int, float]]:
    """Most violated domination row per observation.

    For each i returns (i, m(i), v_i) where m(i) minimizes
    yhat_i + beta_i @ (x_m - x_i) - yhat_m over all m (ties to the lowest
    index); only entries with v_i < -tol are reported.
    """
    X = dataset.inputs
    planes = fit.alpha[:, None] + fit.beta @ X.T
    slack = planes - fit.y_hat[None, :]
    m_idx = np.argmin(slack, axis=1)
    values = slack[np.arange(fit.n), m_idx]
    return [
        (int(i), int(m_idx[i]), float(values[i]))
        for i in np.flatnonzero(values < -tol)
    ]


def solve_with_cuts(
    builder: Callable[[list[tuple[int, int]]], OptProblem],
    dataset: Dataset,
    strategy: str = MST,
    tol: float = 0.01,
    max_rounds: int | None = None,
) -> tuple[FitResult, CutLoopStats]:
    """Run the reduced-master loop until the full system is tol-feasible.

    `builder` maps a list of (i, h) pairs to the master problem (any
    objective and extra penalty blocks); masters with binary selectors are
    re-solved as MIPs each round, warm-started from the previous round's
    selection.
    """
    if max_rounds is None:
        max_rounds = max(1, math.ceil(dataset.n * dataset.n / 2))
    # A copy: rows are appended to `active`, never to the seed list.
    active = list(initial_constraints(dataset, strategy))
    present = set(active)
    added: list[int] = []
    fit: FitResult | None = None
    hint = None
    for _ in range(max_rounds):
        problem = builder(active)
        sol = _dispatch(problem, hint)
        if sol.status is not Status.OPTIMAL:
            raise RuntimeError(f"master solve ended with status {sol.status}")
        fit = extract_fit(problem, dataset, sol)
        if fit.z is not None:
            hint = fit.z
        violated = separate(fit, dataset, tol)
        # A reported pair can already be present only when tol undercuts the
        # master's own feasibility tolerance; that is a fixed point.
        new_pairs = [(i, m) for i, m, _ in violated if (i, m) not in present]
        added.append(len(new_pairs))
        if not new_pairs:
            worst = _worst_slack(fit, dataset)
            stats = CutLoopStats(len(added), tuple(added), len(active), worst)
            return fit, stats
        active.extend(new_pairs)
        present.update(new_pairs)
    worst = _worst_slack(fit, dataset)
    stats = CutLoopStats(len(added), tuple(added), len(active), worst)
    raise CutLoopLimitError(
        f"no tol-feasible master after {max_rounds} resolves", fit, stats
    )


def _worst_slack(fit: FitResult, dataset: Dataset) -> float:
    planes = fit.alpha[:, None] + fit.beta @ dataset.inputs.T
    return float((planes - fit.y_hat[None, :]).min())


def _dispatch(problem: OptProblem, hint) -> Solution:
    if problem.is_mip:
        return solve_mip(problem, incumbent_hint=hint)
    if problem.has_quad:
        return solve_qp(problem)
    return solve_lp(problem)
