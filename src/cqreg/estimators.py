"""User-facing fit API for the six estimators and their support extraction.

Families: quantile (linear check loss) and expectile (asymmetric squared
loss); penalties: none, shrinkage (L1) or cardinality (L0).

A full-mode fit, the default and the only mode of the command line and
`run_mc`, is the optimum of all n(n-1) Afriat rows.  For a pure LP (CQR,
L1-CQR) from _GROWN_LP_MIN_N observations on, it is reached by growing the
rows in one HiGHS session and certified on all rows by its worst slack
and its duality gap, without appending the rest (`cuts.solve_full_lp`);
smaller LPs, QPs and MIPs are solved cold with every row.  When the LP has
several optimal vertices, the grown path can return a different one than
the cold solve; the objective is the same.
`solve="cuts"` runs the cut loop instead, whose fit is only feasible to
`cuts.CUT_TOL`; the benchmark still pins it.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, replace
from itertools import combinations
from typing import Callable, ClassVar

import numpy as np

from .cuts import CUT_TOL, solve_full_lp, solve_with_cuts
from .data import Dataset
from .model import (
    ALL_PAIRS,
    FEAS_TOL,
    FitResult,
    L0Penalty,
    L1Penalty,
    OptProblem,
    add_l0,
    add_l1,
    build_cer,
    build_cqr,
    extract_fit,
)
from .solver import Solution, Status, solve_lp, solve_mip, solve_qp

QUANTILE = "quantile"
EXPECTILE = "expectile"

# From this many observations a full-mode LP (CQR, L1-CQR) is grown in one
# session and certified on all rows by its slack and duality gap
# (`cuts.solve_full_lp`).  It is the least measured size where that beat
# the cold solve on every instance; at n = 30 the two were even.  Smaller
# fits keep the cold solve's bits, and with them the big-M of the n = 20
# anchors that recorded L0 fits depend on.
_GROWN_LP_MIN_N = 40


@dataclass(frozen=True)
class EstimatorSpec:
    """What to fit: family, level, penalty and how to solve it."""

    family: str
    level: float
    penalty: L1Penalty | L0Penalty | None = None
    solve: str = "full"  # "full" or "cuts"
    # Not a field: kept only for bench/run.py's gate; goes with cuts mode after ROADMAP item 10.
    tol: ClassVar[float] = CUT_TOL

    def __post_init__(self) -> None:
        if self.family not in (QUANTILE, EXPECTILE):
            raise ValueError(f"family must be 'quantile' or 'expectile', got {self.family!r}")
        if not (np.isfinite(self.level) and 0.0 < self.level < 1.0):
            raise ValueError(f"level must lie in (0, 1), got {self.level}")
        if not (self.penalty is None or isinstance(self.penalty, (L1Penalty, L0Penalty))):
            raise ValueError(f"penalty must be None, an L1Penalty or an L0Penalty, got {self.penalty!r}")
        if self.solve not in ("full", "cuts"):
            raise ValueError(f"solve must be 'full' or 'cuts', got {self.solve!r}")


def make_builder(dataset: Dataset, spec: EstimatorSpec) -> Callable[[object], OptProblem]:
    """Closure mapping a constraint set to the spec's master problem."""
    if isinstance(spec.penalty, L0Penalty) and spec.penalty.k > dataset.d:
        raise ValueError(f"k={spec.penalty.k} exceeds d={dataset.d}")

    def builder(constraints) -> OptProblem:
        if spec.family == QUANTILE:
            problem = build_cqr(dataset, spec.level, constraints)
        else:
            problem = build_cer(dataset, spec.level, constraints)
        if isinstance(spec.penalty, L1Penalty):
            problem = add_l1(problem, spec.penalty)
        elif isinstance(spec.penalty, L0Penalty):
            problem = add_l0(problem, spec.penalty)
        return problem

    return builder


def fit(dataset: Dataset, spec: EstimatorSpec) -> FitResult:
    """Fit the estimator; these problems are always feasible, so any
    infeasible status is an internal error and raises.  `meta.wall_time`
    is the time of this whole call."""
    start = time.perf_counter()
    builder = make_builder(dataset, spec)
    is_lp = spec.family == QUANTILE and not isinstance(spec.penalty, L0Penalty)
    if spec.solve == "cuts":
        result, _ = solve_with_cuts(builder, dataset, tol=CUT_TOL)
    elif is_lp and dataset.n >= _GROWN_LP_MIN_N:
        result = solve_full_lp(builder, dataset)
    else:
        problem = builder(ALL_PAIRS)
        result = extract_fit(problem, dataset, _solve_cold(problem, "solve"))
    return replace(result, meta=replace(result.meta, wall_time=time.perf_counter() - start))


def _solve_cold(problem: OptProblem, what: str) -> Solution:
    """One cold solve with the solver the problem's kind needs; a status
    other than optimal raises RuntimeError naming `what`."""
    if problem.is_mip:
        sol = solve_mip(problem)
    elif problem.has_quad:
        sol = solve_qp(problem)
    else:
        sol = solve_lp(problem)
    if sol.status is not Status.OPTIMAL:
        raise RuntimeError(f"{what} ended with status {sol.status}")
    return sol


def support(fit_result: FitResult) -> frozenset:
    """Variables with some coefficient above FEAS_TOL; a cardinality fit
    additionally requires the selector to be on."""
    peak = fit_result.beta.max(axis=0)
    selected = peak > FEAS_TOL
    if fit_result.z is not None:
        selected &= fit_result.z.astype(bool)
    return frozenset(int(j) for j in np.flatnonzero(selected))


def l0_oracle(dataset: Dataset, spec: EstimatorSpec, k: int, big_m: float | None = None) -> tuple[float, frozenset]:
    """Exhaustive-subset optimum of the cardinality-constrained problem.

    Solves the unpenalized problem restricted to every input subset of size
    <= k (columns removed, so the path is independent of the binary
    reformulation) and returns the best objective with its subset; ties go
    to the lexicographically smallest subset.

    Each subset is one cold LP or QP on every row, never `fit`'s grown LP
    or a `solve_mip`, whose results this checks; from _GROWN_LP_MIN_N
    observations on, a CQR subset is thus a cold LP over all n(n-1) rows.
    With `big_m`, each subset's slopes are capped at big_m, as the L0
    model's beta <= big_m * z caps them.  A subset fit that does not end
    optimal raises RuntimeError, as `fit` does.
    """
    if spec.penalty is not None:
        raise ValueError("oracle spec must be penalty-free")
    if big_m is not None and not (math.isfinite(big_m) and big_m > 0):
        raise ValueError(f"big_m must be finite and > 0, got {big_m}")
    d = dataset.d
    k = int(k)
    if k < 1:
        raise ValueError("k must be at least 1")
    k = min(k, d)
    if math.comb(d, k) > 10_000:
        raise ValueError(f"C({d}, {k}) exceeds the enumeration guard")
    subsets = sorted(
        subset for size in range(1, k + 1) for subset in combinations(range(d), size)
    )
    best_obj = np.inf
    best_subset: tuple[int, ...] = ()
    for subset in subsets:
        objective = _capped_objective(dataset.restrict(subset), spec, big_m, subset)
        if objective < best_obj - 1e-9:
            best_obj = objective
            best_subset = subset
    return float(best_obj), frozenset(best_subset)


def _capped_objective(dataset: Dataset, spec: EstimatorSpec, big_m: float | None, subset: tuple[int, ...]) -> float:
    """Optimal objective of the unpenalized fit, with every slope at most big_m if given."""
    problem = make_builder(dataset, spec)(ALL_PAIRS)
    if big_m is not None:
        upper = problem.upper.copy()
        upper[problem.layout.beta_all()] = big_m
        problem = replace(problem, upper=upper)
    cap = "" if big_m is None else f" under big_m={big_m}"
    return _solve_cold(problem, f"support {subset} fit{cap}").objective


def expectile_to_quantile(fit_result: FitResult) -> float:
    """Empirical quantile level of a fit: share of residuals below -FEAS_TOL."""
    return float(np.count_nonzero(fit_result.eps_minus > FEAS_TOL) / fit_result.n)


def anchor_big_m(dataset: Dataset, spec: EstimatorSpec, multiplier: float) -> float:
    """Coefficient cap from an unpenalized anchor fit at the same family and
    level: multiplier times the largest fitted coefficient (floored away from
    zero so the cap stays strictly positive on degenerate data)."""
    if not (math.isfinite(multiplier) and multiplier > 0):
        raise ValueError(f"multiplier must be finite and > 0, got {multiplier}")
    anchor = fit(dataset, replace(spec, penalty=None))
    return float(multiplier * max(anchor.beta.max(), 1e-6))
