"""Shape-constrained regression models as solver-neutral optimization problems.

All problems are built in the fitted-value form: for every ordered pair
(i, h) the supporting hyperplane at observation i must dominate the fitted
value at h,

    yhat_i + beta_i @ (x_h - x_i) >= yhat_h,

together with the residual split y_i - yhat_i = eps_plus_i - eps_minus_i,
monotonicity beta >= 0 and sign constraints on the residual parts.
Intercepts are recovered afterwards as alpha_i = yhat_i - beta_i @ x_i.
The quantile objective is linear in the residual parts, the expectile
objective is a diagonal convex quadratic; both penalties attach to the same
base problem, which is why a single constraint shape serves full solves and
constraint generation alike.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np
from scipy import sparse

from .data import Dataset

# Default primal feasibility tolerance used when checking fitted solutions.
FEAS_TOL = 1e-6


class AllPairs:
    """Sentinel selecting the full n(n-1) ordered-pair constraint system."""

    def __repr__(self) -> str:  # pragma: no cover
        return "ALL_PAIRS"


ALL_PAIRS = AllPairs()


@dataclass(frozen=True)
class L1Penalty:
    """Sparsity-inducing shrinkage weight on sum_{j,i} |beta_{j,i}|."""

    lam: float

    def __post_init__(self) -> None:
        if not np.isfinite(self.lam) or self.lam < 0:
            raise ValueError(f"lambda must be a finite nonnegative real, got {self.lam}")


@dataclass(frozen=True)
class L0Penalty:
    """Cardinality bound: at most k input variables, coefficients capped by big_m."""

    k: int
    big_m: float

    def __post_init__(self) -> None:
        if int(self.k) != self.k or self.k < 1:
            raise ValueError(f"k must be a positive integer, got {self.k}")
        if not np.isfinite(self.big_m) or self.big_m <= 0:
            raise ValueError(f"big_m must be a finite positive real, got {self.big_m}")
        object.__setattr__(self, "k", int(self.k))


@dataclass(frozen=True)
class VarLayout:
    """Index layout of problems built here.

    Columns are [yhat(n), beta(n*d), eps+(n), eps-(n), z(d)?].  Rows are the
    n residual-split rows, then `afriat` Afriat rows starting at row n, then
    any penalty block.
    """

    n: int
    d: int
    afriat: int = 0
    has_z: bool = False

    @property
    def n_continuous(self) -> int:
        return self.n * (3 + self.d)

    def yhat(self) -> slice:
        return slice(0, self.n)

    def beta_all(self) -> slice:
        return slice(self.n, self.n + self.n * self.d)

    def eps_plus(self) -> slice:
        base = self.n + self.n * self.d
        return slice(base, base + self.n)

    def eps_minus(self) -> slice:
        base = self.n + self.n * self.d + self.n
        return slice(base, base + self.n)

    def z(self) -> slice:
        if not self.has_z:
            raise ValueError("layout has no selection variables")
        return slice(self.n_continuous, self.n_continuous + self.d)


@dataclass(frozen=True)
class OptProblem:
    """Backend-neutral description of an LP / convex-QP / small-binary-MIP.

    Minimize  obj_linear @ x + sum(obj_quad * x**2)  subject to the rows of
    `a` with senses 'L' (<=) or 'E' (==) against `rhs`, and bounds
    lower <= x <= upper.  `integer` marks binary selection variables.
    The quadratic term, when present, must have nonnegative entries
    (diagonal PSD), which covers every problem built here.  Problems carry
    no column or row names; `export_mps` derives them from `layout`.
    """

    obj_linear: np.ndarray
    obj_quad: np.ndarray | None
    a: sparse.csr_matrix
    sense: np.ndarray
    rhs: np.ndarray
    lower: np.ndarray
    upper: np.ndarray
    integer: np.ndarray
    layout: VarLayout | None = None

    def __post_init__(self) -> None:
        nv = self.obj_linear.shape[0]
        if self.a.shape[1] != nv:
            raise ValueError("constraint matrix width does not match variable count")
        m = self.a.shape[0]
        for name, arr, length in (
            ("sense", self.sense, m),
            ("rhs", self.rhs, m),
            ("lower", self.lower, nv),
            ("upper", self.upper, nv),
            ("integer", self.integer, nv),
        ):
            if arr.shape[0] != length:
                raise ValueError(f"{name} has length {arr.shape[0]}, expected {length}")
        if self.obj_quad is not None:
            if self.obj_quad.shape[0] != nv:
                raise ValueError("quadratic term length does not match variable count")
            if np.any(self.obj_quad < 0):
                raise ValueError("quadratic term must be PSD (nonnegative diagonal)")
        if not set(np.unique(self.sense)) <= {"L", "E"}:
            raise ValueError("constraint senses must be 'L' or 'E'")

    @property
    def n_vars(self) -> int:
        return self.obj_linear.shape[0]

    @property
    def n_rows(self) -> int:
        return self.a.shape[0]

    @property
    def is_mip(self) -> bool:
        return bool(self.integer.any())

    @property
    def has_quad(self) -> bool:
        return self.obj_quad is not None and bool(np.any(self.obj_quad > 0))


@dataclass(frozen=True)
class FitMeta:
    """Solver diagnostics attached to a fitted model.  `wall_time` is set
    once, by `estimators.fit`, to the seconds of the whole call; a fit read
    out by a lower-level function leaves it at 0."""

    status: str
    iterations: int = 0
    nodes: int = 0
    constraints: int = 0
    wall_time: float = 0.0


@dataclass(frozen=True)
class FitResult:
    """Per-observation hyperplanes and residual split of a solved problem."""

    alpha: np.ndarray
    beta: np.ndarray
    eps_plus: np.ndarray
    eps_minus: np.ndarray
    y_hat: np.ndarray
    z: np.ndarray | None
    objective: float
    meta: FitMeta

    @property
    def n(self) -> int:
        return self.alpha.shape[0]

    @property
    def d(self) -> int:
        return self.beta.shape[1]


def check_loss(t, tau: float):
    """Asymmetric absolute loss: tau * t for t > 0 and (tau - 1) * t for t <= 0.

    Accepts scalars or arrays; always nonnegative.
    """
    _check_level(tau, "tau")
    t = np.asarray(t, dtype=float)
    if not np.all(np.isfinite(t)):
        raise ValueError("check loss argument must be finite")
    out = np.where(t > 0, tau * t, (tau - 1.0) * t)
    return float(out) if out.ndim == 0 else out


def expectile_loss(t, tilde_tau: float):
    """Asymmetric squared loss: tilde_tau * t^2 above zero, (1 - tilde_tau) * t^2 below."""
    _check_level(tilde_tau, "tilde_tau")
    t = np.asarray(t, dtype=float)
    if not np.all(np.isfinite(t)):
        raise ValueError("expectile loss argument must be finite")
    out = np.where(t > 0, tilde_tau, 1.0 - tilde_tau) * t * t
    return float(out) if out.ndim == 0 else out


def _check_level(level: float, name: str) -> None:
    if not (np.isfinite(level) and 0.0 < level < 1.0):
        raise ValueError(f"{name} must lie in the open interval (0, 1), got {level}")


def _pair_arrays(dataset: Dataset, constraints) -> tuple[np.ndarray, np.ndarray]:
    n = dataset.n
    if isinstance(constraints, AllPairs):
        i = np.repeat(np.arange(n), n)
        h = np.tile(np.arange(n), n)
        keep = i != h
        return i[keep], h[keep]
    pairs = np.asarray(constraints, dtype=int).reshape(-1, 2)
    if pairs.size and (pairs.min() < 0 or pairs.max() >= n):
        raise ValueError("constraint pair indices out of range")
    if np.any(pairs[:, 0] == pairs[:, 1]):
        raise ValueError("constraint pairs must have i != h")
    return pairs[:, 0], pairs[:, 1]


def _afriat_entries(
    dataset: Dataset, pi: np.ndarray, ph: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Column indices (int32) and values of the Afriat rows of the pairs,
    one row of d + 2 entries per pair, in canonical CSR order: the two yhat
    columns in increasing order, then the d columns of beta_i."""
    n, d = dataset.n, dataset.d
    X = dataset.inputs
    m = pi.shape[0]
    width = d + 2
    indices = np.empty((m, width), dtype=np.int32)
    indices[:, 0] = np.minimum(pi, ph)
    indices[:, 1] = np.maximum(pi, ph)
    indices[:, 2:] = n + pi[:, None] * d + np.arange(d)
    data = np.empty((m, width))
    data[:, 0] = np.where(ph < pi, 1.0, -1.0)
    data[:, 1] = -data[:, 0]
    data[:, 2:] = -(X[ph] - X[pi])
    return indices.ravel(), data.ravel()


def afriat_rows(dataset: Dataset, constraints) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Afriat rows of the pairs (i, h), in order, in <= 0 form:
    yhat_h - yhat_i - beta_i @ (x_h - x_i) <= 0, as the CSR arrays
    (indptr, indices, data) of rows over the VarLayout columns, int32
    indices and float64 values."""
    indices, data = _afriat_entries(dataset, *_pair_arrays(dataset, constraints))
    width = dataset.d + 2
    return np.arange(0, indices.size + 1, width, dtype=np.int32), indices, data


def _build_base(dataset: Dataset, constraints) -> tuple[list, VarLayout]:
    """Common constraint fabric shared by the quantile and expectile builders.

    The CSR arrays are written directly, in canonical form: the n
    residual-split rows yhat_i + eps+_i - eps-_i = y_i, three entries each
    in column order, then the Afriat rows of `_afriat_entries`.
    """
    n, d = dataset.n, dataset.d
    pi, ph = _pair_arrays(dataset, constraints)
    m = pi.shape[0]
    lay = VarLayout(n, d, afriat=m)
    nv = lay.n_continuous

    split_indices = np.arange(n, dtype=np.int32)[:, None] + np.array(
        [lay.yhat().start, lay.eps_plus().start, lay.eps_minus().start], dtype=np.int32
    )
    afriat_indices, afriat_data = _afriat_entries(dataset, pi, ph)
    indptr = np.concatenate(
        [
            np.arange(0, 3 * n, 3, dtype=np.int32),
            np.arange(3 * n, 3 * n + afriat_indices.size + 1, d + 2, dtype=np.int32),
        ]
    )
    indices = np.concatenate([split_indices.ravel(), afriat_indices])
    data = np.concatenate([np.tile([1.0, 1.0, -1.0], n), afriat_data])
    a = sparse.csr_matrix((data, indices, indptr), shape=(n + m, nv))
    sense = np.full(n + m, "L")
    sense[:n] = "E"
    rhs = np.concatenate([dataset.output, np.zeros(m)])

    lower = np.full(nv, 0.0)
    lower[lay.yhat()] = -np.inf
    upper = np.full(nv, np.inf)
    integer = np.zeros(nv, dtype=bool)
    return [a, sense, rhs, lower, upper, integer], lay


def build_cqr(dataset: Dataset, tau: float, constraints=ALL_PAIRS) -> OptProblem:
    """Quantile LP: minimize tau * sum(eps+) + (1 - tau) * sum(eps-)."""
    _check_level(tau, "tau")
    (a, sense, rhs, lower, upper, integer), lay = _build_base(dataset, constraints)
    obj = np.zeros(lay.n_continuous)
    obj[lay.eps_plus()] = tau
    obj[lay.eps_minus()] = 1.0 - tau
    return OptProblem(obj, None, a, sense, rhs, lower, upper, integer, lay)


def build_cer(dataset: Dataset, tilde_tau: float, constraints=ALL_PAIRS) -> OptProblem:
    """Expectile QP: minimize tilde_tau * sum(eps+^2) + (1 - tilde_tau) * sum(eps-^2)."""
    _check_level(tilde_tau, "tilde_tau")
    (a, sense, rhs, lower, upper, integer), lay = _build_base(dataset, constraints)
    obj = np.zeros(lay.n_continuous)
    quad = np.zeros(lay.n_continuous)
    quad[lay.eps_plus()] = tilde_tau
    quad[lay.eps_minus()] = 1.0 - tilde_tau
    return OptProblem(obj, quad, a, sense, rhs, lower, upper, integer, lay)


def _require_layout(problem: OptProblem) -> VarLayout:
    if problem.layout is None:
        raise ValueError("problem was not built by build_cqr/build_cer")
    return problem.layout


def add_l1(problem: OptProblem, penalty: L1Penalty) -> OptProblem:
    """Attach the shrinkage term: since beta >= 0, |beta| = beta, so the
    penalty is exact as a linear cost bump on every beta variable."""
    lay = _require_layout(problem)
    if lay.has_z:
        raise ValueError("cannot combine the shrinkage and cardinality penalties")
    obj = problem.obj_linear.copy()
    obj[lay.beta_all()] += penalty.lam
    return replace(problem, obj_linear=obj)


def add_l0(problem: OptProblem, penalty: L0Penalty) -> OptProblem:
    """Attach the cardinality block: d binary selectors z, coupling rows
    beta_{j,i} - big_m * z_j <= 0 and one row sum(z) <= k."""
    lay = _require_layout(problem)
    if lay.has_z:
        raise ValueError("cardinality block already present")
    n, d = lay.n, lay.d
    if penalty.k > d:
        raise ValueError(f"k={penalty.k} exceeds the number of input variables d={d}")
    nv = problem.n_vars

    # n*d coupling rows, 2 nonzeros each, then the cardinality row.
    r = np.arange(n * d)
    beta_cols = np.arange(*lay.beta_all().indices(nv))
    z_cols = nv + np.tile(np.arange(d), n)
    rows = np.concatenate([r, r, np.full(d, n * d)])
    cols = np.concatenate([beta_cols, z_cols, nv + np.arange(d)])
    vals = np.concatenate([np.ones(n * d), np.full(n * d, -penalty.big_m), np.ones(d)])
    extra = sparse.csr_matrix((vals, (rows, cols)), shape=(n * d + 1, nv + d))

    a = sparse.vstack([sparse.hstack([problem.a, sparse.csr_matrix((problem.n_rows, d))]), extra]).tocsr()
    sense = np.concatenate([problem.sense, np.array(["L"] * (n * d + 1))])
    rhs = np.concatenate([problem.rhs, np.zeros(n * d), [float(penalty.k)]])
    obj = np.concatenate([problem.obj_linear, np.zeros(d)])
    quad = None if problem.obj_quad is None else np.concatenate([problem.obj_quad, np.zeros(d)])
    lower = np.concatenate([problem.lower, np.zeros(d)])
    upper = np.concatenate([problem.upper, np.ones(d)])
    integer = np.concatenate([problem.integer, np.ones(d, dtype=bool)])
    return OptProblem(obj, quad, a, sense, rhs, lower, upper, integer, replace(lay, has_z=True))


def add_l1_budget(problem: OptProblem, penalty: L0Penalty) -> OptProblem:
    """Convex relaxation of the cardinality block: per-observation budget rows
    sum_j beta_{j,i} <= big_m * k plus coefficient caps beta <= big_m.

    Every point feasible for the binary block is feasible here, so the optimal
    objective is a lower bound on the cardinality-constrained optimum.
    """
    lay = _require_layout(problem)
    if lay.has_z:
        raise ValueError("relaxation applies to the unpenalized problem")
    n, d = lay.n, lay.d
    if penalty.k > d:
        raise ValueError(f"k={penalty.k} exceeds the number of input variables d={d}")
    nv = problem.n_vars
    rows = np.repeat(np.arange(n), d)
    cols = np.arange(*lay.beta_all().indices(nv))
    extra = sparse.csr_matrix((np.ones(n * d), (rows, cols)), shape=(n, nv))
    a = sparse.vstack([problem.a, extra]).tocsr()
    sense = np.concatenate([problem.sense, np.array(["L"] * n)])
    rhs = np.concatenate([problem.rhs, np.full(n, penalty.big_m * penalty.k)])
    upper = problem.upper.copy()
    upper[lay.beta_all()] = np.minimum(upper[lay.beta_all()], penalty.big_m)
    return replace(problem, a=a, sense=sense, rhs=rhs, upper=upper)


def extract_fit(problem: OptProblem, dataset: Dataset, solution) -> FitResult:
    """Read a FitResult out of a solved problem built by the builders above."""
    lay = _require_layout(problem)
    x = solution.x
    if x is None:
        raise ValueError(f"no primal solution available (status {solution.status})")
    y_hat = x[lay.yhat()].copy()
    beta = x[lay.beta_all()].reshape(lay.n, lay.d).copy()
    eps_plus = x[lay.eps_plus()].copy()
    eps_minus = x[lay.eps_minus()].copy()
    alpha = y_hat - np.sum(beta * dataset.inputs, axis=1)
    z = None
    if lay.has_z:
        z = np.rint(x[lay.z()]).astype(int)
    meta = FitMeta(
        status=str(solution.status),
        iterations=int(solution.iterations),
        nodes=int(solution.nodes),
        constraints=lay.afriat,
    )
    return FitResult(alpha, beta, eps_plus, eps_minus, y_hat, z, float(solution.objective), meta)


def validate_fit(
    fit: FitResult,
    dataset: Dataset,
    tol: float = FEAS_TOL,
    big_m: float | None = None,
    k: int | None = None,
) -> list[str]:
    """Check every fitted-model invariant; returns a list of violation messages.
    A NaN tol or big_m would pass the checks that read it, so tol must be
    finite and >= 0, and big_m finite."""
    if not (np.isfinite(tol) and tol >= 0):
        raise ValueError(f"tol must be finite and nonnegative, got {tol}")
    if big_m is not None and not np.isfinite(big_m):
        raise ValueError(f"big_m must be finite, got {big_m}")
    problems: list[str] = []
    X, y = dataset.inputs, dataset.output
    if np.any(fit.beta < -tol):
        problems.append(f"beta has negative entries (min {fit.beta.min():.3g})")
    if np.any(fit.eps_plus < -tol) or np.any(fit.eps_minus < -tol):
        problems.append("residual parts have negative entries")
    resid = y - fit.y_hat - (fit.eps_plus - fit.eps_minus)
    if np.max(np.abs(resid)) > tol:
        problems.append(f"residual split identity violated by {np.max(np.abs(resid)):.3g}")
    recon = fit.y_hat - np.sum(fit.beta * X, axis=1)
    if np.max(np.abs(recon - fit.alpha)) > tol:
        problems.append("intercepts inconsistent with y_hat - beta @ x")
    # Full Afriat scan: hyperplane i must dominate every fitted value.
    planes = fit.alpha[:, None] + fit.beta @ X.T
    slack = planes - fit.y_hat[None, :]
    worst = slack.min()
    if worst < -tol:
        problems.append(f"Afriat system violated by {-worst:.3g}")
    if fit.z is not None:
        if k is not None and fit.z.sum() > k:
            problems.append(f"selected {int(fit.z.sum())} variables, cardinality bound {k}")
        if big_m is not None:
            cap = big_m * fit.z[None, :]
            over = (fit.beta - cap).max()
            if over > tol:
                problems.append(f"coefficient cap beta <= M*z violated by {over:.3g}")
    return problems
