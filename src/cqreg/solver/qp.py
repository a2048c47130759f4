"""Convex quadratic programming via a primal-dual interior-point method.

Solves   min 0.5 x'Px + q'x   s.t.   l <= Ax <= u
with P diagonal PSD, which covers every expectile problem built here.
Equality rows are encoded as l == u, finite variable bounds as identity
rows.  The engine is a Mehrotra predictor-corrector iteration on the
slack form (equalities kept explicit, each finite inequality side given a
nonnegative slack), with Ruiz equilibration and a dense factorization of
the reduced augmented system; the row count only enters through a sparse
normal-matrix product, so the n(n-1) domination rows stay cheap.

These problems are LP-like (the curvature lives on the residual split
variables only) and heavily degenerate at noiseless optima; the
interior-point iteration is insensitive to that, converging in a few
dozen steps where operator-splitting stalls in the tail.

A context can be re-solved under different bound vectors (used by
branch-and-bound, where only the selection-variable bounds change
between nodes).
"""

from __future__ import annotations

import time

import numpy as np
from scipy import sparse
from scipy.linalg import lu_factor, lu_solve
from scipy.sparse.linalg import splu

from ..model import OptProblem
from .base import Solution, Status

_EPS_TARGET = 1e-9  # interior-point stopping (scaled residuals and gap)
_EPS_FINAL = 1e-6   # contract: KKT residual at acceptance
_DELTA = 1e-9       # static regularization of the augmented system
_MAX_IPM_ITERS = 200
_DENSE_DIM_CAP = 4000  # dense factorization cutoff for nv + #equalities


def _colmax(a: sparse.spmatrix) -> np.ndarray:
    m = np.abs(a).max(axis=0)
    return np.asarray(m.todense()).ravel() if sparse.issparse(m) else np.asarray(m).ravel()


def _rowmax(a: sparse.spmatrix) -> np.ndarray:
    m = np.abs(a).max(axis=1)
    return np.asarray(m.todense()).ravel() if sparse.issparse(m) else np.asarray(m).ravel()


class QpContext:
    """Reusable solve context: scaling and row fabric for one constraint matrix."""

    def __init__(self, problem: OptProblem):
        if not problem.has_quad:
            raise ValueError("problem has no quadratic objective; use solve_lp")
        if problem.is_mip:
            raise ValueError("problem has integrality flags; use solve_mip")
        self.problem = problem
        nv = problem.n_vars
        self.p_diag0 = 2.0 * (problem.obj_quad if problem.obj_quad is not None else np.zeros(nv))
        self.q0 = problem.obj_linear.astype(float)

        # Stack constraint rows and finite-bound identity rows into l <= Ax <= u.
        is_eq = problem.sense == "E"
        lo_rows = np.where(is_eq, problem.rhs, -np.inf)
        up_rows = problem.rhs.astype(float)
        bounded = np.flatnonzero((problem.lower != -np.inf) | (problem.upper != np.inf))
        eye = sparse.csr_matrix(
            (np.ones(bounded.size), (np.arange(bounded.size), bounded)),
            shape=(bounded.size, nv),
        )
        self.a0 = sparse.vstack([problem.a, eye]).tocsr() if bounded.size else problem.a.tocsr()
        self.l0 = np.concatenate([lo_rows, problem.lower[bounded]])
        self.u0 = np.concatenate([up_rows, problem.upper[bounded]])
        self.bounded = bounded
        self.m, self.nv = self.a0.shape
        self._equilibrate()

    def _equilibrate(self) -> None:
        """Ruiz scaling of the KKT block matrix plus cost normalization."""
        d = np.ones(self.nv)
        e = np.ones(self.m)
        p = self.p_diag0.copy()
        a = self.a0.astype(float).copy()
        for _ in range(10):
            cnorm = np.maximum(np.abs(p), _colmax(a)) if self.m else np.abs(p)
            rnorm = _rowmax(a) if self.m else np.empty(0)
            dx = 1.0 / np.sqrt(np.maximum(cnorm, 1e-12))
            dr = 1.0 / np.sqrt(np.maximum(rnorm, 1e-12))
            dx[cnorm < 1e-12] = 1.0
            dr[rnorm < 1e-12] = 1.0
            p *= dx * dx
            a = sparse.diags(dr) @ a @ sparse.diags(dx)
            d *= dx
            e *= dr
        q = (self.q0 * d).astype(float)
        cost = max(np.abs(p).mean() if p.size else 0.0, np.abs(q).max() if q.size else 0.0)
        c = 1.0 / min(max(cost, 1e-6), 1e6)
        self.d, self.e, self.c = d, e, c
        self.p_s = c * p
        self.q_s = c * q
        self.a_s = a.tocsr()
        self.l_s = self.l0 * e
        self.u_s = self.u0 * e

    def _unscaled(self, x_s, y_s, z_s):
        x = self.d * x_s
        y = self.e * y_s / self.c
        z = z_s / self.e
        return x, y, z

    def _residuals(self, x_s, y_s, z_s, lo, up):
        """Unscaled primal/dual/sign residuals and the relative scales under
        the unscaled row bounds lo <= Ax <= up.

        The sign residual catches dual-infeasible candidates: a multiplier
        pushing on a slack (or wrong-side) bound would make the point a
        saddle rather than the optimum, even if it passes feasibility and
        stationarity alone.
        """
        x, y, z = self._unscaled(x_s, y_s, z_s)
        ax = (self.a_s @ x_s) / self.e if self.m else np.zeros(0)
        px = self.p_diag0 * x
        aty = self.a0.T @ y if self.m else np.zeros(self.nv)
        r_prim = np.max(np.abs(ax - z)) if self.m else 0.0
        r_dual = np.max(np.abs(px + self.q0 + aty))
        s_prim = max(
            np.max(np.abs(ax)) if self.m else 0.0, np.max(np.abs(z)) if self.m else 0.0, 1e-12
        )
        s_dual = max(
            np.max(np.abs(px)),
            np.max(np.abs(aty)),
            np.max(np.abs(self.q0)) if self.q0.size else 0.0,
            1e-12,
        )
        r_sign = 0.0
        if self.m:
            eq = lo == up
            finite_u, finite_l = up != np.inf, lo != -np.inf
            rel_u = np.ones(self.m)
            rel_u[finite_u] = np.minimum(
                1.0, (up[finite_u] - ax[finite_u]) / (1.0 + np.abs(up[finite_u]))
            )
            rel_l = np.ones(self.m)
            rel_l[finite_l] = np.minimum(
                1.0, (ax[finite_l] - lo[finite_l]) / (1.0 + np.abs(lo[finite_l]))
            )
            weight = np.abs(y) / (1.0 + np.abs(y))
            err_u = np.where((y > 0) & ~eq, weight * np.maximum(rel_u, 0.0), 0.0)
            err_l = np.where((y < 0) & ~eq, weight * np.maximum(rel_l, 0.0), 0.0)
            r_sign = float(np.max(np.maximum(err_u, err_l)))
        return r_prim, r_dual, r_sign, s_prim, s_dual

    def _acceptable(self, x_s, y_s, z_s, lo, up) -> bool:
        # Absolute 1e-6 as the contract, relative floor only for huge scales.
        r_p, r_d, r_s, s_p, s_d = self._residuals(x_s, y_s, z_s, lo, up)
        return (
            r_p <= max(_EPS_FINAL, 1e-9 * s_p)
            and r_d <= max(_EPS_FINAL, 1e-9 * s_d)
            and r_s <= _EPS_FINAL
        )

    def solve(self, lower: np.ndarray | None = None, upper: np.ndarray | None = None) -> Solution:
        start = time.perf_counter()
        l_s, u_s = self.l_s, self.u_s
        if lower is not None or upper is not None:
            lo = self.problem.lower if lower is None else lower
            up = self.problem.upper if upper is None else upper
            nb = self.problem.a.shape[0]
            l_s = self.l_s.copy()
            u_s = self.u_s.copy()
            l_s[nb:] = lo[self.bounded] * self.e[nb:]
            u_s[nb:] = up[self.bounded] * self.e[nb:]
        x_s, y_row, status, iters = self._ipm(l_s, u_s)
        z_s = np.clip(self.a_s @ x_s, l_s, u_s) if self.m else np.zeros(0)
        if status in (Status.INFEASIBLE, Status.UNBOUNDED):
            return Solution(status, None, np.nan, iters, 0, time.perf_counter() - start)
        ok = self._acceptable(x_s, y_row, z_s, l_s / self.e, u_s / self.e)
        xu = self.d * x_s
        obj = float(self.q0 @ xu + 0.5 * (self.p_diag0 * xu) @ xu)
        return Solution(
            status=Status.OPTIMAL if ok else Status.ITERATION_LIMIT,
            x=xu,
            objective=obj,
            iterations=iters,
            wall_time=time.perf_counter() - start,
        )

    def _ipm(self, l_s: np.ndarray, u_s: np.ndarray):
        """Mehrotra predictor-corrector on the scaled problem.

        Returns (x, row-space duals, status, iterations); the row-space dual
        of a two-sided row is the upper multiplier minus the lower one.
        """
        nv, m = self.nv, self.m
        p, q = self.p_s, self.q_s
        if m == 0:
            free = p > 0
            if np.any(~free & (q != 0)):
                return np.zeros(nv), np.zeros(0), Status.UNBOUNDED, 0
            x = np.zeros(nv)
            x[free] = -q[free] / p[free]
            return x, np.zeros(0), Status.OPTIMAL, 0

        eq = l_s == u_s
        up = ~eq & (u_s != np.inf)
        lo = ~eq & (l_s != -np.inf)
        a_eq = self.a_s[eq]
        b_eq = u_s[eq]
        a_up, cap_up = self.a_s[up], u_s[up]
        a_lo, cap_lo = -self.a_s[lo], -l_s[lo]
        a_in = sparse.vstack([a_up, a_lo]).tocsr() if (up.any() or lo.any()) else None
        cap = np.concatenate([cap_up, cap_lo])
        m_eq, m_in = a_eq.shape[0], cap.shape[0]
        dense = nv + m_eq <= _DENSE_DIM_CAP

        x = np.zeros(nv)
        y = np.zeros(m_eq)
        if m_in:
            gap0 = cap - (a_in @ x)
            s = np.maximum(gap0, 1.0)
            z = np.ones(m_in)
        else:
            s = np.zeros(0)
            z = np.zeros(0)

        def factor(w):
            if m_in:
                awa = (a_in.multiply(w[:, None])).T @ a_in
            else:
                awa = sparse.csr_matrix((nv, nv))
            if dense:
                k = np.zeros((nv + m_eq, nv + m_eq))
                k[:nv, :nv] = awa.toarray()
                k[np.arange(nv), np.arange(nv)] += p + _DELTA
                if m_eq:
                    ae = a_eq.toarray()
                    k[:nv, nv:] = ae.T
                    k[nv:, :nv] = ae
                    k[nv + np.arange(m_eq), nv + np.arange(m_eq)] -= _DELTA
                return ("dense", lu_factor(k, check_finite=False))
            blocks = awa + sparse.diags(p + _DELTA)
            k = sparse.bmat(
                [
                    [blocks, a_eq.T if m_eq else None],
                    [a_eq if m_eq else None, -_DELTA * sparse.identity(m_eq) if m_eq else None],
                ],
                format="csc",
            ) if m_eq else blocks.tocsc()
            return ("sparse", splu(k))

        def solve_kkt(fact, rhs1, rhs2):
            rhs = np.concatenate([rhs1, rhs2])
            kind, f = fact
            if kind == "dense":
                out = lu_solve(f, rhs, check_finite=False)
            else:
                out = f.solve(rhs)
            return out[:nv], out[nv:]

        status = Status.ITERATION_LIMIT
        it = 0
        for it in range(1, _MAX_IPM_ITERS + 1):
            r_d = p * x + q + (a_eq.T @ y if m_eq else 0.0)
            if m_in:
                r_d = r_d + a_in.T @ z
            r_eq = (a_eq @ x - b_eq) if m_eq else np.zeros(0)
            if m_in:
                r_in = a_in @ x + s - cap
                mu = float(s @ z) / m_in
            else:
                r_in = np.zeros(0)
                mu = 0.0
            prim = max(
                np.max(np.abs(r_eq)) if m_eq else 0.0,
                np.max(np.abs(r_in)) if m_in else 0.0,
            )
            dual = np.max(np.abs(r_d))
            scale = 1.0 + max(
                np.max(np.abs(x)),
                np.max(np.abs(z)) if m_in else 0.0,
                np.max(np.abs(y)) if m_eq else 0.0,
            )
            if prim <= _EPS_TARGET * scale and dual <= _EPS_TARGET * scale and mu <= _EPS_TARGET * scale:
                status = Status.OPTIMAL
                break
            if m_in and (np.max(z) > 1e12 or np.max(s) > 1e14):
                status = Status.INFEASIBLE
                break
            if np.max(np.abs(x)) > 1e14:
                status = Status.UNBOUNDED
                break

            w = np.clip(z / np.maximum(s, 1e-300), 1e-12, 1e16) if m_in else np.zeros(0)
            fact = factor(w)

            def direction(rc):
                # Eliminate ds, dz; solve the augmented system for dx, dy.
                if m_in:
                    tmp = (z * r_in - rc) / np.maximum(s, 1e-300)
                    rhs1 = -r_d - a_in.T @ tmp
                else:
                    rhs1 = -r_d
                dx, dy = solve_kkt(fact, rhs1, -r_eq)
                if m_in:
                    ds = -r_in - a_in @ dx
                    dz = -(rc + z * ds) / np.maximum(s, 1e-300)
                else:
                    ds = np.zeros(0)
                    dz = np.zeros(0)
                return dx, dy, ds, dz

            # Affine (predictor) direction.
            dx_a, dy_a, ds_a, dz_a = direction(s * z if m_in else np.zeros(0))
            if m_in:
                alpha_p = _step_len(s, ds_a)
                alpha_d = _step_len(z, dz_a)
                mu_aff = float((s + alpha_p * ds_a) @ (z + alpha_d * dz_a)) / m_in
                sigma = np.clip((mu_aff / max(mu, 1e-300)) ** 3, 1e-8, 1.0)
                rc = s * z + ds_a * dz_a - sigma * mu
                dx, dy, ds, dz = direction(rc)
                alpha_p = 0.99995 * _step_len(s, ds)
                alpha_d = 0.99995 * _step_len(z, dz)
                alpha_p = min(1.0, alpha_p)
                alpha_d = min(1.0, alpha_d)
            else:
                dx, dy = dx_a, dy_a
                ds = dz = np.zeros(0)
                alpha_p = alpha_d = 1.0
            x = x + alpha_p * dx
            s = s + alpha_p * ds
            y = y + alpha_d * dy
            z = z + alpha_d * dz

        # Scatter inequality duals back to signed row-space multipliers.
        y_row = np.zeros(m)
        if m_eq:
            y_row[eq] = y
        if m_in:
            z_up, z_lo = z[: a_up.shape[0]], z[a_up.shape[0] :]
            y_row[up] += z_up
            y_row[lo] -= z_lo
        return x, y_row, status, it


def _step_len(v: np.ndarray, dv: np.ndarray) -> float:
    neg = dv < 0
    if not neg.any():
        return 1.0
    return float(min(1.0, np.min(-v[neg] / dv[neg])))


def solve_qp(problem: OptProblem) -> Solution:
    """Solve a convex diagonal QP to KKT residual 1e-6 (deterministic)."""
    return QpContext(problem).solve()
