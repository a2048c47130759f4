"""Convex quadratic programming via a primal-dual interior-point method.

Solves   min 0.5 x'Px + q'x   s.t.   l <= Ax <= u
with P diagonal PSD, which covers every expectile problem built here.
Equality rows are encoded as l == u, finite variable bounds as identity
rows.  The engine is a Mehrotra predictor-corrector iteration on the
slack form (equalities kept explicit, each finite inequality side given a
nonnegative slack), with Ruiz equilibration and one sparse LU factorization
per iteration of the reduced augmented system

    K = [A_in' W A_in + P + delta I, A_eq'; A_eq, -delta I].

K is symmetric quasi-definite, so it has a factorization with diagonal
pivots under any symmetric ordering (Vanderbei 1995); SuperLU takes the
diagonal pivot unless it is tiny against its column.  Its sparsity pattern is
fixed for one row partition: it is built once, together with a map from every
same-row nonzero pair of A_in to its slot, and each iteration only refills
the values and factors them.  The first factorization on a partition orders
K by minimum degree on K + K'; the partition then relabels its pattern by
that ordering, once, and every later factorization, of any solve on the
partition, takes the relabelled K in its natural order and permutes the
right-hand side in and the solution out.  Each relabelled column keeps its
entries in K's own order, so SuperLU does the same arithmetic in the same
order and every solve keeps the bits of ordering K afresh.
The inequality rows enter K through those pairs alone, so the n(n-1)
domination rows stay cheap.

Every problem runs the same iteration.  A block without rows (no equality
rows, or no finite inequality sides) is a zero-length vector: its products
are zero, its maxima 0 and its step length 1.  A problem with no rows and
no finite bounds at all is rejected with ValueError; every model built
here has its n residual-split equality rows.

These problems are LP-like (the curvature lives on the residual split
variables only) and heavily degenerate at noiseless optima; the
interior-point iteration is insensitive to that, converging in a few
dozen steps where operator-splitting stalls in the tail.

A context can be re-solved under different bound vectors (used by
branch-and-bound, where only the selection-variable bounds change
between nodes).

What does not depend on the costs is built once per constraint system and
kept in a one-entry memo: the stacked rows, their Ruiz scaling and scaled
P, and, for the last row partition solved (which rows are equalities,
upper and lower sides), the row slices, their transposes and the pattern
of K with its ordering.  A cross-validation fold solves the same system at
every lambda of its grid, since the shrinkage penalty is a cost bump on
beta, so its solves share one ordering.  The key is exact bitwise
equality of the constraint matrix's CSR arrays and shape, of the quadratic
costs and of the set of bounded columns; a system that differs replaces
the entry.  Each solve recomputes the cost scale, the
scaled costs and the constant part of K.  The memo's arrays are
read-only, so a caller cannot change what a later solve reads.

The products with the row slices and the refill of K call scipy's private
kernels `_sparsetools.csr_matvec` and `csc_matvec` directly: they are what
`@` dispatches to, so every iterate has the bits `@` gives, without the
dispatch cost of each call.  The factorization likewise calls SuperLU's
kernel `_superlu.gstrf` with the options `splu` would pass, into a value
buffer of the solve's own, and gets the bits `splu` gives; after the first
factorization on a partition it passes the natural ordering instead and
reads the ordering back from the first factor's `perm_c`.  `_superlu` is
loaded from its file by `base.load_extension`: importing it would load
`scipy.sparse.linalg` and `scipy.linalg` with it, about 8 MiB of resident
memory in every process, for one kernel.
"""

from __future__ import annotations

import numpy as np
from scipy import sparse
from scipy.sparse import _sparsetools

from ..model import OptProblem
from .base import Solution, SolverError, Status, load_extension

_superlu = load_extension("scipy.sparse.linalg._dsolve._superlu")

_EPS_TARGET = 1e-9  # interior-point stopping (scaled residuals and gap)
_EPS_FINAL = 1e-6   # contract: KKT residual at acceptance
_DELTA = 1e-9       # static regularization of the augmented system
_MAX_IPM_ITERS = 200

_memo: _System | None = None  # the constraint system of the last QpContext


class QpContext:
    """Reusable solve context: scaling and row fabric for one constraint matrix."""

    def __init__(self, problem: OptProblem):
        if not problem.has_quad:
            raise ValueError("problem has no quadratic objective; use solve_lp")
        if problem.is_mip:
            raise ValueError("problem has integrality flags; use solve_mip")
        self.problem = problem
        self.q0 = problem.obj_linear.astype(float)

        # Stack constraint rows and finite-bound identity rows into l <= Ax <= u.
        is_eq = problem.sense == "E"
        lo_rows = np.where(is_eq, problem.rhs, -np.inf)
        up_rows = problem.rhs.astype(float)
        bounded = np.flatnonzero((problem.lower != -np.inf) | (problem.upper != np.inf))
        if problem.a.shape[0] + bounded.size == 0:
            raise ValueError("problem has no constraint rows and no finite bounds")
        self.system = _system(problem.a.tocsr(), problem.obj_quad, bounded)
        self.a0, self.p_diag0 = self.system.a0, self.system.p_diag0
        self.d, self.e, self.a_s = self.system.d, self.system.e, self.system.a_s
        self.l0 = np.concatenate([lo_rows, problem.lower[bounded]])
        self.u0 = np.concatenate([up_rows, problem.upper[bounded]])
        self.bounded = bounded
        self.m, self.nv = self.a0.shape

        # Cost normalization on top of the system's Ruiz scaling.
        p = self.system.p
        q = (self.q0 * self.d).astype(float)
        cost = max(np.abs(p).mean(), np.abs(q).max())
        self.c = 1.0 / min(max(cost, 1e-6), 1e6)
        self.p_s = self.c * p
        self.q_s = self.c * q
        self.l_s = self.l0 * self.e
        self.u_s = self.u0 * self.e

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
        ax = (self.a_s @ x_s) / self.e
        px = self.p_diag0 * x
        aty = self.a0.T @ y
        r_prim = np.max(np.abs(ax - z))
        r_dual = np.max(np.abs(px + self.q0 + aty))
        s_prim = max(np.max(np.abs(ax)), np.max(np.abs(z)), 1e-12)
        s_dual = max(np.max(np.abs(px)), np.max(np.abs(aty)), np.max(np.abs(self.q0)), 1e-12)
        eq = lo == up
        finite_u, finite_l = up != np.inf, lo != -np.inf
        rel_u = np.ones(self.m)
        rel_u[finite_u] = np.minimum(1.0, (up[finite_u] - ax[finite_u]) / (1.0 + np.abs(up[finite_u])))
        rel_l = np.ones(self.m)
        rel_l[finite_l] = np.minimum(1.0, (ax[finite_l] - lo[finite_l]) / (1.0 + np.abs(lo[finite_l])))
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

    def _scaled_bounds(self, lower: np.ndarray | None = None, upper: np.ndarray | None = None):
        """Scaled row bounds (l_s, u_s) under the variable bounds of a node,
        given both or neither; neither keeps the problem's own."""
        if lower is None:
            return self.l_s, self.u_s
        nb = self.problem.a.shape[0]
        l_s = self.l_s.copy()
        u_s = self.u_s.copy()
        l_s[nb:] = lower[self.bounded] * self.e[nb:]
        u_s[nb:] = upper[self.bounded] * self.e[nb:]
        return l_s, u_s

    def solve(self, lower: np.ndarray | None = None, upper: np.ndarray | None = None) -> Solution:
        l_s, u_s = self._scaled_bounds(lower, upper)
        x_s, y_row, status, iters = self._ipm(l_s, u_s)
        z_s = np.clip(self.a_s @ x_s, l_s, u_s)
        if status in (Status.INFEASIBLE, Status.UNBOUNDED):
            return Solution(status, None, np.nan, iters)
        ok = self._acceptable(x_s, y_row, z_s, l_s / self.e, u_s / self.e)
        xu = self.d * x_s
        obj = float(self.q0 @ xu + 0.5 * (self.p_diag0 * xu) @ xu)
        return Solution(
            status=Status.OPTIMAL if ok else Status.ITERATION_LIMIT,
            x=xu,
            objective=obj,
            iterations=iters,
        )

    def _ipm(self, l_s: np.ndarray, u_s: np.ndarray):
        """Mehrotra predictor-corrector on the scaled problem.

        Returns (x, row-space duals, status, iterations); the row-space dual
        of a two-sided row is the upper multiplier minus the lower one.
        """
        nv = self.nv
        p, q = self.p_s, self.q_s
        eq = l_s == u_s
        up = ~eq & (u_s != np.inf)
        lo = ~eq & (l_s != -np.inf)
        part = self.system.partition(eq, up, lo)
        b_eq = u_s[eq]
        cap = np.concatenate([u_s[up], -l_s[lo]])
        # An empty block is a zero-length vector: its products are zero, its
        # maxima 0 and its step length 1.
        m_in = part.m_in
        a_eq, a_eq_t, a_in, a_in_t = part.a_eq, part.a_eq_t, part.a_in, part.a_in_t
        kkt = _Kkt(part, p)

        x = np.zeros(nv)
        y = np.zeros(part.m_eq)
        s = np.maximum(cap - a_in(x), 1.0)
        z = np.ones(m_in)
        rhs = np.empty(part.size)  # the augmented right-hand side, rewritten in place

        status = Status.ITERATION_LIMIT
        it = 0
        for it in range(1, _MAX_IPM_ITERS + 1):
            r_d = p * x + q + a_eq_t(y) + a_in_t(z)
            r_eq = a_eq(x) - b_eq
            r_in = a_in(x) + s - cap
            mu = float(s @ z) / max(m_in, 1)
            prim = max(np.abs(r_eq).max(initial=0.0), np.abs(r_in).max(initial=0.0))
            dual = np.abs(r_d).max()
            x_max = np.abs(x).max()
            scale = 1.0 + max(x_max, np.abs(z).max(initial=0.0), np.abs(y).max(initial=0.0))
            if prim <= _EPS_TARGET * scale and dual <= _EPS_TARGET * scale and mu <= _EPS_TARGET * scale:
                status = Status.OPTIMAL
                break
            if z.max(initial=0.0) > 1e12 or s.max(initial=0.0) > 1e14:
                status = Status.INFEASIBLE
                break
            if x_max > 1e14:
                status = Status.UNBOUNDED
                break

            s_safe = np.maximum(s, 1e-300)
            w = np.minimum(np.maximum(z / s_safe, 1e-12), 1e16)
            try:
                solve = kkt.factor(w)
            except RuntimeError as exc:  # a pivot is exactly zero
                raise SolverError(f"KKT matrix singular at interior-point iteration {it}") from exc
            zr, sz = z * r_in, s * z
            neg_rd, neg_rin = -r_d, -r_in
            np.negative(r_eq, out=rhs[nv:])

            def direction(rc):
                # Eliminate ds, dz; solve the augmented system for dx, dy.
                tmp = (zr - rc) / s_safe
                np.subtract(neg_rd, a_in_t(tmp), out=rhs[:nv])
                out = solve(rhs)
                dx, dy = out[:nv], out[nv:]
                ds = neg_rin - a_in(dx)
                dz = -(rc + z * ds) / s_safe
                return dx, dy, ds, dz

            # Affine (predictor) direction, then the centered corrector.
            dx_a, dy_a, ds_a, dz_a = direction(sz)
            alpha_p = _step_len(s, ds_a)
            alpha_d = _step_len(z, dz_a)
            mu_aff = float((s + alpha_p * ds_a) @ (z + alpha_d * dz_a)) / max(m_in, 1)
            sigma = min(max((mu_aff / max(mu, 1e-300)) ** 3, 1e-8), 1.0)
            rc = sz + ds_a * dz_a - sigma * mu
            dx, dy, ds, dz = direction(rc)
            alpha_p = min(1.0, 0.99995 * _step_len(s, ds))
            alpha_d = min(1.0, 0.99995 * _step_len(z, dz))
            x = x + alpha_p * dx
            s = s + alpha_p * ds
            y = y + alpha_d * dy
            z = z + alpha_d * dz

        # Scatter inequality duals back to signed row-space multipliers.
        y_row = np.zeros(self.m)
        y_row[eq] = y
        y_row[up] += z[: part.n_up]
        y_row[lo] -= z[part.n_up :]
        return x, y_row, status, it


def _same(x: np.ndarray, y: np.ndarray) -> bool:
    """Bitwise equality: 0.0 and -0.0 differ, as they can in the iterates."""
    return x.dtype == y.dtype and x.shape == y.shape and x.tobytes() == y.tobytes()


def _freeze(*items: np.ndarray | sparse.spmatrix) -> None:
    """Make arrays, and the arrays of sparse matrices, read-only."""
    for item in items:
        for a in (item.data, item.indices, item.indptr) if sparse.issparse(item) else (item,):
            a.flags.writeable = False


def _matvec(a: sparse.csr_matrix | sparse.csc_matrix):
    """x -> a @ x for a CSR or CSC matrix, by a direct call of the kernel
    `@` dispatches to: the same bits, without the dispatch cost per call."""
    kernel = _sparsetools.csr_matvec if a.format == "csr" else _sparsetools.csc_matvec
    (rows, cols), indptr, indices, data = a.shape, a.indptr, a.indices, a.data

    def matvec(x: np.ndarray) -> np.ndarray:
        out = np.zeros(rows)
        kernel(rows, cols, indptr, indices, data, x, out)
        return out

    return matvec


def _system(a: sparse.csr_matrix, quad: np.ndarray, bounded: np.ndarray) -> _System:
    """The memo's system if it is this one, else a new one that replaces it."""
    global _memo
    system = _memo
    if system is None or not system.matches(a, quad, bounded):
        system = _memo = None  # let the old entry go before the new one is built
        system = _memo = _System(a, quad, bounded)
    return system


class _System:
    """The cost-independent part of a QP: the stacked rows A0 (constraint
    rows, then one identity row per bounded column), their Ruiz scaling
    d, e with the scaled A_s = diag(e) A0 diag(d) and scaled P, and the
    row split of the last partition solved.  Every array is read-only."""

    def __init__(self, a: sparse.csr_matrix, quad: np.ndarray, bounded: np.ndarray):
        self.key = (a.shape, a.indptr.copy(), a.indices.copy(), a.data.copy(), quad.copy(), bounded.copy())
        eye = sparse.csr_matrix(
            (np.ones(bounded.size), (np.arange(bounded.size), bounded)),
            shape=(bounded.size, a.shape[1]),
        )
        # A new matrix, not `a`: freezing must not reach the caller's matrix.
        self.a0 = sparse.vstack([a, eye]).tocsr()
        self.p_diag0 = 2.0 * quad
        self._equilibrate()
        _freeze(*self.key[1:], self.a0, self.p_diag0, self.d, self.e, self.p, self.a_s)
        self._part: _Partition | None = None

    def matches(self, a: sparse.csr_matrix, quad: np.ndarray, bounded: np.ndarray) -> bool:
        shape, indptr, indices, data, q, b = self.key
        return (
            a.shape == shape
            and _same(a.indptr, indptr)
            and _same(a.indices, indices)
            and _same(a.data, data)
            and _same(quad, q)
            and _same(bounded, b)
        )

    def _equilibrate(self) -> None:
        """Ruiz scaling of the KKT block matrix.

        Works on the CSR data array: row and column maxima by
        `np.maximum.at`, scaling as (dr[row] * a) * dx[col], which is what
        the products diag(dr) @ a @ diag(dx) compute entry by entry.
        """
        m, nv = self.a0.shape
        rows = np.repeat(np.arange(m, dtype=np.int32), np.diff(self.a0.indptr))
        cols = self.a0.indices
        data = self.a0.data.astype(float)
        d = np.ones(nv)
        e = np.ones(m)
        p = self.p_diag0.copy()
        for _ in range(10):
            mag = np.abs(data)
            cnorm = np.abs(p)
            np.maximum.at(cnorm, cols, mag)
            rnorm = np.zeros(m)
            np.maximum.at(rnorm, rows, mag)
            dx = 1.0 / np.sqrt(np.maximum(cnorm, 1e-12))
            dr = 1.0 / np.sqrt(np.maximum(rnorm, 1e-12))
            dx[cnorm < 1e-12] = 1.0
            dr[rnorm < 1e-12] = 1.0
            p *= dx * dx
            data = (dr[rows] * data) * dx[cols]
            d *= dx
            e *= dr
        self.d, self.e, self.p = d, e, p
        self.a_s = sparse.csr_matrix((data, cols, self.a0.indptr), shape=self.a0.shape)

    def partition(self, eq: np.ndarray, up: np.ndarray, lo: np.ndarray) -> _Partition:
        """The row split for these masks, built when they differ from the last."""
        part = self._part
        if part is None or not all(map(_same, (eq, up, lo), part.masks)):
            part = self._part = None  # let the old split go before the new one is built
            part = self._part = _Partition(self.a_s, eq, up, lo)
        return part


class _Partition:
    """One split of the scaled rows into equalities A_eq and inequalities
    A_in (upper sides, then negated lower sides): the products x -> A x and
    y -> A' y of each, and the `_Pattern` of K for them.

    Entry K[j, k] of A_in' W A_in is the sum over rows r of
    w_r * a_rj * a_rk, so K's data is const + weight_map @ w for a sparse
    weight_map with one entry a_rj * a_rk per same-row nonzero pair (j, k)
    of A_in, in the row of K's data slot for (j, k) and the column r.  It
    is stored by columns, so the product adds each slot's terms in
    increasing r, and relabelling K's slots maps its row indices alone.  The
    rest of K is const: P + delta I, -delta I and A_eq, summed into the
    slots `const_slot` by `_Kkt` for each solve's scaled P.
    """

    def __init__(self, a_s: sparse.csr_matrix, eq: np.ndarray, up: np.ndarray, lo: np.ndarray):
        a_eq = a_s[eq]
        a_up = a_s[up]
        a_in = sparse.vstack([a_up, -a_s[lo]], format="csr")
        self.masks = (eq, up, lo)
        _freeze(a_eq, a_in, *self.masks)
        self.n_up = a_up.shape[0]
        self.m_eq, self.m_in = a_eq.shape[0], a_in.shape[0]
        self.a_eq, self.a_eq_t = _matvec(a_eq), _matvec(a_eq.T)
        self.a_in, self.a_in_t = _matvec(a_in), _matvec(a_in.T)

        nv = a_s.shape[1]
        self.size = size = nv + self.m_eq
        # Pair t couples nonzeros first[t] and second[t] of the same row.
        lens = np.diff(a_in.indptr).astype(np.int32)
        per = np.repeat(lens, lens)
        first = np.repeat(np.arange(a_in.nnz, dtype=np.int32), per)
        within = np.arange(first.size, dtype=np.int32) - np.repeat(np.cumsum(per) - per, per)
        second = np.repeat(np.repeat(a_in.indptr[:-1].astype(np.int32), lens), per) + within
        del per, within
        eq_coo = a_eq.tocoo()
        eq_row, eq_col = nv + eq_coo.row.astype(np.int64), eq_coo.col.astype(np.int64)
        # Entry (row, col) of K has the key col * size + row, its CSC order.
        key = np.concatenate(
            [
                a_in.indices[first].astype(np.int64) * size + a_in.indices[second],
                np.arange(size) * (size + 1),
                eq_row * size + eq_col,
                eq_col * size + eq_row,
            ]
        )
        keys, slot = np.unique(key, return_inverse=True)
        del key
        n_pair = first.size
        # Column r holds the pairs of row r, in pair order.
        pairs_before = np.zeros(a_in.shape[0] + 1, dtype=np.int32)
        np.cumsum(lens * lens, out=pairs_before[1:])
        weight_map = sparse.csc_matrix(
            (a_in.data[first] * a_in.data[second], slot[:n_pair].astype(np.int32), pairs_before),
            shape=(keys.size, a_in.shape[0]),
        )
        del first, second
        self.eq_data = eq_coo.data
        _freeze(self.eq_data)
        # In K's own labelling until the first factorization orders it.
        self.pattern = _Pattern(
            (keys % size).astype(np.intc),
            np.searchsorted(keys, np.arange(size + 1) * size).astype(np.intc),
            weight_map,
            slot[n_pair:].copy(),  # not a view that keeps every pair's slot
        )


class _Pattern:
    """K's CSC pattern under one labelling of its rows and columns, with the
    maps that fill its values: `const_slot` for the constant part and
    `weight_map` (through `refill`) for the weights.  `perm` is None for K's
    own labelling; otherwise row and column j of K carry the label perm[j],
    SuperLU's minimum-degree column permutation of K."""

    def __init__(self, indices, indptr, weight_map, const_slot, perm=None):
        self.indices, self.indptr, self.weight_map, self.const_slot = indices, indptr, weight_map, const_slot
        self.refill = _matvec(weight_map)
        self.perm = perm
        self.iperm = None if perm is None else np.argsort(perm).astype(np.intc)
        _freeze(*(a for a in (indices, indptr, weight_map, const_slot, perm, self.iperm) if a is not None))

    def ordered(self, perm: np.ndarray) -> _Pattern:
        """This pattern relabelled by perm.  Column perm[j] is column j with
        its row labels mapped through perm, in column j's own entry order:
        SuperLU then visits every entry as it did under the ordering and
        gives the same bits, where sorting the rows moved them."""
        iperm = np.argsort(perm)
        lens = np.diff(self.indptr)[iperm]
        indptr = np.zeros(lens.size + 1, dtype=np.intc)
        np.cumsum(lens, out=indptr[1:])
        src = np.repeat(self.indptr[iperm] - indptr[:-1], lens) + np.arange(indptr[-1], dtype=np.intc)
        dest = np.empty_like(src)
        dest[src] = np.arange(src.size, dtype=src.dtype)
        wm = self.weight_map  # relabelled by its row indices alone: data and indptr are shared
        return _Pattern(
            perm[self.indices[src]].astype(np.intc),
            indptr,
            sparse.csc_matrix((wm.data, dest[wm.indices], wm.indptr), shape=wm.shape),
            dest[self.const_slot],
            perm.copy(),
        )


# The options `splu(K, permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.1,
# options={"SymmetricMode": True})` passes to `gstrf`, the kernel it ends in.
# Its steps before that call (`sum_duplicates`, the float upcast and the index
# cast) change nothing on K: its pattern is sorted without duplicates by
# construction, its values are float64 and its index arrays `np.intc` already.
# A pattern relabelled by the ordering this finds is factored with the
# natural ordering and otherwise the same options: the ordering depends only
# on K's pattern, so it is computed once per partition, not per iteration.
_SUPERLU_OPTIONS = dict(DiagPivotThresh=0.1, ColPerm="MMD_AT_PLUS_A", PanelSize=None, Relax=None, SymmetricMode=True)
_SUPERLU_ORDERED = dict(_SUPERLU_OPTIONS, ColPerm="NATURAL")


class _Kkt:
    """K of one solve: a partition's pattern with the constant part at scaled P."""

    def __init__(self, part: _Partition, p: np.ndarray):
        self.const_values = np.concatenate([p + _DELTA, np.full(part.m_eq, -_DELTA), part.eq_data, part.eq_data])
        self.part = part
        self.pattern: _Pattern | None = None  # the pattern `const` is laid out for
        # The solve's own buffers: threads share the memo's partition, and
        # the one thing they write to it is its lazily set order (`factor`).
        self.data = np.empty(part.pattern.weight_map.shape[0])

    def factor(self, w: np.ndarray):
        """Factor K at inequality weights w; returns a solve function.

        The first factorization on a partition orders K and relabels the
        partition's pattern by that ordering; every later one, of this solve
        or of another on the same partition, factors the relabelled K in its
        natural order.  Threads on one partition may both order it: that is
        a single assignment of a value that depends only on K's pattern, so
        the race is benign.
        """
        part = self.part
        pattern = part.pattern  # read once: another thread may order it meanwhile
        if pattern is not self.pattern:
            self.pattern = pattern
            self.const = np.bincount(pattern.const_slot, weights=self.const_values, minlength=self.data.size)
        np.add(self.const, pattern.refill(w), out=self.data)
        # Diagonal pivots, unless one is below 10% of its column: a
        # delta-sized pivot (the equality row of a fixed variable) taken early
        # loses the digits of the variable's own diagonal, and lower
        # thresholds leave more ill-conditioned solves at the iteration cap.
        options = _SUPERLU_OPTIONS if pattern.perm is None else _SUPERLU_ORDERED
        lu = _superlu.gstrf(part.size, self.data.size, self.data, pattern.indices, pattern.indptr,
                            csc_construct_func=sparse.csc_array, ilu=False, options=options)
        if pattern.perm is None:
            part.pattern = pattern.ordered(lu.perm_c)
            return lu.solve
        perm, iperm = pattern.perm, pattern.iperm
        return lambda b: lu.solve(b[iperm])[perm]


def _step_len(v: np.ndarray, dv: np.ndarray) -> float:
    neg = dv < 0
    return min(1.0, -float((v[neg] / dv[neg]).max(initial=-np.inf)))


def solve_qp(problem: OptProblem) -> Solution:
    """Solve a convex diagonal QP to KKT residual 1e-6 (deterministic).

    Raises ValueError for a problem with no constraint rows and no finite
    variable bounds."""
    return QpContext(problem).solve()
