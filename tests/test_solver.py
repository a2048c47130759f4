import hashlib
import sys
import threading
import weakref
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import sparse
from scipy.optimize import linprog
from scipy.optimize._highspy import _core
from scipy.sparse.linalg import splu

from cqreg import (
    ALL_PAIRS,
    Dataset,
    EstimatorSpec,
    L0Penalty,
    L1Penalty,
    OptProblem,
    SolverError,
    Status,
    add_l0,
    add_l1,
    add_l1_budget,
    anchor_big_m,
    build_cer,
    build_cqr,
    export_mps,
    fit,
    kfold_split,
    l0_oracle,
    solve_lp,
    solve_mip,
    solve_qp,
)
from cqreg.cuts import initial_constraints, separate
from cqreg.model import afriat_rows, extract_fit
from cqreg.solver import bnb, qp
from cqreg.solver import lp as lp_module
from cqreg.solver.lp import LpSession
from cqreg.solver.mps import _names
from tests.conftest import make_instance, run_fresh


def lp(c, rows, sense, rhs, lower=None, upper=None, quad=None, integer=None):
    c = np.asarray(c, dtype=float)
    nv = c.shape[0]
    a = sparse.csr_matrix(np.asarray(rows, dtype=float).reshape(-1, nv))
    return OptProblem(
        obj_linear=c,
        obj_quad=None if quad is None else np.asarray(quad, dtype=float),
        a=a,
        sense=np.asarray(list(sense)),
        rhs=np.asarray(rhs, dtype=float),
        lower=np.full(nv, -np.inf) if lower is None else np.asarray(lower, dtype=float),
        upper=np.full(nv, np.inf) if upper is None else np.asarray(upper, dtype=float),
        integer=np.zeros(nv, dtype=bool) if integer is None else np.asarray(integer, dtype=bool),
    )


class TestSolveLp:
    def test_simple_minimum(self):
        # min x s.t. x >= 3  (as -x <= -3)
        sol = solve_lp(lp([1.0], [[-1.0]], "L", [-3.0]))
        assert sol.status is Status.OPTIMAL
        assert sol.x[0] == pytest.approx(3.0)
        assert sol.objective == pytest.approx(3.0)

    def test_infeasible_pair(self):
        # x <= 0 and x >= 1
        sol = solve_lp(lp([1.0], [[1.0], [-1.0]], "LL", [0.0, -1.0]))
        assert sol.status is Status.INFEASIBLE

    def test_unbounded(self):
        sol = solve_lp(lp([-1.0], [[-1.0]], "L", [0.0]))
        assert sol.status is Status.UNBOUNDED

    def test_noiseless_cqr_zero_objective(self):
        x = np.array([[1.0], [2.0], [3.0]])
        ds = Dataset(x, 2.0 * x.ravel())
        sol = solve_lp(build_cqr(ds, 0.5, ALL_PAIRS))
        assert sol.objective == pytest.approx(0.0, abs=1e-9)

    @pytest.mark.parametrize("seed", range(5))
    def test_duality_gap(self, seed):
        ds = make_instance(10, 2, seed=seed)
        session = LpSession(build_cqr(ds, 0.7, ALL_PAIRS))
        sol = session.solve()
        assert sol.status is Status.OPTIMAL
        assert session.dual_objective() == pytest.approx(sol.objective, abs=1e-6)

    @settings(max_examples=40)
    @given(
        n=st.integers(4, 24),
        d=st.integers(1, 4),
        seed=st.integers(0, 10_000),
        level=st.floats(0.05, 0.95),
        lam=st.one_of(st.none(), st.floats(1e-3, 1.0)),
    )
    def test_duality_gap_is_closed(self, n, d, seed, level, lam):
        problem = build_cqr(make_instance(n, d, seed=seed), level, ALL_PAIRS)
        if lam is not None:
            problem = add_l1(problem, L1Penalty(lam))
        session = LpSession(problem)
        sol = session.solve()
        assert sol.status is Status.OPTIMAL
        assert abs(session.dual_objective() - sol.objective) <= 1e-9 * (1.0 + abs(sol.objective))

    def test_rejects_quadratic(self):
        ds = make_instance(4, 1)
        with pytest.raises(ValueError):
            solve_lp(build_cer(ds, 0.5, ALL_PAIRS))

    def test_determinism(self):
        ds = make_instance(15, 3, seed=4)
        a = solve_lp(build_cqr(ds, 0.9, ALL_PAIRS))
        b = solve_lp(build_cqr(ds, 0.9, ALL_PAIRS))
        assert a.objective == b.objective
        assert np.array_equal(a.x, b.x)


def _rows_of_one_sense(problem: OptProblem, sense: str) -> OptProblem:
    """The LP with rows of one sense only: "L" writes each equality as two
    `<=` rows, "E" drops the `<=` rows."""
    eq = problem.sense == "E"
    if sense == "E":
        a, rhs = problem.a[eq], problem.rhs[eq]
    else:
        a = sparse.vstack([problem.a[~eq], problem.a[eq], -problem.a[eq]], format="csr")
        rhs = np.concatenate([problem.rhs[~eq], problem.rhs[eq], -problem.rhs[eq]])
    return replace(problem, a=a, sense=np.full(a.shape[0], sense), rhs=rhs)


class TestLpSession:
    @pytest.mark.parametrize("first", ["cqreg", "scipy.optimize"])
    def test_highs_bindings_loaded_once(self, first):
        # cqreg loads HiGHS's bindings from their file; whichever of it and
        # scipy.optimize comes first, both must hold one module object, and
        # linprog must still solve through it.
        code = f"""
import sys
import {first}
import cqreg.solver.lp as lp
from scipy.optimize import linprog
from scipy.optimize._highspy import _core
assert _core is lp._core is sys.modules["scipy.optimize._highspy._core"]
res = linprog([1.0, 2.0], A_ub=[[-1.0, -1.0]], b_ub=[-1.0])
print(res.status, res.x.tolist(), res.fun)
"""
        assert run_fresh(code).split() == ["0", "[1.0,", "0.0]", "1.0"]

    @pytest.mark.parametrize("first", ["cqreg", "scipy.sparse.linalg"])
    def test_superlu_loaded_once(self, first):
        # The IPM loads SuperLU's kernel module from its file; whichever of
        # cqreg and scipy.sparse.linalg comes first, both must hold one module
        # object, and splu must still solve through it.
        code = f"""
import sys
import {first}
import cqreg.solver.qp as qp
import numpy as np
from scipy.sparse import csc_array
from scipy.sparse.linalg import splu
from scipy.sparse.linalg._dsolve import _superlu
assert _superlu is qp._superlu is sys.modules["scipy.sparse.linalg._dsolve._superlu"]
print(splu(csc_array([[2.0, 1.0], [1.0, 3.0]])).solve(np.array([3.0, 4.0])).tolist())
"""
        assert run_fresh(code).split() == ["[1.0,", "1.0]"]

    def test_highs_bindings_present(self):
        # Private scipy API the session is built on; a scipy that drops any
        # of it fails here rather than at the first fit.
        used = {
            _core: ("_Highs", "MatrixFormat", "ObjSense", "HighsModelStatus", "HighsStatus"),
            _core._Highs: (
                "passModel",
                "addRows",
                "changeColsBounds",
                "clearSolver",
                "run",
                "setOptionValue",
                "getModelStatus",
                "modelStatusToString",
                "getInfo",
                "getSolution",
                "getBasicVariables",
            ),
            _core.MatrixFormat: ("kRowwise",),
            _core.ObjSense: ("kMinimize",),
            _core.HighsStatus: ("kError",),
            _core.HighsModelStatus: ("kOptimal", "kIterationLimit", "kInfeasible", "kUnbounded"),
            lp_module._sparsetools: ("csr_row_index",),
        }
        missing = [name for owner, names in used.items() for name in names if not hasattr(owner, name)]
        assert missing == []

    @pytest.mark.parametrize("seed", range(3))
    def test_reordered_csr_arrays_match_scipy(self, seed):
        # Any row order, not only the `<=`-rows-first one the builders give.
        rng = np.random.default_rng(seed)
        a = sparse.random(40, 25, density=0.2, format="csr", random_state=rng)
        order = rng.permutation(40)
        want = a[order]
        for got, ref in zip(lp_module._csr_of_rows(a, order), (want.indptr, want.indices, want.data)):
            assert got.dtype == ref.dtype
            assert got.tobytes() == ref.tobytes()

    def test_array_load_solves_as_the_highs_lp_load(self, small_noisy):
        # The row-wise arrays a session passes to passModel, and a HighsLp
        # filled field by field with the column-wise matrix `linprog` passes,
        # load one model: every bit of the solve agrees.
        cqr = build_cqr(small_noisy, 0.5, ALL_PAIRS)
        for problem in (cqr, add_l1(cqr, L1Penalty(0.1))):
            is_eq = problem.sense == "E"
            order = np.argsort(is_eq, kind="stable")
            csc = sparse.csc_array(problem.a.tocsr()[order])
            rhs = problem.rhs[order]
            lp = _core.HighsLp()
            lp.num_col_, lp.num_row_ = problem.n_vars, problem.n_rows
            lp.a_matrix_.num_col_, lp.a_matrix_.num_row_ = problem.n_vars, problem.n_rows
            lp.a_matrix_.format_ = _core.MatrixFormat.kColwise
            lp.a_matrix_.start_, lp.a_matrix_.index_, lp.a_matrix_.value_ = csc.indptr, csc.indices, csc.data
            lp.col_cost_, lp.col_lower_, lp.col_upper_ = problem.obj_linear, problem.lower, problem.upper
            lp.row_lower_, lp.row_upper_ = np.where(is_eq[order], rhs, -np.inf), rhs
            reference = _core._Highs()
            for key, option in lp_module._OPTIONS:
                reference.setOptionValue(key, option)
            assert reference.passModel(lp) != _core.HighsStatus.kError
            results = []
            for highs in (reference, LpSession(problem)._highs):
                highs.run()
                solution = highs.getSolution()
                results.append(
                    (
                        highs.getModelStatus(),
                        highs.getInfo().objective_function_value,
                        highs.getInfo().simplex_iteration_count,
                        *(np.array(v).tobytes() for v in (solution.col_value, solution.col_dual, solution.row_dual)),
                        np.asarray(highs.getBasicVariables()[1]).tobytes(),
                    )
                )
            assert results[0][0] == _core.HighsModelStatus.kOptimal
            assert results[1] == results[0]

    @pytest.mark.parametrize("instance", ["small_noisy", "noiseless_linear", "le_rows_only", "eq_rows_only"])
    @pytest.mark.parametrize("lam", [None, 0.1])
    def test_cold_solve_matches_linprog(self, request, small_noisy, instance, lam):
        one_sense = {"le_rows_only": "L", "eq_rows_only": "E"}
        if instance in one_sense:
            # One block has no rows; HiGHS and linprog both get it as 0-row.
            problem = _rows_of_one_sense(build_cqr(small_noisy, 0.5, ALL_PAIRS), one_sense[instance])
        else:
            problem = build_cqr(request.getfixturevalue(instance), 0.5, ALL_PAIRS)
        if lam is not None:
            problem = add_l1(problem, L1Penalty(lam))
        # linprog's split: the `<=` rows and the `=` rows, either possibly 0-row.
        is_eq = problem.sense == "E"
        a = problem.a.tocsr()
        a_ub, b_ub, a_eq, b_eq = a[~is_eq], problem.rhs[~is_eq], a[is_eq], problem.rhs[is_eq]
        assert (a_ub.shape[0] == 0) == (instance == "eq_rows_only")
        assert (a_eq.shape[0] == 0) == (instance == "le_rows_only")
        ref = linprog(
            problem.obj_linear,
            A_ub=a_ub,
            b_ub=b_ub,
            A_eq=a_eq,
            b_eq=b_eq,
            bounds=list(zip(problem.lower, problem.upper)),
            method="highs",
            options={"maxiter": 100_000},
        )
        sol = solve_lp(problem)
        assert np.array_equal(sol.x, ref.x)
        assert sol.objective == ref.fun
        assert sol.iterations == ref.nit

    @pytest.mark.parametrize("seed", range(3))
    def test_resolve_after_add_rows_matches_cold(self, seed):
        ds = make_instance(30, 3, seed=seed)
        base = add_l1(build_cqr(ds, 0.5, initial_constraints(ds)), L1Penalty(0.1))
        session = LpSession(base)
        first = extract_fit(base, ds, session.solve())
        new = [(i, m) for i, m, _ in separate(first, ds, 1e-6)]
        assert new
        session.add_rows(*afriat_rows(ds, new), np.zeros(len(new)))
        hot = session.solve()
        cold = solve_lp(add_l1(build_cqr(ds, 0.5, initial_constraints(ds) + new), L1Penalty(0.1)))
        assert hot.status is Status.OPTIMAL
        assert hot.objective == pytest.approx(cold.objective, abs=1e-9)
        assert session.dual_objective() == pytest.approx(hot.objective, abs=1e-6)

    def test_duals_are_read_only_after_an_optimal_solve_of_the_current_model(self):
        ds = make_instance(12, 2, seed=0)
        session = LpSession(build_cqr(ds, 0.5, initial_constraints(ds)))
        with pytest.raises(SolverError, match="no optimal solve"):
            session.dual_objective()
        assert session.solve().optimal
        session.min_nonbasic_dual()
        session.add_rows(*afriat_rows(ds, [(0, 1)]), np.zeros(1))
        with pytest.raises(SolverError, match="no optimal solve"):
            session.min_nonbasic_dual()

    @pytest.mark.parametrize("seed", range(3))
    def test_new_bounds_after_add_rows_is_a_cold_solve(self, seed):
        # Solves after add_rows price with Devex; a solve with bounds must
        # bring back the cold solve's pricing.  With every row a `<=` row,
        # the appended rows sit last in the session as in a fresh session of
        # the stacked model.  They are appended before the session's first
        # solve: one solved before moves the later cold solve's x in its last
        # bits, with either pricing.
        ds = make_instance(30, 3, seed=seed)
        base = _rows_of_one_sense(add_l1(build_cqr(ds, 0.5, initial_constraints(ds)), L1Penalty(0.1)), "L")
        first = extract_fit(base, ds, solve_lp(base))
        new = [(i, m) for i, m, _ in separate(first, ds, 1e-6)]
        rows = afriat_rows(ds, new)
        session = LpSession(base)
        session.add_rows(*rows, np.zeros(len(new)))
        assert session.solve().optimal
        lower, upper = base.lower.copy(), base.upper.copy()
        upper[base.layout.beta_all()] = 2.0
        got = session.solve(lower, upper)
        stacked = replace(
            base,
            a=sparse.vstack([base.a, sparse.csr_matrix(rows[::-1], shape=(len(new), base.n_vars))], format="csr"),
            sense=np.full(base.n_rows + len(new), "L"),
            rhs=np.concatenate([base.rhs, np.zeros(len(new))]),
            lower=lower,
            upper=upper,
        )
        fresh = LpSession(stacked)
        want = fresh.solve()
        assert got.status is want.status is Status.OPTIMAL
        assert got.iterations == want.iterations
        assert np.array_equal(got.x, want.x)
        assert got.objective == want.objective
        assert session.dual_objective() == fresh.dual_objective()

    def test_new_bounds_resolve_matches_fresh_session(self, small_noisy):
        problem = add_l0(build_cqr(small_noisy, 0.5, ALL_PAIRS), L0Penalty(2, 5.0))
        relaxed = replace(problem, integer=np.zeros(problem.n_vars, dtype=bool))
        z = np.flatnonzero(problem.integer)
        rng = np.random.default_rng(0)
        # Free (-1), excluded (0) or selected (1) per selector; all three
        # selected breaks the cardinality row (k = 2), so that node is
        # infeasible and the feasible one after it must not see it.
        fixings = [rng.integers(-1, 2, size=z.size) for _ in range(12)]
        fixings[4:6] = [np.ones(z.size, dtype=int), np.array([1, 0, -1])]
        session = LpSession(relaxed)
        statuses = []
        for fixed in fixings:
            lower, upper = problem.lower.copy(), problem.upper.copy()
            lower[z[fixed == 1]] = 1.0
            upper[z[fixed == 0]] = 0.0
            got = session.solve(lower, upper)
            fresh = LpSession(replace(relaxed, lower=lower, upper=upper))
            want = fresh.solve()
            statuses.append(got.status)
            assert got.status is want.status
            assert got.iterations == want.iterations
            if want.optimal:
                assert np.array_equal(got.x, want.x)
                assert got.objective == want.objective
                assert session.dual_objective() == fresh.dual_objective()
        assert statuses[4:6] == [Status.INFEASIBLE, Status.OPTIMAL]


@pytest.mark.parametrize(
    "model, problem, message",
    [
        ("lp", "l0-cqr", "integrality flags; use solve_mip"),
        ("lp", "cer", "quadratic objective; use solve_qp"),
        ("qp", "cqr", "no quadratic objective; use solve_lp"),
        ("qp", "l0-cer", "integrality flags; use solve_mip"),
    ],
)
def test_model_object_rejects_the_wrong_problem_kind(model, problem, message):
    ds = make_instance(6, 2, seed=0)
    build = build_cer if problem.endswith("cer") else build_cqr
    built = build(ds, 0.5, ALL_PAIRS)
    if problem.startswith("l0"):
        built = add_l0(built, L0Penalty(1, 5.0))
    with pytest.raises(ValueError, match=message):
        (LpSession if model == "lp" else qp.QpContext)(built)


class TestSolveQp:
    def test_parabola_with_bound(self):
        # min (x-1)^2 s.t. x >= 0  ->  x = 1
        problem = lp([-2.0], [[1.0]], "L", [10.0], lower=[0.0], quad=[1.0])
        sol = solve_qp(problem)
        assert sol.status is Status.OPTIMAL
        assert sol.x[0] == pytest.approx(1.0, abs=1e-6)

    def test_residual_split(self):
        # min 0.5 ep^2 + 0.5 en^2 s.t. ep - en = 3, both >= 0.
        problem = lp(
            [0.0, 0.0],
            [[1.0, -1.0]],
            "E",
            [3.0],
            lower=[0.0, 0.0],
            quad=[0.5, 0.5],
        )
        sol = solve_qp(problem)
        assert sol.x[0] == pytest.approx(3.0, abs=1e-5)
        assert sol.x[1] == pytest.approx(0.0, abs=1e-5)

    def test_symmetric_expectile_equals_half_least_squares(self, small_noisy):
        cer = solve_qp(build_cer(small_noisy, 0.5, ALL_PAIRS))
        base = build_cer(small_noisy, 0.5, ALL_PAIRS)
        ls = OptProblem(
            base.obj_linear,
            np.where(base.obj_quad > 0, 1.0, 0.0),
            base.a,
            base.sense,
            base.rhs,
            base.lower,
            base.upper,
            base.integer,
            base.layout,
        )
        ls_sol = solve_qp(ls)
        assert cer.objective == pytest.approx(0.5 * ls_sol.objective, abs=1e-6)

    def test_objective_unique_across_solves(self, small_noisy):
        a = solve_qp(build_cer(small_noisy, 0.8, ALL_PAIRS))
        b = solve_qp(build_cer(small_noisy, 0.8, ALL_PAIRS))
        assert abs(a.objective - b.objective) <= 1e-8
        lay = build_cer(small_noisy, 0.8, ALL_PAIRS).layout
        assert np.max(np.abs(a.x[lay.yhat()] - b.x[lay.yhat()])) <= 1e-4

    def test_infeasible_detected(self):
        problem = lp(
            [0.0],
            [[1.0], [-1.0]],
            "LL",
            [0.0, -1.0],
            quad=[1.0],
        )
        sol = solve_qp(problem)
        assert sol.status is Status.INFEASIBLE

    def test_equality_rows_and_free_columns(self):
        # No inequality row at all: min 0.5 x0^2 + x1^2 + x2^2 - x0 - 2 x2
        # s.t. x0 + x1 = 3, x1 - x2 = 1; the optimum is x = (1.8, 1.2, 0.2).
        problem = lp(
            [-1.0, 0.0, -2.0],
            [[1.0, 1.0, 0.0], [0.0, 1.0, -1.0]],
            "EE",
            [3.0, 1.0],
            quad=[0.5, 1.0, 1.0],
        )
        ctx = qp.QpContext(problem)
        sol = ctx.solve()
        assert sol.status is Status.OPTIMAL
        assert _kkt_residual(ctx) <= 1e-6
        assert np.allclose(sol.x, [1.8, 1.2, 0.2], rtol=0, atol=1e-6)

    def test_problem_without_rows_or_bounds_is_rejected(self):
        problem = lp([1.0, -1.0], np.zeros((0, 2)), "", [], quad=[1.0, 1.0])
        with pytest.raises(ValueError, match="no constraint rows and no finite bounds"):
            solve_qp(problem)


def _colmax(a: sparse.spmatrix) -> np.ndarray:
    m = np.abs(a).max(axis=0)
    return np.asarray(m.todense()).ravel() if sparse.issparse(m) else np.asarray(m).ravel()


def _rowmax(a: sparse.spmatrix) -> np.ndarray:
    m = np.abs(a).max(axis=1)
    return np.asarray(m.todense()).ravel() if sparse.issparse(m) else np.asarray(m).ravel()


def _ruiz_by_sparse_products(ctx):
    """Reference Ruiz equilibration of a QpContext's stacked rows through
    sparse diagonal products and scipy row/column maxima: (d, e, c, a_s)."""
    d = np.ones(ctx.nv)
    e = np.ones(ctx.m)
    p = ctx.p_diag0.copy()
    a = ctx.a0.astype(float).copy()
    for _ in range(10):
        cnorm = np.maximum(np.abs(p), _colmax(a))
        rnorm = _rowmax(a)
        dx = 1.0 / np.sqrt(np.maximum(cnorm, 1e-12))
        dr = 1.0 / np.sqrt(np.maximum(rnorm, 1e-12))
        dx[cnorm < 1e-12] = 1.0
        dr[rnorm < 1e-12] = 1.0
        p *= dx * dx
        a = sparse.diags(dr) @ a @ sparse.diags(dx)
        d *= dx
        e *= dr
    q = ctx.q0 * d
    cost = max(np.abs(p).mean(), np.abs(q).max())
    c = 1.0 / min(max(cost, 1e-6), 1e6)
    return d, e, c, a.tocsr()


def _step_len_by_min(v, dv):
    """Reference step length: the least -v / dv over the negative directions,
    capped at 1, in the form the IPM computed it before."""
    neg = dv < 0
    return float(min(1.0, np.min(-v[neg] / dv[neg], initial=np.inf)))


def _clip_weights(z_over_s):
    """Reference clip of the KKT weights to [1e-12, 1e16] by `np.clip`."""
    return np.clip(z_over_s, 1e-12, 1e16)


def _clip_sigma(ratio_cubed):
    """Reference clip of the centering parameter to [1e-8, 1] by `np.clip`."""
    return np.clip(ratio_cubed, 1e-8, 1.0)


def _extreme_vectors(rng, size):
    """Seeded vectors with signs, magnitudes from 1e-300 to 1e300, +-0.0 and
    subnormals."""
    v = rng.choice([-1.0, 1.0], size=size) * 10.0 ** rng.uniform(-300, 300, size=size)
    special = np.array([0.0, -0.0, 5e-324, -5e-324, 1e-310, -2.5e-315, 1e-300, 1e300])
    idx = rng.choice(size, size=size // 3, replace=False)
    v[idx] = rng.choice(special, size=idx.size)
    return v


def _relaxed_l0_cer(ds, level, k):
    problem = add_l0(build_cer(ds, level, ALL_PAIRS), L0Penalty(k, 5.0))
    return problem, replace(problem, integer=np.zeros(problem.n_vars, dtype=bool))


def _sample_solve(case: int):
    """Case `case` of a seeded sample of small solves: CER, L1-CER, or a
    relaxed L0-CER node with some selectors fixed, in turn."""
    rng = np.random.default_rng(case)
    n, d, seed = int(rng.integers(3, 13)), int(rng.integers(1, 4)), int(rng.integers(0, 10_000))
    level = float(rng.uniform(0.1, 0.9))
    problem = build_cer(make_instance(n, d, seed=seed), level, ALL_PAIRS)
    if case % 3 == 0:
        return qp.QpContext(problem).solve()
    if case % 3 == 1:
        return qp.QpContext(add_l1(problem, L1Penalty(float(10 ** rng.uniform(-3, 0))))).solve()
    fixed = rng.choice([-1, 0, 1], size=d)
    problem = add_l0(problem, L0Penalty(max(1, int((fixed == 1).sum())), 5.0))
    relaxed = replace(problem, integer=np.zeros(problem.n_vars, dtype=bool))
    lower, upper = problem.lower.copy(), problem.upper.copy()
    for j, v in zip(np.flatnonzero(problem.integer), fixed):
        if v >= 0:
            lower[j] = upper[j] = float(v)
    return qp.QpContext(relaxed).solve(lower, upper)


def _kkt_residual(ctx, lower=None, upper=None) -> float:
    """Largest unscaled primal, dual and sign residual of the IPM's point
    under the given variable bounds."""
    l_s, u_s = ctx._scaled_bounds(lower, upper)
    x_s, y_row, _, _ = ctx._ipm(l_s, u_s)
    z_s = np.clip(ctx.a_s @ x_s, l_s, u_s)
    r_prim, r_dual, r_sign, _, _ = ctx._residuals(x_s, y_row, z_s, l_s / ctx.e, u_s / ctx.e)
    return max(r_prim, r_dual, r_sign)


class TestQpContext:
    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("kind", ["cer", "l1-cer", "l0-cer-relaxed"])
    def test_equilibration_matches_sparse_products(self, kind, seed):
        ds = make_instance(15, 3, seed=seed)
        if kind == "cer":
            problem = build_cer(ds, 0.3, ALL_PAIRS)
        elif kind == "l1-cer":
            problem = add_l1(build_cer(ds, 0.5, ALL_PAIRS), L1Penalty(0.05))
        else:
            _, problem = _relaxed_l0_cer(ds, 0.5, 2)
        ctx = qp.QpContext(problem)
        d, e, c, a_s = _ruiz_by_sparse_products(ctx)
        assert np.array_equal(ctx.d, d)
        assert np.array_equal(ctx.e, e)
        assert ctx.c == c
        assert np.array_equal(ctx.a_s.toarray(), a_s.toarray())

    @settings(max_examples=25)
    @given(
        n=st.integers(3, 12),
        d=st.integers(1, 3),
        seed=st.integers(0, 10_000),
        level=st.floats(0.1, 0.9),
        lam=st.one_of(st.none(), st.floats(1e-3, 1.0)),
    )
    def test_optimal_status_meets_the_kkt_contract(self, n, d, seed, level, lam):
        ds = make_instance(n, d, seed=seed)
        problem = build_cer(ds, level, ALL_PAIRS)
        if lam is not None:
            problem = add_l1(problem, L1Penalty(lam))
        ctx = qp.QpContext(problem)
        assert ctx.solve().status is Status.OPTIMAL
        assert _kkt_residual(ctx) <= 1e-6

    @settings(max_examples=25)
    @given(
        n=st.integers(3, 12),
        d=st.integers(1, 3),
        seed=st.integers(0, 10_000),
        level=st.floats(0.1, 0.9),
        fixed=st.lists(st.sampled_from([None, 0.0, 1.0]), min_size=3, max_size=3),
    )
    def test_node_bounds_turn_fixed_selectors_into_equalities(self, n, d, seed, level, fixed):
        ds = make_instance(n, d, seed=seed)
        k = max(1, sum(v == 1.0 for v in fixed[:d]))
        problem, relaxed = _relaxed_l0_cer(ds, level, k)
        lower, upper = problem.lower.copy(), problem.upper.copy()
        for j, v in zip(np.flatnonzero(problem.integer), fixed):
            if v is not None:
                lower[j] = upper[j] = v
        ctx = qp.QpContext(relaxed)
        l_s, u_s = ctx._scaled_bounds(lower, upper)
        n_fixed = sum(v is not None for v in fixed[:d])
        assert np.count_nonzero(l_s == u_s) == n + n_fixed
        assert ctx.solve(lower, upper).status is Status.OPTIMAL
        assert _kkt_residual(ctx, lower, upper) <= 1e-6

    def test_seeded_sample_ends_optimal_except_known_cases(self):
        # 800 small CER, L1-CER and node-bounded relaxed L0-CER solves.  The
        # dense LU path this IPM used before left cases 602-740 non-optimal
        # too; case 775 it solved in 12 iterations.  Over 3,000 cases of this
        # recipe it left 30 non-optimal and this path leaves 31.
        known = {602: "iteration_limit", 605: "iteration_limit", 656: "iteration_limit",
                 687: "iteration_limit", 689: "infeasible", 740: "iteration_limit", 775: "iteration_limit"}
        found = {}
        for case in range(800):
            status = _sample_solve(case).status
            if status is not Status.OPTIMAL:
                found[case] = status.value
        assert found == known

    @settings(max_examples=25)
    @given(
        n=st.integers(3, 12),
        d=st.integers(1, 3),
        seed=st.integers(0, 10_000),
        fix=st.integers(0, 3),
        log_w=st.lists(st.floats(-12.0, 16.0), min_size=1, max_size=8),
    )
    def test_kkt_factor_solves_the_assembled_matrix(self, n, d, seed, fix, log_w):
        # The backward error against K = [A_in' W A_in + P + delta I, A_eq';
        # A_eq, -delta I] assembled densely, on one pattern at two cost
        # scalings of P (as two lambdas of one system get) times two weight
        # vectors.
        ds = make_instance(n, d, seed=seed)
        problem, relaxed = _relaxed_l0_cer(ds, 0.5, max(1, min(fix, d)))
        lower, upper = problem.lower.copy(), problem.upper.copy()
        z_cols = np.flatnonzero(problem.integer)[: min(fix, d)]
        lower[z_cols] = upper[z_cols] = 1.0
        ctx = qp.QpContext(relaxed)
        l_s, u_s = ctx._scaled_bounds(lower, upper)
        eq = l_s == u_s
        up, lo = ~eq & (u_s != np.inf), ~eq & (l_s != -np.inf)
        a_eq = ctx.a_s[eq]
        a_in = sparse.vstack([ctx.a_s[up], -ctx.a_s[lo]], format="csr")
        part = qp._Partition(ctx.a_s, eq, up, lo)
        nv, m_eq = ctx.nv, a_eq.shape[0]
        rng = np.random.default_rng(seed)
        for p in (ctx.p_s, ctx.p_s * 10.0 ** rng.uniform(-3, 3)):
            kkt = qp._Kkt(part, p)
            for _ in range(2):
                w = 10.0 ** rng.choice(log_w, size=a_in.shape[0])
                k = np.zeros((nv + m_eq, nv + m_eq))
                k[:nv, :nv] = (a_in.T @ sparse.diags(w) @ a_in).toarray() + np.diag(p + qp._DELTA)
                k[:nv, nv:] = a_eq.T.toarray()
                k[nv:, :nv] = a_eq.toarray()
                k[nv:, nv:] = -qp._DELTA * np.eye(m_eq)
                rhs = rng.normal(size=nv + m_eq)
                x = kkt.factor(w)(rhs)
                scale = np.abs(k).sum(axis=1).max() * np.abs(x).max() + np.abs(rhs).max()
                assert np.abs(k @ x - rhs).max() <= 1e-12 * scale

    def test_step_length_and_clips_match_the_references(self):
        # The IPM's step length negates a max where it took a min of negated
        # ratios, and clips by np.minimum/np.maximum and by Python min/max
        # where it called np.clip: every result must keep the bits.
        cases = [
            (np.array([1.0, 2.0]), np.array([0.5, 0.0])),  # no negative direction
            (np.array([0.0, -0.0, 0.0]), np.array([-1.0, -2.0, -5e-324])),
            (np.array([], dtype=float), np.array([], dtype=float)),
        ]
        rng = np.random.default_rng(0)
        for size in rng.integers(1, 40, size=300):
            cases.append((_extreme_vectors(rng, size), _extreme_vectors(rng, size)))
        with np.errstate(over="ignore", under="ignore"):
            for v, dv in cases:
                for vv in (v, np.abs(v)):
                    new, ref = qp._step_len(vv, dv), _step_len_by_min(vv, dv)
                    assert type(new) is float
                    assert np.float64(new).tobytes() == np.float64(ref).tobytes()
                w = np.abs(v) / np.maximum(np.abs(dv), 1e-300)
                for x in (v, w):
                    new = np.minimum(np.maximum(x, 1e-12), 1e16)
                    assert new.tobytes() == _clip_weights(x).tobytes()
                for r in map(float, np.concatenate([v, np.abs(v) ** 3, [1e-8, 1.0]])):
                    assert np.float64(min(max(r, 1e-8), 1.0)).tobytes() == _clip_sigma(r).tobytes()

    def test_one_input_l1_instance_converges(self):
        # K is ordered once per partition and factored after that on its
        # pattern relabelled by the ordering, each column keeping its entries
        # in K's own order.  Relabelling with the rows of each column sorted
        # instead moved the bits of every solve and stalled this instance at
        # the iteration cap, with K exactly singular in floating point on the
        # way.
        ds = make_instance(9, 1, seed=4302)
        ctx = qp.QpContext(add_l1(build_cer(ds, 0.71484375, ALL_PAIRS), L1Penalty(0.703125)))
        assert ctx.solve().status is Status.OPTIMAL
        assert _kkt_residual(ctx) <= 1e-6

    def test_singular_kkt_matrix_raises(self):
        # Near convergence W spans 1e-12 to 1e16 and a pivot of K cancels to
        # exactly zero.  The solve raises instead of returning a status, so
        # branch-and-bound cannot prune such a node as if it were infeasible.
        # (The dense LU path ended this instance at the iteration cap.)
        problem = build_cer(make_instance(10, 1, seed=7831), 0.7920244471606278, ALL_PAIRS)
        with pytest.raises(SolverError, match="KKT matrix singular"):
            qp.QpContext(problem).solve()

    @pytest.mark.xfail(strict=True, reason="the IPM stalls with a dual residual near 0.65 (ROADMAP item 6)")
    def test_known_one_input_stall(self):
        problem = build_cer(make_instance(11, 1, seed=9764), 0.27777399363978295, ALL_PAIRS)
        assert solve_qp(problem).status is Status.OPTIMAL

    @pytest.mark.xfail(strict=True, reason="a node optimum misses the 1e-6 sign residual (ROADMAP item 6)")
    def test_known_node_sign_residual_miss(self):
        ds = make_instance(9, 2, seed=1967)
        level = 0.2947941696224661
        m = anchor_big_m(ds, EstimatorSpec("expectile", level), 2.0)
        problem = add_l0(build_cer(ds, level, ALL_PAIRS), L0Penalty(1, m))
        relaxed = replace(problem, integer=np.zeros(problem.n_vars, dtype=bool))
        lower, upper = problem.lower.copy(), problem.upper.copy()
        lower[np.flatnonzero(problem.integer)[0]] = 1.0
        assert qp.QpContext(relaxed).solve(lower, upper).status is Status.OPTIMAL

    @pytest.mark.xfail(strict=True, reason="a feasible node is reported infeasible (ROADMAP item 6)")
    def test_known_false_infeasible_node(self):
        # z fixed at 1 with k = 1 leaves the cardinality row no interior, and
        # its multiplier grows past the IPM's infeasibility threshold.
        problem, relaxed = _relaxed_l0_cer(make_instance(3, 1, seed=1032), 0.625, 1)
        lower, upper = problem.lower.copy(), problem.upper.copy()
        z = np.flatnonzero(problem.integer)[0]
        lower[z] = upper[z] = 1.0
        assert qp.QpContext(relaxed).solve(lower, upper).status is not Status.INFEASIBLE


def _bits(sol) -> tuple:
    return sol.status, sol.iterations, None if sol.x is None else sol.x.tobytes()


class TestSystemMemo:
    """The one-entry memo of a constraint system's scaling and KKT pattern
    changes no bit of any solve."""

    @pytest.fixture(autouse=True)
    def live_systems(self):
        # Every system the memo has held; after each solve at most one of
        # them may still be alive (no context keeps one here).  The memo is
        # cleared by assignment: monkeypatch would keep each old entry alive.
        qp._memo = None
        yield []
        qp._memo = None

    @staticmethod
    def _check_one_live(seen):
        seen.append(weakref.ref(qp._memo))
        seen[:] = [ref for ref in seen if ref() is not None]
        assert all(ref() is qp._memo for ref in seen)

    def _same_bits_hot_and_cold(self, seen, solve) -> bool:
        """Solve, solve again, and solve after clearing the memo; whether
        the first solve reused the system the memo held before it."""
        entering = qp._memo
        first = _bits(solve())
        reused = qp._memo is entering
        del entering
        held = qp._memo
        second = _bits(solve())
        assert qp._memo is held  # the second solve reused the system
        self._check_one_live(seen)
        qp._memo = None
        cold = _bits(solve())
        assert qp._memo is not held
        del held
        assert first == second == cold
        self._check_one_live(seen)
        return reused

    def test_lambda_sweep_on_one_fold(self, live_systems):
        ds = make_instance(20, 3, seed=5)
        train = ds.subset(np.flatnonzero(kfold_split(ds.n, 5, 0) != 0))
        base = build_cer(train, 0.5, ALL_PAIRS)
        reused = []
        for lam in np.logspace(-3, -1, 10):
            problem = add_l1(base, L1Penalty(float(lam)))
            reused.append(self._same_bits_hot_and_cold(live_systems, lambda: qp.QpContext(problem).solve()))
        # Every lambda after the first starts on the previous one's system.
        assert reused == [False] + [True] * 9

    def test_sample_cases(self, live_systems):
        for case in range(300):
            assert not self._same_bits_hot_and_cold(live_systems, lambda: _sample_solve(case))

    def test_alternating_systems_and_partitions(self, live_systems):
        ds = make_instance(8, 3, seed=11)
        problem, relaxed = _relaxed_l0_cer(ds, 0.4, 2)
        z = np.flatnonzero(problem.integer)
        bounds = []
        for fix_at, value in ((z[0], 1.0), (z[1], 0.0)):
            lower, upper = problem.lower.copy(), problem.upper.copy()
            lower[fix_at] = upper[fix_at] = value
            bounds.append((lower, upper))
        # Systems that differ only in the matrix's values ("a", "c"), only
        # in the quadratic costs ("a", "b") or only in which columns are
        # bounded ("b", "d"), beside a relaxed L0 problem solved under two
        # node partitions.
        other = {
            "a": add_l1(build_cer(make_instance(8, 3, seed=12), 0.4, ALL_PAIRS), L1Penalty(0.01)),
            "b": build_cer(make_instance(8, 3, seed=12), 0.7, ALL_PAIRS),
            "c": build_cer(make_instance(8, 3, seed=13), 0.4, ALL_PAIRS),
        }
        free = np.flatnonzero(other["b"].upper == np.inf)[0]
        other["d"] = replace(other["b"], upper=np.where(np.arange(other["b"].n_vars) == free, 1e3, other["b"].upper))
        solves = {f"n{i}": lambda i=i: qp.QpContext(relaxed).solve(*bounds[i]) for i in range(2)}
        solves.update({key: lambda key=key: solve_qp(other[key]) for key in other})
        cold = {}
        for key, solve in solves.items():
            qp._memo = None
            cold[key] = _bits(solve())
        ctx = qp.QpContext(relaxed)  # one B&B context across node partitions
        for key in ("n0", "n1", "a", "b", "d", "n0", "a", "c", "n1", "n1", "b", "d", "b", "n0", "c", "a"):
            assert _bits(solves[key]()) == cold[key]
            if key in ("n0", "n1"):
                assert _bits(ctx.solve(*bounds[int(key[1])])) == cold[key]
            # Alive: the memo's system, and the one the B&B context holds.
            live_systems.append(weakref.ref(qp._memo))
            assert all(ref() in (None, qp._memo, ctx.system) for ref in live_systems)

    def test_threads_sharing_the_memo(self):
        # Threads that alternate systems and partitions on the shared memo
        # still get the bits of a cold solve.  They start on an empty memo,
        # two of them on the same solve, so they race on a partition's first
        # factorization, the one that orders it.
        problem, relaxed = _relaxed_l0_cer(make_instance(6, 2, seed=21), 0.6, 1)
        z = np.flatnonzero(problem.integer)
        fixed = []
        for j in z:
            lower, upper = problem.lower.copy(), problem.upper.copy()
            lower[j] = upper[j] = 1.0
            fixed.append((lower, upper))
        other = build_cer(make_instance(6, 2, seed=22), 0.6, ALL_PAIRS)
        solves = [lambda b=b: qp.QpContext(relaxed).solve(*b) for b in fixed] + [lambda: solve_qp(other)]
        cold = []
        for solve in solves:
            qp._memo = None
            cold.append(_bits(solve()))
        qp._memo = None
        results, errors = [], []

        def worker(offset):
            try:
                for i in range(12):
                    k = (i + offset) % len(solves)
                    results.append(_bits(solves[k]()) == cold[k])
            except Exception as exc:  # reported by the assertion below
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker, args=(t,)) for t in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert errors == []
        assert results == [True] * 48

    def test_kernels_match_the_operator(self):
        # The iteration calls scipy's private matvec kernels directly; they
        # must give the bits `@` gives, on CSR rows, their CSC transpose
        # and a weight map.  The weight map is stored by columns; its
        # product must also have the bits of its row-wise (CSR) product,
        # which adds each slot's terms in the same increasing-row order.
        ds = make_instance(10, 3, seed=2)
        problem, relaxed = _relaxed_l0_cer(ds, 0.5, 2)
        ctx = qp.QpContext(relaxed)
        lower, upper = problem.lower.copy(), problem.upper.copy()
        lower[np.flatnonzero(problem.integer)[0]] = 1.0
        ctx.solve(lower, upper)
        weight_map = ctx.system._part.pattern.weight_map
        rng = np.random.default_rng(0)
        for mat in (ctx.a_s, ctx.a_s.T, weight_map):
            assert mat.format in ("csr", "csc")
            x = rng.normal(size=mat.shape[1]) * 10.0 ** rng.uniform(-8, 8, size=mat.shape[1])
            assert qp._matvec(mat)(x).tobytes() == (mat @ x).tobytes()
        w = 10.0 ** rng.uniform(-12, 16, size=weight_map.shape[1])
        assert qp._matvec(weight_map)(w).tobytes() == (weight_map.tocsr() @ w).tobytes()

    @pytest.mark.parametrize("fix", range(4))
    def test_factor_matches_splu(self, fix):
        # `_Kkt.factor` calls SuperLU's `gstrf` directly, under the
        # minimum-degree ordering the first time and on the pattern relabelled
        # by it after that; every solve must have the bits of `splu`'s on K
        # assembled in its own labelling from the same partition, with 0-3
        # selectors fixed, weights from 1e-12 to 1e16 and two solves on the
        # partition at two cost scalings of P (as two lambdas of one system).
        ds = make_instance(10, 3, seed=fix)
        problem, relaxed = _relaxed_l0_cer(ds, 0.5, max(1, fix))
        lower, upper = problem.lower.copy(), problem.upper.copy()
        z_cols = np.flatnonzero(problem.integer)[:fix]
        lower[z_cols] = upper[z_cols] = 1.0
        ctx = qp.QpContext(relaxed)
        l_s, u_s = ctx._scaled_bounds(lower, upper)
        eq = l_s == u_s
        part = qp._Partition(ctx.a_s, eq, ~eq & (u_s != np.inf), ~eq & (l_s != -np.inf))
        assert part.m_eq == ds.n + fix
        own = part.pattern
        kkts = [qp._Kkt(part, ctx.p_s), qp._Kkt(part, ctx.p_s * 37.5)]
        rng = np.random.default_rng(fix)
        for which, log_w in zip((0, 1, 0, 1, 1, 0), (-12.0, 0.0, 16.0, None, None, None)):
            kkt = kkts[which]
            size = part.m_in
            w = 10.0 ** (rng.uniform(-12, 16, size=size) if log_w is None else np.full(size, log_w))
            const = np.bincount(own.const_slot, weights=kkt.const_values, minlength=own.weight_map.shape[0])
            k = sparse.csc_matrix((const + own.refill(w), own.indices, own.indptr), shape=(part.size,) * 2)
            b = rng.normal(size=part.size) * 10.0 ** rng.uniform(-8, 8, size=part.size)
            ref = splu(k, permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.1, options={"SymmetricMode": True})
            assert kkt.factor(w)(b).tobytes() == ref.solve(b).tobytes()
            assert part.pattern.perm.tobytes() == ref.perm_c.tobytes()

    def test_each_partition_is_ordered_once(self, monkeypatch):
        # Over one L1-CER fold's lambda candidates, which share the memo's
        # partition, `gstrf` orders K by minimum degree once and factors it
        # in the natural order of that relabelled pattern every other time.
        orderings = []
        gstrf = qp._superlu.gstrf

        def counted(*args, options, **kwargs):
            orderings.append(options["ColPerm"])
            return gstrf(*args, options=options, **kwargs)

        monkeypatch.setattr(qp, "_superlu", SimpleNamespace(gstrf=counted))
        ds = make_instance(20, 3, seed=5)
        train = ds.subset(np.flatnonzero(kfold_split(ds.n, 5, 0) != 0))
        base = build_cer(train, 0.5, ALL_PAIRS)
        for lam in np.logspace(-3, -1, 10):
            assert qp.QpContext(add_l1(base, L1Penalty(float(lam)))).solve().status is Status.OPTIMAL
        assert orderings[0] == "MMD_AT_PLUS_A"
        assert orderings.count("MMD_AT_PLUS_A") == 1
        assert orderings.count("NATURAL") == len(orderings) - 1 > 100

    def test_private_kernels_present(self):
        # Private scipy API the IPM calls; a scipy that drops any of it fails
        # here rather than at the first fit: the matvec kernels, `gstrf`
        # under the natural ordering, and the ordering `perm_c` it reports.
        used = {qp._sparsetools: ("csr_matvec", "csc_matvec"), qp._superlu: ("gstrf",)}
        missing = [name for owner, names in used.items() for name in names if not hasattr(owner, name)]
        assert missing == []
        k = sparse.csc_matrix(np.array([[2.0, 1.0, 0.0], [1.0, -1.0, 3.0], [0.0, 3.0, 4.0]]))
        lu = qp._superlu.gstrf(3, k.nnz, k.data, k.indices.astype(np.intc), k.indptr.astype(np.intc),
                               csc_construct_func=sparse.csc_array, ilu=False, options=qp._SUPERLU_ORDERED)
        assert lu.perm_c.tolist() == [0, 1, 2]
        assert np.allclose(k @ lu.solve(np.ones(3)), 1.0)

    def test_cached_arrays_are_read_only(self):
        ctx = qp.QpContext(build_cer(make_instance(6, 2, seed=1), 0.5, ALL_PAIRS))
        before = _bits(ctx.solve())
        for arr in (ctx.a_s.data, ctx.a_s.indices, ctx.d, ctx.e, ctx.a0.data, ctx.p_diag0):
            with pytest.raises(ValueError, match="read-only"):
                arr[0] = 2.0
        with pytest.raises(ValueError, match="read-only"):
            ctx.a_s *= 2.0
        assert _bits(ctx.solve()) == before


class TestSolveMip:
    def test_all_binaries_fixed_is_single_relaxation(self, small_noisy):
        problem = add_l0(build_cqr(small_noisy, 0.5, ALL_PAIRS), L0Penalty(2, 5.0))
        # Cardinality row forbids all-ones with k=2 < d=3, so fix only two.
        lower = problem.lower.copy()
        upper = problem.upper.copy()
        zcols = np.flatnonzero(problem.integer)
        lower[zcols] = [1.0, 1.0, 0.0]
        upper[zcols] = [1.0, 1.0, 0.0]
        fixed = OptProblem(
            problem.obj_linear,
            problem.obj_quad,
            problem.a,
            problem.sense,
            problem.rhs,
            lower,
            upper,
            problem.integer,
            problem.layout,
        )
        sol = solve_mip(fixed)
        assert sol.status is Status.OPTIMAL
        assert sol.nodes <= 2  # root (+ certification solve at most)

    def test_k_equals_d_matches_lp(self, small_noisy):
        base = build_cqr(small_noisy, 0.5, ALL_PAIRS)
        plain = solve_lp(base)
        mip = solve_mip(add_l0(base, L0Penalty(small_noisy.d, 50.0)))
        assert mip.objective == pytest.approx(plain.objective, abs=1e-6)

    def test_root_relaxation_bounds_mip(self):
        ds = make_instance(10, 3, seed=5)
        pen = L0Penalty(1, 20.0)
        problem = add_l0(build_cqr(ds, 0.5, ALL_PAIRS), pen)
        relaxed = OptProblem(
            problem.obj_linear,
            problem.obj_quad,
            problem.a,
            problem.sense,
            problem.rhs,
            problem.lower,
            problem.upper,
            np.zeros(problem.n_vars, dtype=bool),
            problem.layout,
        )
        root = solve_lp(relaxed)
        mip = solve_mip(problem)
        assert root.objective <= mip.objective + 1e-9

    def test_incumbent_is_exactly_integral(self):
        ds = make_instance(10, 3, seed=6)
        problem = add_l0(build_cqr(ds, 0.5, ALL_PAIRS), L0Penalty(1, 10.0))
        sol = solve_mip(problem)
        z = sol.x[problem.integer]
        assert np.array_equal(z, np.rint(z))
        assert z.sum() <= 1

    def test_determinism(self):
        ds = make_instance(10, 3, seed=8)
        problem = add_l0(build_cqr(ds, 0.5, ALL_PAIRS), L0Penalty(2, 10.0))
        a = solve_mip(problem)
        b = solve_mip(problem)
        assert a.objective == b.objective
        assert a.nodes == b.nodes
        assert np.array_equal(a.x, b.x)

    def test_node_limit_reports_iteration_limit(self, monkeypatch):
        monkeypatch.setattr(bnb, "_MAX_NODES", 1)
        ds = make_instance(10, 4, seed=9)
        problem = add_l0(build_cqr(ds, 0.5, ALL_PAIRS), L0Penalty(2, 10.0))
        sol = solve_mip(problem)
        assert sol.status in (Status.ITERATION_LIMIT, Status.OPTIMAL)

    @staticmethod
    def _cap_simplex_at_one_iteration(monkeypatch):
        capped = tuple(
            (key, 1 if key == "simplex_iteration_limit" else value) for key, value in lp_module._OPTIONS
        )
        monkeypatch.setattr(lp_module, "_OPTIONS", capped)

    def test_root_at_the_lp_iteration_cap_reports_iteration_limit(self, monkeypatch, small_noisy):
        self._cap_simplex_at_one_iteration(monkeypatch)
        sol = solve_mip(add_l0(build_cqr(small_noisy, 0.5, ALL_PAIRS), L0Penalty(1, 10.0)))
        assert sol.status is Status.ITERATION_LIMIT
        assert sol.x is None

    @pytest.mark.parametrize("mode", ["full", "cuts"])
    def test_fit_raises_when_the_root_hits_the_lp_iteration_cap(self, monkeypatch, small_noisy, mode):
        self._cap_simplex_at_one_iteration(monkeypatch)
        spec = EstimatorSpec("quantile", 0.5, penalty=L0Penalty(1, 10.0), solve=mode)
        with pytest.raises(RuntimeError, match="iteration_limit"):
            fit(small_noisy, spec)

    def test_miqp(self, small_noisy):
        anchor = fit(small_noisy, EstimatorSpec("expectile", 0.5))
        m = 10.0 * max(anchor.beta.max(), 1e-6)
        problem = add_l0(build_cer(small_noisy, 0.5, ALL_PAIRS), L0Penalty(1, m))
        sol = solve_mip(problem)
        assert sol.status is Status.OPTIMAL
        z = sol.x[problem.integer]
        assert z.sum() <= 1


    @pytest.mark.parametrize("n", [12, 16, 20])
    @pytest.mark.parametrize("master", ["full", "cuts"])
    def test_matches_fresh_session_at_every_node(self, monkeypatch, n, master):
        ds = make_instance(n, 3, seed=n)
        spec = EstimatorSpec("quantile", 0.5)
        pairs = ALL_PAIRS if master == "full" else initial_constraints(ds)
        problem = add_l0(build_cqr(ds, 0.5, pairs), L0Penalty(2, anchor_big_m(ds, spec, 1.0)))
        kept = solve_mip(problem)

        relaxed = replace(problem, integer=np.zeros(problem.n_vars, dtype=bool))
        original = LpSession.solve

        def fresh(self, lower, upper):
            return original(LpSession(replace(relaxed, lower=lower, upper=upper)))

        monkeypatch.setattr(LpSession, "solve", fresh)
        rebuilt = solve_mip(problem)
        assert kept.status is rebuilt.status is Status.OPTIMAL
        assert np.array_equal(kept.x, rebuilt.x)
        assert kept.objective == rebuilt.objective
        assert kept.nodes == rebuilt.nodes

    def test_repeated_bounds_are_solved_once(self, monkeypatch, small_noisy):
        problem = add_l0(build_cqr(small_noisy, 0.5, ALL_PAIRS), L0Penalty(1, 1.0))
        bounds = []
        original = LpSession.solve

        def recording(self, lower, upper):
            bounds.append((lower[problem.integer].tobytes(), upper[problem.integer].tobytes()))
            return original(self, lower, upper)

        monkeypatch.setattr(LpSession, "solve", recording)
        sol = solve_mip(problem, incumbent_hint=np.array([1.0, 0.0, 0.0]))
        assert len(bounds) == len(set(bounds)) == sol.nodes

    # Bertsimas, King and Mazumder (2016): the big-M MIP against enumeration.
    @settings(max_examples=20)
    @given(
        n=st.integers(4, 12),
        d=st.integers(1, 3),
        k=st.integers(1, 2),
        seed=st.integers(0, 10_000),
        level=st.floats(0.1, 0.9),
    )
    def test_matches_exhaustive_subsets(self, n, d, k, seed, level):
        ds = make_instance(n, d, seed=seed)
        k = min(k, d)
        spec = EstimatorSpec("quantile", level)
        big_m = anchor_big_m(ds, spec, 10.0)
        sol = solve_mip(add_l0(build_cqr(ds, level, ALL_PAIRS), L0Penalty(k, big_m)))
        oracle_obj, subset = l0_oracle(ds, spec, k)
        assert sol.status is Status.OPTIMAL
        # Every selector-feasible point is a restricted fit, so the MIP
        # cannot beat the best one; big-M binds only if its slopes reach it.
        assert sol.objective >= oracle_obj - 1e-9
        if np.abs(fit(ds.restrict(sorted(subset)), spec).beta).max() < big_m:
            assert sol.objective == pytest.approx(oracle_obj, abs=1e-6)

    # Each L0-CER case prunes the oracle's leaf after its relaxation stops at
    # the IPM cap; the oracle fit's slopes stay far below big-M in both.
    @pytest.mark.xfail(strict=True, reason="B&B prunes a capped node and misses the L0-CER optimum (ROADMAP item 6)")
    @pytest.mark.parametrize("n, d, seed, level, k", [(9, 3, 216, 0.477, 1), (11, 2, 55, 0.271, 2)])
    def test_known_l0_cer_misses_the_oracle(self, n, d, seed, level, k):
        ds = make_instance(n, d, seed=seed)
        spec = EstimatorSpec("expectile", level)
        sol = solve_mip(add_l0(build_cer(ds, level, ALL_PAIRS), L0Penalty(k, anchor_big_m(ds, spec, 10.0))))
        oracle_obj, _ = l0_oracle(ds, spec, k)
        assert sol.objective == pytest.approx(oracle_obj, abs=1e-6)


def _solve_recording_lowers(problem: OptProblem) -> tuple:
    """solve_mip on `problem`, and the selector lower bounds of every
    relaxation it solved."""
    lowers = []
    with pytest.MonkeyPatch.context() as mp:
        for cls in (LpSession, qp.QpContext):

            def recording(self, lower, upper, original=cls.solve):
                lowers.append(lower[problem.integer].copy())
                return original(self, lower, upper)

            mp.setattr(cls, "solve", recording)
        return solve_mip(problem), lowers


class TestSelectorRowSkip:
    @pytest.mark.parametrize(
        "coef, is_eq, rhs, lo, up, breaks",
        [
            ([[1, 1, 1]], [False], [2], [1, 1, 0], [1, 1, 1], False),
            ([[1, 1, 1]], [False], [2], [1, 1, 1], [1, 1, 1], True),
            ([[1, -1, 0]], [False], [0], [1, 0, 0], [1, 1, 1], False),
            ([[1, -1, 0]], [False], [0], [1, 0, 0], [1, 0, 1], True),
            ([[1, 1, 0]], [True], [1], [0, 0, 0], [0, 1, 1], False),
            ([[1, 1, 0]], [True], [1], [0, 0, 0], [0, 0, 1], True),
            ([[1, 1, 0]], [True], [1], [1, 1, 0], [1, 1, 1], True),
        ],
    )
    def test_box_breaks_by_least_and_greatest_activity(self, coef, is_eq, rhs, lo, up, breaks):
        rows = (np.array(coef, dtype=float), np.array(is_eq), np.array(rhs, dtype=float))
        assert bnb._box_breaks(rows, np.array(lo, dtype=float), np.array(up, dtype=float)) is breaks

    def test_the_cardinality_row_is_the_only_selector_row(self, small_noisy):
        problem = add_l0(build_cqr(small_noisy, 0.5, ALL_PAIRS), L0Penalty(2, 5.0))
        coef, is_eq, rhs = bnb._selector_rows(problem, np.flatnonzero(problem.integer))
        assert np.array_equal(coef, np.ones((1, 3)))
        assert not is_eq.any()
        assert np.array_equal(rhs, [2.0])

    # Pinning every positive selector breaks sum(z) <= k whenever more than k
    # are positive at the root; solving such a probe only wastes IPM iterations.
    @settings(max_examples=12)
    @given(
        family=st.sampled_from(["quantile", "expectile"]),
        n=st.integers(8, 12),
        d=st.integers(3, 4),
        k=st.integers(1, 3),
        seed=st.integers(0, 10_000),
    )
    def test_matches_solving_every_node(self, family, n, d, k, seed):
        ds = make_instance(n, d, seed=seed)
        k = min(k, d - 1)
        spec = EstimatorSpec(family, 0.5)
        build = build_cqr if family == "quantile" else build_cer
        problem = add_l0(build(ds, 0.5, ALL_PAIRS), L0Penalty(k, anchor_big_m(ds, spec, 1.0)))
        skipping, lowers = _solve_recording_lowers(problem)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(bnb, "_box_breaks", lambda *args: False)
            solving = solve_mip(problem)
        assert skipping.status is solving.status
        assert np.array_equal(skipping.objective, solving.objective, equal_nan=True)
        assert (skipping.x is None) is (solving.x is None)
        if skipping.x is not None:
            assert skipping.x.tobytes() == solving.x.tobytes()
        assert skipping.nodes == len(lowers) <= solving.nodes
        assert all(np.count_nonzero(lo == 1.0) <= k for lo in lowers)


def _capped_l0_cer(monkeypatch):
    """solve_mip on a small L0-CER instance with the IPM capped at 20
    iterations, and the status of every node relaxation.  The feasible node
    with z_0 fixed to 0 stops at the cap."""
    ds = make_instance(12, 3, seed=13)
    anchor = fit(ds, EstimatorSpec("expectile", 0.5))
    problem = add_l0(build_cer(ds, 0.5, ALL_PAIRS), L0Penalty(1, max(anchor.beta.max(), 1e-6)))
    monkeypatch.setattr(qp, "_MAX_IPM_ITERS", 20)
    statuses = []
    original = qp.QpContext.solve

    def recording(self, *args, **kwargs):
        sol = original(self, *args, **kwargs)
        statuses.append(sol.status)
        return sol

    monkeypatch.setattr(qp.QpContext, "solve", recording)
    return solve_mip(problem), statuses


class TestCappedNode:
    def test_a_node_relaxation_hits_the_cap(self, monkeypatch):
        _, statuses = _capped_l0_cer(monkeypatch)
        assert statuses[0] is Status.OPTIMAL
        assert Status.ITERATION_LIMIT in statuses[1:]

    @pytest.mark.xfail(
        strict=True, reason="solve_mip prunes a node whose relaxation hit the IPM cap and still claims optimality"
    )
    def test_capped_node_is_not_reported_optimal(self, monkeypatch):
        sol, _ = _capped_l0_cer(monkeypatch)
        assert sol.status is not Status.OPTIMAL


def _l0_cqr_full():
    return add_l0(build_cqr(make_instance(6, 3, seed=3), 0.5, ALL_PAIRS), L0Penalty(1, 2.0))


def _cer_cut_master():
    ds = make_instance(8, 2, seed=4)
    return build_cer(ds, 0.8, initial_constraints(ds))


def _l1_budget_cqr():
    return add_l1_budget(build_cqr(make_instance(6, 3, seed=5), 0.5, ALL_PAIRS), L0Penalty(2, 5.0))


class TestExportMps:
    def test_sections_present(self):
        sol = lp([1.0], [[-1.0]], "L", [-3.0])
        text = export_mps(sol)
        for section in ("NAME", "ROWS", "COLUMNS", "RHS", "BOUNDS", "ENDATA"):
            assert section in text
        assert "QMATRIX" not in text

    def test_markers_bracket_binaries(self, small_noisy):
        problem = add_l0(build_cqr(small_noisy, 0.5, ALL_PAIRS), L0Penalty(2, 5.0))
        text = export_mps(problem)
        assert "'INTORG'" in text
        assert "'INTEND'" in text
        assert text.index("'INTORG'") < text.index("'INTEND'")

    def test_qmatrix_entry_count(self, small_noisy):
        problem = build_cer(small_noisy, 0.5, ALL_PAIRS)
        text = export_mps(problem)
        qsection = text.split("QMATRIX")[1].split("ENDATA")[0]
        entries = [line for line in qsection.strip().splitlines() if line.strip()]
        assert len(entries) == 2 * small_noisy.n

    def test_column_order_round_trips(self, small_noisy):
        problem = build_cqr(small_noisy, 0.5, ALL_PAIRS)
        text = export_mps(problem)
        cols_section = text.split("COLUMNS")[1].split("RHS")[0]
        seen = []
        for line in cols_section.splitlines():
            parts = line.split()
            if len(parts) >= 3 and parts[0] != "MARKER1" and not parts[0].startswith("MARKER"):
                if parts[0] not in seen:
                    seen.append(parts[0])
        assert seen == _names(problem)[0]

    def test_identical_output(self, small_noisy):
        problem = build_cqr(small_noisy, 0.9, ALL_PAIRS)
        assert export_mps(problem) == export_mps(problem)

    def test_names_without_layout(self):
        text = export_mps(lp([1.0, 1.0], [[-1.0, 0.0], [1.0, 1.0]], "LE", [-3.0, 5.0]))
        assert " L  R1\n E  R2\n" in text
        assert "    X2        R2        1\n" in text

    # Reference digests of the export text, names and number formats included.
    @pytest.mark.parametrize(
        "make, digest",
        [
            (_l0_cqr_full, "da2c58c35e52809a51da4fea941d5ad26f6f4918ed49480ce2e74ffdf5a27ca5"),
            (_cer_cut_master, "3bdecfc4648ff80627deff4433a285ffdde8afa5a6dc22412af9fbc38b01787c"),
            (_l1_budget_cqr, "76e4a359288057d247737cc24b99f263a823e64bc18c448f93d929607950443d"),
        ],
        ids=["l0-cqr-full", "cer-cut-master", "l1-budget-cqr"],
    )
    def test_pinned_text(self, make, digest):
        assert hashlib.sha256(export_mps(make()).encode()).hexdigest() == digest

