import gc
import sys
import threading
import weakref
from dataclasses import replace
from itertools import combinations, product
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
    Dataset,
    EstimatorSpec,
    L0Penalty,
    L1Penalty,
    MCConfig,
    SolverError,
    anchor_big_m,
    fit,
    generate_scenario,
    kfold_split,
    l0_oracle,
)
from cqreg.cuts import initial_constraints, separate
from cqreg.estimators import make_builder
from cqreg.model import (
    ALL_PAIRS,
    OptProblem,
    add_l0,
    add_l1,
    afriat_rows,
    afriat_slack,
    build_cer,
    build_cqr,
    extract_fit,
)
from cqreg.solver import Solution, Status, base, bnb, export_mps, qp, solve_lp, solve_mip, solve_qp
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
        # linprog and a CQR fit must still solve through it.
        code = f"""
import sys
import {first}
import cqreg.solver.lp as lp
import numpy as np
from cqreg import Dataset, EstimatorSpec, fit
from scipy.optimize import linprog
from scipy.optimize._highspy import _core
assert _core is lp._core is sys.modules["scipy.optimize._highspy._core"]
res = linprog([1.0, 2.0], A_ub=[[-1.0, -1.0]], b_ub=[-1.0])
ds = Dataset(np.array([[1.0], [2.0], [3.0], [4.0]]), np.array([1.0, 2.5, 2.0, 3.0]))
print(res.status, res.x.tolist(), res.fun, fit(ds, EstimatorSpec("quantile", 0.5)).meta.status)
"""
        assert run_fresh(code).split() == ["0", "[1.0,", "0.0]", "1.0", "optimal"]

    def test_load_extension_reuses_a_loaded_module_and_rejects_a_missing_one(self):
        assert base.load_extension("scipy.optimize._highspy._core") is _core
        missing = "scipy.optimize._no_such_extension"
        with pytest.raises(ImportError, match="is not in") as raised:
            base.load_extension(missing)
        assert raised.value.name == missing and missing not in sys.modules

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
        }
        missing = [name for owner, names in used.items() for name in names if not hasattr(owner, name)]
        assert missing == []

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
        new = [(i, m) for i, m, _ in separate(afriat_slack(first.y_hat, first.beta, ds), 1e-6)]
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
        new = [(i, m) for i, m, _ in separate(afriat_slack(first.y_hat, first.beta, ds), 1e-6)]
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

    # Dual simplex prices with Devex (1) only in re-solves after add_rows: a
    # fresh session and a cold solve under new bounds use HiGHS's default
    # (-1), and a B&B session never appends rows, so its hot solves keep the
    # default.  Measured with the default instead of Devex over cqr-cv's
    # operations (the CV, its refit, the full n=100 CQR and the n=30
    # cuts-mode anchor) on seeds 0-19, replications 0-1, as one concurrent
    # pair: Devex took 64.3 s of CPU against 72.2 s, and every objective
    # agreed to 1.4e-9 relative, with the same supports, anchors and CV
    # choices.
    def test_pricing_is_devex_after_add_rows_only(self, monkeypatch):
        def pricing(session):
            status, value = session._highs.getOptionValue("simplex_dual_edge_weight_strategy")
            assert status == _core.HighsStatus.kOk
            return value

        ds = make_instance(30, 3, seed=0)
        base = build_cqr(ds, 0.5, initial_constraints(ds))
        session = LpSession(base)
        assert pricing(session) == -1
        first = extract_fit(base, ds, session.solve())
        new = [(i, m) for i, m, _ in separate(afriat_slack(first.y_hat, first.beta, ds), 1e-6)]
        assert new
        session.add_rows(*afriat_rows(ds, new), np.zeros(len(new)))
        assert pricing(session) == 1
        assert session.solve().optimal
        assert pricing(session) == 1
        assert session.solve(base.lower, base.upper).optimal
        assert pricing(session) == -1

        hot = []

        def recorded(self, basis, lower, upper, bound, original=LpSession.solve_hot):
            hot.append(pricing(self))
            return original(self, basis, lower, upper, bound)

        monkeypatch.setattr(LpSession, "solve_hot", recorded)
        solve_mip(_l0_cqr(make_instance(24, 6, seed=3), "cuts", k=2, multiplier=1.0))
        assert hot and set(hot) == {-1}

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

    def test_hot_solve_stops_at_its_objective_bound_only(self, small_noisy):
        problem = add_l0(build_cqr(small_noisy, 0.5, ALL_PAIRS), L0Penalty(1, 5.0))
        relaxed = replace(problem, integer=np.zeros(problem.n_vars, dtype=bool))
        session = LpSession(relaxed)
        root = session.solve(relaxed.lower, relaxed.upper)
        basis = session.basis()
        lower, upper = relaxed.lower.copy(), relaxed.upper.copy()
        upper[np.flatnonzero(problem.integer)] = [0.0, 1.0, 1.0]
        cold = LpSession(replace(relaxed, lower=lower, upper=upper)).solve()
        assert cold.objective > root.objective + 1e-3

        cut = session.solve_hot(basis, lower, upper, (root.objective + cold.objective) / 2)
        assert cut.status is Status.CUTOFF and cut.x is None
        hot = session.solve_hot(basis, lower, upper, np.inf)
        assert hot.optimal and hot.objective == pytest.approx(cold.objective, abs=1e-9)
        # The bound does not carry over: a cold solve after hot ones is a
        # fresh session's.
        again = session.solve(lower, upper)
        assert again.x.tobytes() == cold.x.tobytes()
        assert again.iterations == cold.iterations

    # Branch-and-bound runs its hot and cold solves in one session: a cold
    # solve after hot ones must still be a fresh session's, bit for bit.
    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("master", ["full", "cuts"])
    def test_cold_solve_after_hot_solves_matches_fresh_session(self, master, seed):
        problem = _l0_cqr(make_instance(16, 4, seed=seed), master, k=2, multiplier=1.0)
        relaxed = replace(problem, integer=np.zeros(problem.n_vars, dtype=bool))
        z = np.flatnonzero(problem.integer)
        session = LpSession(relaxed)
        root = session.solve(relaxed.lower, relaxed.upper)
        basis = session.basis()
        rng = np.random.default_rng(seed)
        hot_statuses = set()
        for _ in range(10):
            # Free (-1), excluded (0) or selected (1) per selector: a hot solve
            # of one box under a cutoff that may stop it, then a cold solve of
            # another.
            (hot_lower, hot_upper), (lower, upper) = [_selector_box(relaxed, z, rng) for _ in range(2)]
            cutoff = root.objective + rng.uniform(0.0, 0.2)
            hot_statuses.add(session.solve_hot(basis, hot_lower, hot_upper, cutoff).status)
            got = session.solve(lower, upper)
            want = LpSession(replace(relaxed, lower=lower, upper=upper)).solve()
            assert got.status is want.status
            assert got.iterations == want.iterations
            if want.optimal:
                assert got.x.tobytes() == want.x.tobytes()
                assert np.float64(got.objective).tobytes() == np.float64(want.objective).tobytes()
        assert {Status.OPTIMAL, Status.CUTOFF} <= hot_statuses


def _selector_box(problem: OptProblem, z: np.ndarray, rng) -> tuple[np.ndarray, np.ndarray]:
    """`problem`'s bounds with each selector in `z` drawn free, excluded or selected."""
    fixed = rng.integers(-1, 2, size=z.size)
    lower, upper = problem.lower.copy(), problem.upper.copy()
    lower[z[fixed == 1]] = 1.0
    upper[z[fixed == 0]] = 0.0
    return lower, upper


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
    r_prim, r_dual, r_sign, _, _ = ctx._residuals(x_s, y_row, l_s, u_s)
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
        part = qp._Partition(ctx.system, eq, up, lo)
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


def _same_array(a: np.ndarray, b: np.ndarray) -> bool:
    """Bitwise equality: 0.0 and -0.0 differ."""
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def _pattern_from_own_rows(a_s, eq, up, lo) -> tuple:
    """K's CSC pattern for one row split, built from its rows alone by
    sorting the keys of every same-row nonzero pair of A_in, of the
    diagonal and of A_eq and its transpose: indices, indptr, the weight
    map's data, indices and indptr, and the constant part's slots."""
    a_eq = a_s[eq]
    a_in = sparse.vstack([a_s[up], -a_s[lo]], format="csr")
    nv = a_s.shape[1]
    size = nv + a_eq.shape[0]
    lens = np.diff(a_in.indptr).astype(np.int32)
    per = np.repeat(lens, lens)
    first = np.repeat(np.arange(a_in.nnz, dtype=np.int32), per)
    within = np.arange(first.size, dtype=np.int32) - np.repeat(np.cumsum(per) - per, per)
    second = np.repeat(np.repeat(a_in.indptr[:-1].astype(np.int32), lens), per) + within
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
    n_pair = first.size
    pairs_before = np.zeros(a_in.shape[0] + 1, dtype=np.int32)
    np.cumsum(lens * lens, out=pairs_before[1:])
    weight_map = sparse.csc_matrix(
        (a_in.data[first] * a_in.data[second], slot[:n_pair].astype(np.int32), pairs_before),
        shape=(keys.size, a_in.shape[0]),
    )
    indptr = np.searchsorted(keys, np.arange(size + 1) * size).astype(np.intc)
    return (
        (keys % size).astype(np.intc),
        indptr,
        weight_map.data,
        weight_map.indices,
        weight_map.indptr,
        slot[n_pair:],
    )


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

    def test_row_sides_key_the_system_and_one_pair_structure_serves_it(self, live_systems, monkeypatch):
        # A CER problem, the same with one Afriat row an equality, and the
        # same with that row's right-hand side +inf differ only in the sides
        # of one constraint row: three systems, each solved, in any order
        # after the others, with the bits of a solve on an empty memo.
        base = build_cer(make_instance(6, 2, seed=3), 0.5, ALL_PAIRS)
        row = np.flatnonzero(base.sense == "L")[0]
        problems = {
            "base": base,
            "equality": replace(base, sense=np.where(np.arange(base.n_rows) == row, "E", base.sense)),
            "free": replace(base, rhs=np.where(np.arange(base.n_rows) == row, np.inf, base.rhs)),
        }
        cold = {}
        for key, problem in problems.items():
            qp._memo = None
            cold[key] = _bits(solve_qp(problem))
        systems = {}
        for key in ("base", "equality", "free", "base", "free", "equality"):
            ctx = qp.QpContext(problems[key])
            assert _bits(ctx.solve()) == cold[key]
            systems[key] = ctx.system
        assert len({id(system) for system in systems.values()}) == 3
        # Upper-side constraint rows: the equality and the free row leave them.
        pair_rows = {key: system.pairs.before.size - 1 for key, system in systems.items()}
        assert pair_rows["equality"] == pair_rows["free"] == pair_rows["base"] - 1
        del systems, ctx

        # One relaxed L0-CER system: one `_Pairs` for every node partition.
        built = []
        pairs_class = qp._Pairs
        monkeypatch.setattr(qp, "_Pairs", lambda rows: built.append(pairs_class(rows)) or built[-1])
        problem, relaxed = _relaxed_l0_cer(make_instance(8, 3, seed=11), 0.4, 2)
        ctx = qp.QpContext(relaxed)
        z = np.flatnonzero(problem.integer)
        parts = []
        # A partition is which selectors are fixed, not the values they take.
        for fixed in ([], [z[0]], [z[1]], [z[0], z[2]], z):
            lower, upper = problem.lower.copy(), problem.upper.copy()
            lower[fixed] = upper[fixed] = 1.0
            ctx.solve(lower, upper)
            parts.append(ctx.system._part)
        assert len({id(part) for part in parts}) == len(parts) == 5
        assert len(built) == 1 and ctx.system.pairs is built[0]

    # K's pattern assembled from the system's pair structure is, array for
    # array, the one built from the partition's own rows alone: node masks
    # of CER, L1-CER and relaxed L0-CER systems, the first node building the
    # structure and the others reusing it.
    @settings(max_examples=25)
    @given(
        kind=st.sampled_from(["cer", "l1-cer", "l0-cer-relaxed"]),
        n=st.integers(3, 12),
        d=st.integers(1, 3),
        seed=st.integers(0, 10_000),
        node_seeds=st.lists(st.integers(0, 2**32 - 1), min_size=1, max_size=4),
    )
    def test_assembled_partition_matches_one_built_from_its_rows(self, kind, n, d, seed, node_seeds):
        ds = make_instance(n, d, seed=seed)
        if kind == "cer":
            problem = build_cer(ds, 0.4, ALL_PAIRS)
        elif kind == "l1-cer":
            problem = add_l1(build_cer(ds, 0.4, ALL_PAIRS), L1Penalty(0.05))
        else:
            _, problem = _relaxed_l0_cer(ds, 0.4, max(1, d - 1))
        qp._memo = None
        ctx = qp.QpContext(problem)
        pairs = None
        for node_seed in node_seeds:
            # Fix each bounded column with probability 0.3, at a finite bound.
            rng = np.random.default_rng(node_seed)
            lower, upper = problem.lower.copy(), problem.upper.copy()
            fix = ctx.bounded[rng.random(ctx.bounded.size) < 0.3]
            at_upper = np.isfinite(upper[fix]) & ((rng.random(fix.size) < 0.5) | ~np.isfinite(lower[fix]))
            lower[fix] = upper[fix] = np.where(at_upper, upper[fix], lower[fix])
            l_s, u_s = ctx._scaled_bounds(lower, upper)
            eq = l_s == u_s
            up, lo = ~eq & (u_s != np.inf), ~eq & (l_s != -np.inf)
            pattern = ctx.system.partition(eq, up, lo).pattern
            pairs = pairs or ctx.system.pairs
            assert ctx.system.pairs is pairs
            wm = pattern.weight_map
            got = (pattern.indices, pattern.indptr, wm.data, wm.indices, wm.indptr, pattern.const_slot)
            for a, b in zip(got, _pattern_from_own_rows(ctx.a_s, eq, up, lo)):
                assert _same_array(a, b)

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
        part = qp._Partition(ctx.system, eq, ~eq & (u_s != np.inf), ~eq & (l_s != -np.inf))
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

    def test_context_keeps_no_reference_to_its_problem(self):
        # A branch-and-bound tree holds its context through the whole solve;
        # the relaxed problem it was built from need not live that long.
        problem = build_cer(make_instance(6, 2, seed=1), 0.5, ALL_PAIRS)
        alive = weakref.ref(problem)
        ctx = qp.QpContext(problem)
        del problem
        gc.collect()
        assert alive() is None
        assert ctx.solve().status is Status.OPTIMAL


_ORACLE_FIT_FAILS = pytest.mark.xfail(
    strict=True, raises=RuntimeError, reason="an oracle support fit ends non-optimal on the IPM (ROADMAP items 6 and 14)"
)
# At k = d the IPM ends the all-ones pinned QP optimal about 3e-6 above the
# root relaxation's optimum, though both have one feasible set, and B&B
# returns that pinned point.
_PINNED_QP_SHORT = pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="the IPM ends a pinned QP optimal short of its optimum (ROADMAP items 6 and 14)",
)


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
    def test_matches_fresh_session_at_every_node(self, n, master):
        problem = _l0_cqr(make_instance(n, 3, seed=n), master, k=2, multiplier=1.0)
        kept = solve_mip(problem)
        rebuilt = _cold_bnb(problem)
        assert kept.status is rebuilt.status is Status.OPTIMAL
        _assert_same_result(kept, rebuilt)

    # The tree's hot nodes supply only bounds and branching choices, so every
    # point that can become the result is a cold solve's: the result is the
    # all-cold B&B's, bit for bit, on full and MST-seed masters alike.
    @settings(max_examples=25)
    @given(
        master=st.sampled_from(["full", "cuts"]),
        n=st.integers(8, 20),
        d=st.integers(3, 6),
        k=st.integers(1, 5),
        multiplier=st.sampled_from([1.0, 10.0]),
        seed=st.integers(0, 10_000),
    )
    def test_hot_nodes_match_the_cold_bnb(self, master, n, d, k, multiplier, seed):
        problem = _l0_cqr(make_instance(n, d, seed=seed), master, min(k, d - 1), multiplier)
        _assert_same_result(solve_mip(problem), _cold_bnb(problem))

    # Two supports both fit the MST-seed master exactly, at objective 0.0:
    # the all-cold B&B returns z = (1, 0, 1, 0, 0, 1), the hot tree reaches
    # (0, 1, 1, 1, 0, 0) first and keeps it.  Both are cold solves' points;
    # which one comes back depends on the tree.  It is the one instance of
    # 300 drawn over test_hot_nodes_match_the_cold_bnb's ranges (numpy
    # default_rng(0)) whose result differs from the all-cold B&B's.
    @pytest.mark.xfail(strict=True, reason="ties, ROADMAP item 7")
    def test_known_tie_depends_on_the_tree(self):
        problem = _l0_cqr(make_instance(18, 6, seed=8298), "cuts", k=3, multiplier=10.0)
        _assert_same_result(solve_mip(problem), _cold_bnb(problem))

    @pytest.mark.parametrize("family", ["quantile", "expectile"])
    def test_one_relaxation_model_per_call(self, monkeypatch, family):
        ds = make_instance(16, 4, seed=1)
        spec = EstimatorSpec(family, 0.5)
        build = build_cqr if family == "quantile" else build_cer
        problem = add_l0(build(ds, 0.5, ALL_PAIRS), L0Penalty(2, anchor_big_m(ds, spec, 1.0)))
        made = []
        for cls in (LpSession, qp.QpContext):

            def init(self, problem, original=cls.__init__):
                made.append(type(self))
                original(self, problem)

            monkeypatch.setattr(cls, "__init__", init)
        sol, solves = _solve_recording(problem)
        assert made == [LpSession if family == "quantile" else qp.QpContext]
        assert sol.nodes == len(solves) > 1
        assert any(s.hot for s in solves) is (family == "quantile")

    @pytest.mark.parametrize("n, d, seed", [(20, 5, 6), (24, 6, 3), (24, 6, 8), (30, 6, 4)])
    @pytest.mark.parametrize("master", ["full", "cuts"])
    def test_cut_off_nodes_are_above_their_cutoff(self, master, n, d, seed):
        problem = _l0_cqr(make_instance(n, d, seed=seed), master, k=2, multiplier=1.0)
        sol, solves = _solve_recording(problem)
        cut = [s for s in solves if s.sol.status is Status.CUTOFF]
        assert cut
        relaxed = replace(problem, integer=np.zeros(problem.n_vars, dtype=bool))
        for s in cut:
            # The incumbent only improves, so no cutoff lies below the
            # result's objective less the gap.
            assert s.bound >= sol.objective - bnb._GAP
            cold = LpSession(replace(relaxed, lower=s.lower, upper=s.upper)).solve()
            assert cold.status is Status.INFEASIBLE or cold.objective >= s.bound - 1e-9

    @pytest.mark.parametrize("master", ["full", "cuts"])
    def test_capped_hot_nodes_get_their_cold_solve(self, master):
        problem = _l0_cqr(make_instance(20, 4, seed=0), master, k=2, multiplier=1.0)
        sol, solves = _solve_recording(problem, hot_iteration_cap=3)
        capped = [i for i, s in enumerate(solves) if s.hot and s.sol.status is Status.ITERATION_LIMIT]
        assert capped and len(capped) < sum(s.hot for s in solves)
        for i in capped:
            hot, after = solves[i], solves[i + 1]
            assert not after.hot
            assert np.array_equal(after.lower, hot.lower) and np.array_equal(after.upper, hot.upper)
        assert sol.nodes == len(solves)
        _assert_same_result(sol, _cold_bnb(problem))

    def test_nodes_and_iterations_count_every_highs_run(self, monkeypatch):
        problem = _l0_cqr(make_instance(24, 6, seed=3), "cuts", k=2, multiplier=1.0)
        runs = []

        def counting(self, original=_core._Highs.run):
            status = original(self)
            runs.append(self.getInfo().simplex_iteration_count)
            return status

        monkeypatch.setattr(_core._Highs, "run", counting)
        sol, solves = _solve_recording(problem)
        assert {s.sol.status for s in solves if s.hot} >= {Status.OPTIMAL, Status.CUTOFF}
        assert sol.nodes == len(runs) == len(solves)
        assert sol.iterations == sum(runs)

    def test_repeated_bounds_are_solved_once(self, small_noisy):
        problem = add_l0(build_cqr(small_noisy, 0.5, ALL_PAIRS), L0Penalty(1, 1.0))
        sol, solves = _solve_recording(problem, incumbent_hint=np.array([1.0, 0.0, 0.0]))
        boxes = [(s.lower[problem.integer].tobytes(), s.upper[problem.integer].tobytes()) for s in solves]
        assert any(s.hot for s in solves)
        assert len(boxes) == len(set(boxes)) == sol.nodes

    # A hint with more than k selectors at 1 is no feasible point: it is
    # skipped without a solve, so the tree is the hint-free one.
    def test_hint_with_more_than_k_selectors_is_skipped(self, small_noisy):
        problem = add_l0(build_cqr(small_noisy, 0.5, ALL_PAIRS), L0Penalty(1, 1.0))
        hinted, solves = _solve_recording(problem, incumbent_hint=np.array([1.0, 1.0, 0.0]))
        plain = solve_mip(problem)
        _assert_same_result(hinted, plain)
        assert hinted.nodes == plain.nodes == len(solves)
        assert hinted.iterations == plain.iterations
        z = problem.integer
        assert not any(np.array_equal(s.lower[z], [1.0, 1.0, 0.0]) for s in solves)

    def test_root_with_more_than_k_selectors_at_one_is_infeasible_unsolved(self, small_noisy):
        problem = add_l0(build_cqr(small_noisy, 0.5, ALL_PAIRS), L0Penalty(1, 1.0))
        lower = problem.lower.copy()
        lower[np.flatnonzero(problem.integer)[:2]] = 1.0
        sol, solves = _solve_recording(replace(problem, lower=lower))
        assert sol.status is Status.INFEASIBLE and sol.x is None
        assert sol.nodes == sol.iterations == len(solves) == 0

    # A root relaxation that stops at the IPM's cap, or at its infeasible
    # verdict, which is no proof, is pruned unproven; with no incumbent the
    # tree has proven nothing, so it is not infeasible.  The injected stop
    # is as the IPM returns it: a capped point keeps x, an infeasible stop
    # has none.
    @pytest.mark.parametrize("root_status", [Status.ITERATION_LIMIT, Status.INFEASIBLE], ids=["capped", "infeasible"])
    def test_capped_root_without_incumbent_reads_iteration_limit(self, monkeypatch, root_status):
        ds = make_instance(12, 3, seed=0)
        spec = EstimatorSpec("expectile", 0.5)
        problem = add_l0(build_cer(ds, 0.5, ALL_PAIRS), L0Penalty(2, anchor_big_m(ds, spec, 1.0)))
        solve, calls = qp.QpContext.solve, []

        def capped_first(self, lower=None, upper=None):
            sol = solve(self, lower, upper)
            calls.append(sol.status)
            if len(calls) > 1:
                return sol
            if root_status is Status.INFEASIBLE:
                return Solution(root_status, None, np.nan, sol.iterations)
            return replace(sol, status=root_status)

        monkeypatch.setattr(qp.QpContext, "solve", capped_first)
        sol = solve_mip(problem)
        assert calls == [Status.OPTIMAL]
        assert sol.status is Status.ITERATION_LIMIT and sol.x is None
        assert sol.nodes == sol.unproven == 1

    # ROADMAP item 6's record on `l0-bnb`'s design at n=20, level 0.5, k=2
    # and the anchor big-M: each box pruned or skipped on a relaxation that
    # ended neither optimal nor infeasible counts once, and the fit still
    # reads optimal.  Seed 9's prune is a node stopped at the IPM's
    # 200-iteration cap, seed 3's an 11-iteration stop short of the
    # contract; L0-CQR's LP nodes all end proven.  These pin the IPM's bits.
    @pytest.mark.parametrize(
        "family, seed, rep, big_m, objective, capped",
        [
            ("expectile", 9, 0, 1.5793148034928581, 4.1201348482120705, [(Status.ITERATION_LIMIT, 200)]),
            ("expectile", 3, 1, 2.144949846905622, 0.6446530927784714, [(Status.ITERATION_LIMIT, 11)]),
            ("quantile", 9, 0, 9.344890674153993, 1.769747281608837, []),
        ],
    )
    def test_boxes_pruned_unproven_are_counted(self, monkeypatch, family, seed, rep, big_m, objective, capped):
        ds = generate_scenario(MCConfig(n=20, d=6, k_true=2, rho=10, seed=seed), rep).dataset
        cap = anchor_big_m(ds, EstimatorSpec(family, 0.5), 1.0)
        assert cap == pytest.approx(big_m, rel=1e-9)
        stops = _record_qp_stops(monkeypatch)
        result = fit(ds, EstimatorSpec(family, 0.5, penalty=L0Penalty(2, cap)))
        assert result.meta.status == "optimal"
        assert result.objective == pytest.approx(objective, rel=1e-9)
        assert stops == capped
        assert result.meta.unproven == len(capped)

    # The IPM's infeasible verdict is its divergence heuristic, not a proof.
    # Here the pinned leaf z = 1 stops infeasible after 45 iterations
    # (test_known_false_infeasible_node), so the tree keeps the z = 0 leaf:
    # the fit reads optimal at 315 times the capped oracle's 0.0100794 on
    # {0}, and counts that leaf unproven.  This pins the IPM's bits.
    def test_ipm_infeasible_box_is_counted_unproven(self, monkeypatch):
        stops = _record_qp_stops(monkeypatch)
        result = fit(make_instance(3, 1, seed=1032), EstimatorSpec("expectile", 0.625, penalty=L0Penalty(1, 5.0)))
        assert result.meta.status == "optimal"
        assert result.objective == pytest.approx(3.178036749197006, rel=1e-9)
        assert stops == [(Status.INFEASIBLE, 45)]
        assert result.meta.unproven == 1

    @pytest.mark.xfail(strict=True, reason="a false infeasible leaf is pruned (ROADMAP items 6 and 14)")
    def test_fit_past_a_false_infeasible_leaf_matches_the_capped_oracle(self):
        ds = make_instance(3, 1, seed=1032)
        spec = EstimatorSpec("expectile", 0.625)
        result = fit(ds, replace(spec, penalty=L0Penalty(1, 5.0)))
        oracle, _ = l0_oracle(ds, spec, 1, big_m=5.0)
        assert result.objective == pytest.approx(oracle, rel=1e-6)

    # A hot solve that raises is not counted and falls back to the cold
    # solve of the same box, so the result is the all-cold B&B's.
    def test_hot_solve_that_raises_falls_back_to_the_cold_solve(self, monkeypatch):
        problem = _l0_cqr(make_instance(20, 4, seed=0), "full", k=2, multiplier=1.0)
        reference = _cold_bnb(problem)
        raised = []

        def failing(self, basis, lower, upper, bound):
            raised.append(bound)
            raise SolverError("injected HiGHS failure")

        monkeypatch.setattr(LpSession, "solve_hot", failing)
        sol, solves = _solve_recording(problem)
        assert raised and not any(s.hot for s in solves)
        assert sol.nodes == len(solves)
        _assert_same_result(sol, reference)

    # With two of three selectors fixed to 1 and k = 2, propagation pins the
    # third to 0: the IPM solves the pinned box once, not first the box with
    # no interior and then its pinned leaf.
    def test_qp_box_at_the_cardinality_is_solved_once(self):
        ds = make_instance(12, 3, seed=2)
        spec = EstimatorSpec("expectile", 0.5)
        problem = add_l0(build_cer(ds, 0.5, ALL_PAIRS), L0Penalty(2, anchor_big_m(ds, spec, 1.0)))
        z = np.flatnonzero(problem.integer)
        lower = problem.lower.copy()
        lower[z[:2]] = 1.0
        sol, solves = _solve_recording(replace(problem, lower=lower))
        assert sol.status is Status.OPTIMAL
        assert sol.nodes == len(solves) == 1
        assert np.array_equal(solves[0].lower[z], [1.0, 1.0, 0.0])
        assert np.array_equal(solves[0].upper[z], [1.0, 1.0, 0.0])

    # The root has more than k positive selectors, so no incumbent exists
    # until the first pinned solve.  The first box with k selectors at 1 is
    # pinned by propagation and solved cold at once, with no hot solve of
    # the node's own bounds before it.
    def test_pinned_lp_box_without_incumbent_is_solved_cold(self):
        problem = _l0_cqr(make_instance(20, 4, seed=0), "full", k=2, multiplier=1.0)
        z = problem.integer
        sol, solves = _solve_recording(problem)
        assert np.count_nonzero(solves[0].sol.x[z] > bnb._INT_TOL) > 2
        at_k = [np.count_nonzero(s.lower[z] == 1.0) == 2 for s in solves]
        first = at_k.index(True)
        assert first > 0 and not solves[first].hot
        assert np.array_equal(solves[first].lower[z], solves[first].upper[z])
        assert not any(np.array_equal(s.lower[z], s.upper[z]) for s in solves[:first])
        assert sol.status is Status.OPTIMAL

    # A root with at most k positive selectors: the include-first dive
    # inherits its optimum down to the support of those selectors, whose
    # cold pinned solve proves the root's objective optimal.  The IPM
    # centres the selectors, which cost nothing, so an L0-CER root has every
    # selector positive and only k = d gives the case.
    @pytest.mark.parametrize("family, n, d, seed, k", [("quantile", 12, 3, 6, 2), ("expectile", 12, 3, 0, 3)])
    def test_root_with_at_most_k_positive_selectors_takes_two_solves(self, family, n, d, seed, k):
        ds = make_instance(n, d, seed=seed)
        spec = EstimatorSpec(family, 0.5)
        build = build_cqr if family == "quantile" else build_cer
        problem = add_l0(build(ds, 0.5, ALL_PAIRS), L0Penalty(k, anchor_big_m(ds, spec, 1.0)))
        z = problem.integer
        sol, solves = _solve_recording(problem)
        assert sol.status is Status.OPTIMAL
        assert sol.nodes == len(solves) == 2
        root, pinned = solves
        positive = root.sol.x[z] > bnb._INT_TOL
        assert not root.hot and np.count_nonzero(positive) <= k
        assert not pinned.hot
        assert np.array_equal(pinned.lower[z], positive) and np.array_equal(pinned.upper[z], positive)
        assert abs(sol.objective - root.sol.objective) <= bnb._GAP

    # An include-child whose parent's optimum, with its selector raised to 1,
    # meets sum(z) <= k takes that point and objective without a solve; it is
    # the optimum of the child's box.
    @pytest.mark.parametrize("family", ["quantile", "expectile"])
    def test_inheriting_include_child_makes_no_solve(self, monkeypatch, family):
        made = []

        def recording(*args, original=bnb._Node, **kwargs):
            made.append(original(*args, **kwargs))
            return made[-1]

        monkeypatch.setattr(bnb, "_Node", recording)
        ds = make_instance(20, 4, seed=1)
        spec = EstimatorSpec(family, 0.5)
        build = build_cqr if family == "quantile" else build_cer
        problem = add_l0(build(ds, 0.5, ALL_PAIRS), L0Penalty(3, anchor_big_m(ds, spec, 1.0)))
        sol, solves = _solve_recording(problem)
        inherited = [node for node in made if node.sol is not None]
        assert any(np.any(node.lo < node.up) for node in inherited)
        assert sol.nodes == len(solves)
        boxes = {(s.lower.tobytes(), s.upper.tobytes()) for s in solves}
        relaxed = replace(problem, integer=np.zeros(problem.n_vars, dtype=bool))
        for node in inherited:
            # The node's full bounds: the problem's, with the selectors' from its box.
            lower, upper = problem.lower.copy(), problem.upper.copy()
            lower[problem.integer], upper[problem.integer] = node.lo, node.up
            # A pinned box is solved once more, as the leaf try_fixed reads.
            if np.any(node.lo < node.up):
                assert (lower.tobytes(), upper.tobytes()) not in boxes
            assert node.sol.objective == node.bound
            x = node.sol.x
            assert np.all(x >= lower - 1e-6) and np.all(x <= upper + 1e-6)
            own = (qp.QpContext if problem.has_quad else LpSession)(relaxed).solve(lower, upper)
            assert own.status is Status.OPTIMAL
            # Within the IPM's accuracy: its objectives carry errors near 1e-6.
            assert own.objective == pytest.approx(node.sol.objective, rel=1e-5, abs=1e-9)

    # A wrong L0-CER fit: {1, 3} at 3.7100763774717103 was returned once,
    # after the node holding {2, 3} was pruned at the IPM's cap.  With k = 2
    # every support of size at most 2 lies in some two-selector pinned box,
    # so the optimum is the best of the 15 pinned solves.  Four of them stop
    # short of the IPM's 1e-6 acceptance (ROADMAP item 6), at points more
    # than ten times above the best.
    def test_l0_cer_fit_is_the_best_pinned_support(self):
        ds = generate_scenario(MCConfig(n=20, d=6, k_true=2, rho=10, seed=10), 14).dataset
        spec = EstimatorSpec("expectile", 0.5)
        penalty = L0Penalty(2, anchor_big_m(ds, spec, 1.0))
        problem = add_l0(build_cer(ds, 0.5, ALL_PAIRS), penalty)
        z = np.flatnonzero(problem.integer)
        ctx = qp.QpContext(replace(problem, integer=np.zeros(problem.n_vars, dtype=bool)))
        pinned = {}
        for pair in combinations(range(6), 2):
            lower, upper = problem.lower.copy(), problem.upper.copy()
            lower[z] = upper[z] = 0.0
            lower[z[list(pair)]] = upper[z[list(pair)]] = 1.0
            pinned[pair] = ctx.solve(lower, upper)
        optimal = {pair: sol.objective for pair, sol in pinned.items() if sol.optimal}
        best = min(optimal, key=optimal.get)
        assert len(optimal) == 11
        assert all(sol.objective > 10 * optimal[best] for sol in pinned.values() if not sol.optimal)
        result = fit(ds, EstimatorSpec("expectile", 0.5, penalty=penalty))
        assert result.objective == optimal[best]
        assert tuple(np.flatnonzero(result.z)) == best == (2, 3)

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

    # L0-CER against the capped oracle, whose support fits never go through
    # solve_mip.  The instances were fixed before the first run.  In each
    # xfail one support fit of the oracle ends non-optimal (two at the IPM's
    # iteration cap, one on a singular K); solve_mip ends optimal first.
    @pytest.mark.parametrize(
        "n, d, seed, level, k, multiplier",
        [
            (8, 2, 0, 0.5, 1, 1.0),
            (10, 3, 1, 0.5, 2, 1.0),
            pytest.param(12, 3, 2, 0.3, 1, 0.5, marks=_ORACLE_FIT_FAILS),
            (12, 3, 3, 0.7, 2, 0.5),
            (9, 3, 4, 0.5, 2, 2.0),
            (11, 2, 5, 0.4, 1, 2.0),
            (12, 2, 6, 0.6, 2, 0.5),
            pytest.param(10, 3, 7, 0.5, 3, 1.0, marks=_ORACLE_FIT_FAILS),
            pytest.param(12, 3, 8, 0.5, 2, 1.0, marks=_ORACLE_FIT_FAILS),
            (7, 3, 9, 0.25, 1, 1.0),
            (12, 3, 10, 0.75, 3, 0.5),
            (11, 3, 11, 0.5, 1, 0.5),
            pytest.param(12, 3, 7, 0.5, 3, 1.0, marks=_PINNED_QP_SHORT),
        ],
    )
    def test_l0_cer_matches_the_capped_oracle(self, n, d, seed, level, k, multiplier):
        ds = make_instance(n, d, seed=seed)
        spec = EstimatorSpec("expectile", level)
        big_m = anchor_big_m(ds, spec, multiplier)
        sol = solve_mip(add_l0(build_cer(ds, level, ALL_PAIRS), L0Penalty(k, big_m)))
        assert sol.status is Status.OPTIMAL
        oracle_obj, _ = l0_oracle(ds, spec, k, big_m=big_m)
        assert abs(sol.objective - oracle_obj) <= 1e-6 * max(1.0, abs(oracle_obj))


def _l0_cqr(ds: Dataset, master: str, k: int, multiplier: float) -> OptProblem:
    """L0-CQR at the median on all Afriat rows or on the MST seed pairs,
    with big-M from `anchor_big_m`."""
    spec = EstimatorSpec("quantile", 0.5)
    pairs = ALL_PAIRS if master == "full" else initial_constraints(ds)
    return add_l0(build_cqr(ds, 0.5, pairs), L0Penalty(k, anchor_big_m(ds, spec, multiplier)))


def _record_qp_stops(monkeypatch) -> list:
    """The status and iterations of every `QpContext.solve` from here on
    that ends non-optimal, in order."""
    solve, stops = qp.QpContext.solve, []

    def recorded(self, lower=None, upper=None):
        sol = solve(self, lower, upper)
        if not sol.optimal:
            stops.append((sol.status, sol.iterations))
        return sol

    monkeypatch.setattr(qp.QpContext, "solve", recorded)
    return stops


def _cold_bnb(problem: OptProblem) -> Solution:
    """solve_mip with every LP relaxation, hot nodes included, solved cold in
    a fresh session: the branch-and-bound whose result the tree's hot nodes
    must not change."""
    relaxed = replace(problem, integer=np.zeros(problem.n_vars, dtype=bool))
    original = LpSession.solve

    def fresh(self, lower, upper):
        return original(LpSession(replace(relaxed, lower=lower, upper=upper)))

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(LpSession, "solve", fresh)
        mp.setattr(LpSession, "solve_hot", lambda self, basis, lower, upper, bound: fresh(self, lower, upper))
        return solve_mip(problem)


def _assert_same_result(a: Solution, b: Solution) -> None:
    assert a.status is b.status
    assert np.float64(a.objective).tobytes() == np.float64(b.objective).tobytes()
    assert (a.x is None) is (b.x is None)
    if a.x is not None:
        assert a.x.tobytes() == b.x.tobytes()


def _solve_recording(problem: OptProblem, incumbent_hint=None, hot_iteration_cap=None) -> tuple:
    """solve_mip on `problem`, and every relaxation it solved, in order:
    whether it was a hot LP solve, its bounds, its objective bound (inf for
    a cold solve) and its outcome.  `hot_iteration_cap` caps the simplex
    iterations of the hot solves."""
    solves = []

    def record(hot, lower, upper, bound, sol):
        solves.append(SimpleNamespace(hot=hot, lower=lower.copy(), upper=upper.copy(), bound=bound, sol=sol))
        return sol

    def hot(self, basis, lower, upper, bound, original=LpSession.solve_hot):
        if hot_iteration_cap is None:
            return record(True, lower, upper, bound, original(self, basis, lower, upper, bound))
        # The session's cold solves share the cap option: restore it after the hot solve.
        self._highs.setOptionValue("simplex_iteration_limit", hot_iteration_cap)
        try:
            return record(True, lower, upper, bound, original(self, basis, lower, upper, bound))
        finally:
            self._highs.setOptionValue("simplex_iteration_limit", lp_module._MAX_SIMPLEX_ITERS)

    with pytest.MonkeyPatch.context() as mp:
        for cls in (LpSession, qp.QpContext):

            def cold(self, lower, upper, original=cls.solve):
                return record(False, lower, upper, np.inf, original(self, lower, upper))

            mp.setattr(cls, "solve", cold)
        mp.setattr(LpSession, "solve_hot", hot)
        return solve_mip(problem, incumbent_hint), solves


class TestSelectorRowSkip:
    # Against every box over d <= 5 selectors (each free, at 0 or at 1) and
    # every k < d: the box's 0/1 points with sum(z) <= k are what
    # propagation may keep.  None exactly when there are none; otherwise
    # each selector's new bounds are the least and greatest value those
    # points give it, so it is pinned exactly when they all agree on it.
    @pytest.mark.parametrize("d", range(1, 6))
    def test_propagate_matches_the_box_points(self, d):
        for box in product([(0, 0), (1, 1), (0, 1)], repeat=d):
            lo, up = np.array(box, dtype=float).T
            for k in range(d):
                points = np.array([z for z in product(*(range(l, u + 1) for l, u in box)) if sum(z) <= k])
                got = bnb._propagate(float(k), lo.copy(), up.copy())
                if not points.size:
                    assert got is None
                else:
                    assert [g.tolist() for g in got] == [points.min(axis=0).tolist(), points.max(axis=0).tolist()]

    # The cardinality row sum(z) <= 2 over three selectors, as coefficients
    # and right-hand side; `_propagate` takes only its right-hand side.
    @pytest.mark.parametrize(
        "coef, rhs, lo, up, breaks",
        [
            ([[1, 1, 1]], [2], [1, 1, 0], [1, 1, 1], False),
            ([[1, 1, 1]], [2], [1, 1, 1], [1, 1, 1], True),
        ],
    )
    def test_box_breaks_by_least_activity(self, coef, rhs, lo, up, breaks):
        assert np.array_equal(coef, np.ones((1, len(lo))))
        got = bnb._propagate(float(rhs[0]), np.array(lo, dtype=float), np.array(up, dtype=float))
        assert (got is None) is breaks

    @pytest.mark.parametrize(
        "coef, rhs, lo, up, box",
        [
            # sum(z) <= 2 with two selectors at 1 pins the third to 0 ...
            ([[1, 1, 1]], [2], [1, 1, 0], [1, 1, 1], ([1, 1, 0], [1, 1, 0])),
            # ... with one at 1 it leaves the box alone ...
            ([[1, 1, 1]], [2], [1, 0, 0], [1, 1, 1], ([1, 0, 0], [1, 1, 1])),
            # ... and with three at 1 it rules the box out.
            ([[1, 1, 1]], [2], [1, 1, 1], [1, 1, 1], None),
        ],
    )
    def test_propagate_pins_rules_out_and_leaves_alone(self, coef, rhs, lo, up, box):
        assert np.array_equal(coef, np.ones((1, len(lo))))
        got = bnb._propagate(float(rhs[0]), np.array(lo, dtype=float), np.array(up, dtype=float))
        if box is None:
            assert got is None
        else:
            assert [g.tolist() for g in got] == [list(map(float, b)) for b in box]

    def test_the_cardinality_row_is_the_only_selector_row(self, small_noisy):
        problem = add_l0(build_cqr(small_noisy, 0.5, ALL_PAIRS), L0Penalty(2, 5.0))
        assert bnb._cardinality(problem, np.flatnonzero(problem.integer)) == 2.0

    @pytest.mark.parametrize("shape", ["second-selector-row", "coefficient-2", "no-selectors"])
    def test_another_mip_shape_is_rejected(self, small_noisy, shape):
        problem = build_cqr(small_noisy, 0.5, ALL_PAIRS)
        if shape != "no-selectors":
            problem = add_l0(problem, L0Penalty(2, 5.0))
            a = problem.a.tocsr(copy=True)
            if shape == "coefficient-2":
                a.data[a.indptr[-2] :] = 2.0  # add_l0's cardinality row is the last
                problem = replace(problem, a=a)
            else:
                row = sparse.csr_matrix(problem.integer.astype(float)[None, :])
                problem = replace(problem, a=sparse.vstack([a, row]).tocsr(), sense=np.append(problem.sense, "L"),
                                  rhs=np.append(problem.rhs, 3.0))
        with pytest.raises(ValueError, match=r"sum\(z\) <= k"):
            bnb._cardinality(problem, np.flatnonzero(problem.integer))
        with pytest.raises(ValueError, match=r"sum\(z\) <= k"):
            solve_mip(problem)

    # An inherited box with k = 3 of 4 selectors at 1 has its pinned leaf
    # stop at the IPM's cap, so it is split on its free selector, and the
    # include-child, with all four at 1, is ruled out without a solve.  The
    # case rests on that IPM stop, so it moves with the IPM's bits (ROADMAP
    # items 6 and 14).
    def test_child_past_the_cardinality_is_ruled_out_unsolved(self, monkeypatch):
        ds = make_instance(7, 4, seed=3496)
        spec = EstimatorSpec("expectile", 0.7)
        problem = add_l0(build_cer(ds, 0.7, ALL_PAIRS), L0Penalty(3, anchor_big_m(ds, spec, 0.5)))
        ruled_out, propagate = [], bnb._propagate

        def recording(k, lo, up):
            box = propagate(k, lo, up)
            if box is None:
                ruled_out.append(lo.tolist())
            return box

        monkeypatch.setattr(bnb, "_propagate", recording)
        sol, solves = _solve_recording(problem)
        z = problem.integer
        assert ruled_out == [[1.0, 1.0, 1.0, 1.0]]
        assert not any(np.all(s.lower[z] == 1.0) for s in solves)
        assert sol.status is Status.OPTIMAL and sol.nodes == len(solves)

    # Propagation only rules out boxes with more than k selectors at 1 and
    # pins those with k: the tree without it returns the same point, and
    # every box solved with it has at most k selectors at 1.
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
        skipping, solves = _solve_recording(problem)
        lowers = [s.lower[problem.integer] for s in solves]
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(bnb, "_propagate", lambda k, lo, up: (lo, up))
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


def _read_back(problem: OptProblem, tmp_path) -> _core._Highs:
    """A fresh HiGHS instance holding `problem` as read from its MPS export."""
    path = tmp_path / "model.mps"
    path.write_text(export_mps(problem))
    highs = _core._Highs()
    highs.setOptionValue("output_flag", False)
    assert highs.readModel(str(path)) == _core.HighsStatus.kOk
    return highs


def _read_back_matrices(problem: OptProblem, tmp_path) -> tuple:
    """The read-back model and its constraint matrix and Hessian as dense arrays."""
    model = _read_back(problem, tmp_path).getModel()
    a, h = model.lp_.a_matrix_, model.hessian_
    matrix = sparse.csc_array((a.value_, a.index_, a.start_), shape=problem.a.shape).toarray()
    hessian = np.zeros((problem.n_vars, problem.n_vars))
    if h.dim_:  # HiGHS reads a Hessian with every diagonal entry stored, zeros included
        hessian = sparse.csc_array((h.value_, h.index_, h.start_), shape=hessian.shape).toarray()
    return model.lp_, matrix, hessian


class TestExportMps:
    # HiGHS solves the export it reads back, CQR and L1-CQR by simplex,
    # L0-CQR by its MIP solver and CER and L1-CER by its QP solver, to the
    # fit's objective; it solves no MIQP, so the L0-CER export is only read.
    @pytest.mark.parametrize(
        "family, penalty",
        [
            ("quantile", None), ("quantile", "l1"), ("quantile", "l0"),
            ("expectile", None), ("expectile", "l1"), ("expectile", "l0"),
        ],
    )
    def test_highs_reads_the_export_back(self, tmp_path, family, penalty):
        ds = make_instance(8, 3, seed=1)
        spec = EstimatorSpec(family, 0.5)
        if penalty == "l1":
            spec = replace(spec, penalty=L1Penalty(0.1))
        elif penalty == "l0":
            spec = replace(spec, penalty=L0Penalty(2, anchor_big_m(ds, spec, 1.0)))
        highs = _read_back(make_builder(ds, spec)(ALL_PAIRS), tmp_path)
        if family == "expectile" and penalty == "l0":
            return
        highs.run()
        assert highs.getModelStatus() == _core.HighsModelStatus.kOptimal
        expected = fit(ds, spec).objective
        assert highs.getInfo().objective_function_value == pytest.approx(expected, rel=1e-6)

    # Integer columns on both sides of a continuous one, and columns bounded
    # only above (MI) and below (LO): HiGHS reads back the problem's costs,
    # bounds and integrality.
    def test_read_back_keeps_costs_bounds_and_integrality(self, tmp_path):
        problem = lp(
            [1.0, -2.0, 0.5, 3.0],
            [[1.0, 1.0, 0.0, 0.0], [0.0, 1.0, -1.0, 1.0]],
            "LE",
            [4.0, 2.0],
            lower=[0.0, -np.inf, -2.0, 1.5],
            upper=[3.0, 5.0, 4.0, np.inf],
            integer=[True, False, True, False],
        )
        model = _read_back(problem, tmp_path).getLp()
        kind = _core.HighsVarType
        assert list(model.col_cost_) == problem.obj_linear.tolist()
        assert list(model.col_lower_) == problem.lower.tolist()
        assert list(model.col_upper_) == problem.upper.tolist()
        assert list(model.row_lower_) == [-np.inf, 2.0]
        assert list(model.row_upper_) == problem.rhs.tolist()
        assert list(model.integrality_) == [kind.kInteger, kind.kContinuous, kind.kInteger, kind.kContinuous]

    def test_sections_present(self):
        sol = lp([1.0], [[-1.0]], "L", [-3.0])
        text = export_mps(sol)
        for section in ("NAME", "ROWS", "COLUMNS", "RHS", "BOUNDS", "ENDATA"):
            assert section in text
        assert "QUADOBJ" not in text

    def test_markers_bracket_binaries(self, small_noisy):
        problem = add_l0(build_cqr(small_noisy, 0.5, ALL_PAIRS), L0Penalty(2, 5.0))
        text = export_mps(problem)
        assert "'INTORG'" in text
        assert "'INTEND'" in text
        assert text.index("'INTORG'") < text.index("'INTEND'")

    def test_hessian_entry_count(self, small_noisy, tmp_path):
        problem = build_cer(small_noisy, 0.5, ALL_PAIRS)
        _, _, hessian = _read_back_matrices(problem, tmp_path)
        assert np.count_nonzero(hessian) == np.count_nonzero(np.diag(hessian)) == 2 * small_noisy.n

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

    def test_names_without_layout(self, tmp_path):
        problem = lp([1.0, 1.0], [[-1.0, 0.0], [1.0, 1.0]], "LE", [-3.0, 5.0])
        model, matrix, _ = _read_back_matrices(problem, tmp_path)
        assert list(model.col_names_) == ["X1", "X2"]
        assert list(model.row_names_) == ["R1", "R2"]
        assert list(model.row_lower_) == [-np.inf, 5.0]  # R1 reads <=, R2 reads =
        assert matrix[1, 1] == 1.0  # X2 in R2

    # HiGHS reads back the names, integrality and every number of the
    # export; its writer keeps 15 significant digits.
    @pytest.mark.parametrize("make", [_l0_cqr_full, _cer_cut_master], ids=["l0-cqr-full", "cer-cut-master"])
    def test_read_back_matches_the_problem(self, make, tmp_path):
        problem = make()
        model, matrix, hessian = _read_back_matrices(problem, tmp_path)
        assert (list(model.col_names_), list(model.row_names_)) == _names(problem)
        integer = [j for j, kind in enumerate(model.integrality_) if kind == _core.HighsVarType.kInteger]
        assert integer == np.flatnonzero(problem.integer).tolist()
        quad = np.zeros(problem.n_vars) if problem.obj_quad is None else 2 * problem.obj_quad
        for read, written in (
            (model.col_cost_, problem.obj_linear),
            (model.col_lower_, problem.lower),
            (model.col_upper_, problem.upper),
            (model.row_lower_, np.where(problem.sense == "E", problem.rhs, -np.inf)),
            (model.row_upper_, problem.rhs),
            (matrix, problem.a.toarray()),
            (hessian, np.diag(quad)),
        ):
            np.testing.assert_allclose(read, written, rtol=1e-14, atol=0)
