import numpy as np
import pytest
from scipy import sparse

from cqreg import (
    ALL_PAIRS,
    Dataset,
    EstimatorSpec,
    L0Penalty,
    OptProblem,
    Status,
    add_l0,
    build_cer,
    build_cqr,
    export_mps,
    fit,
    solve_lp,
    solve_mip,
    solve_qp,
)
from cqreg.solver import bnb
from tests.conftest import make_instance


def lp(c, rows, sense, rhs, lower=None, upper=None, quad=None, integer=None):
    c = np.asarray(c, dtype=float)
    nv = c.shape[0]
    a = sparse.csr_matrix(np.asarray(rows, dtype=float).reshape(-1, nv))
    m = a.shape[0]
    return OptProblem(
        obj_linear=c,
        obj_quad=None if quad is None else np.asarray(quad, dtype=float),
        a=a,
        sense=np.asarray(list(sense)),
        rhs=np.asarray(rhs, dtype=float),
        lower=np.full(nv, -np.inf) if lower is None else np.asarray(lower, dtype=float),
        upper=np.full(nv, np.inf) if upper is None else np.asarray(upper, dtype=float),
        integer=np.zeros(nv, dtype=bool) if integer is None else np.asarray(integer, dtype=bool),
        var_names=tuple(f"X{j + 1}" for j in range(nv)),
        row_names=tuple(f"R{i + 1}" for i in range(m)),
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
        sol = solve_lp(build_cqr(ds, 0.7, ALL_PAIRS))
        assert sol.status is Status.OPTIMAL
        assert sol.dual_objective == pytest.approx(sol.objective, abs=1e-6)

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
            base.var_names,
            base.row_names,
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
            problem.var_names,
            problem.row_names,
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
            problem.var_names,
            problem.row_names,
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

    def test_miqp(self, small_noisy):
        anchor = fit(small_noisy, EstimatorSpec("expectile", 0.5))
        m = 10.0 * max(anchor.beta.max(), 1e-6)
        problem = add_l0(build_cer(small_noisy, 0.5, ALL_PAIRS), L0Penalty(1, m))
        sol = solve_mip(problem)
        assert sol.status is Status.OPTIMAL
        z = sol.x[problem.integer]
        assert z.sum() <= 1


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
        expected = [name for name in problem.var_names if name in set(seen)]
        assert seen == expected

    def test_identical_output(self, small_noisy):
        problem = build_cqr(small_noisy, 0.9, ALL_PAIRS)
        assert export_mps(problem) == export_mps(problem)
