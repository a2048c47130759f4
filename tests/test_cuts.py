import numpy as np
import pytest

from cqreg import (
    ALL_PAIRS,
    Dataset,
    EstimatorSpec,
    L0Penalty,
    build_cqr,
    build_cer,
    fit,
    initial_constraints,
    separate,
    solve_lp,
    solve_with_cuts,
)
from cqreg.cuts import MST, SPANNING_PATH, CutLoopLimitError
from cqreg.estimators import make_builder
from cqreg.model import extract_fit
from tests.conftest import make_instance


class TestInitialConstraints:
    def test_collinear_mst(self):
        # x = (1, 2, 10): the unique MST is 1-2, 2-10.
        ds = Dataset(np.array([[1.0], [2.0], [10.0]]), np.array([1.0, 2.0, 3.0]))
        pairs = set(initial_constraints(ds, MST))
        assert pairs == {(0, 1), (1, 0), (1, 2), (2, 1)}

    def test_two_observations(self):
        ds = Dataset(np.array([[1.0], [5.0]]), np.array([1.0, 2.0]))
        assert set(initial_constraints(ds, MST)) == {(0, 1), (1, 0)}
        assert set(initial_constraints(ds, SPANNING_PATH)) == {(0, 1)}

    def test_mst_pair_count(self):
        ds = make_instance(100, 6)
        assert len(initial_constraints(ds, MST)) == 198  # 2(n-1), vs 9900 full

    def test_spanning_path_is_greedy_walk(self):
        ds = make_instance(30, 3, seed=2)
        pairs = list(initial_constraints(ds, SPANNING_PATH))
        assert len(pairs) == 29
        order = [pairs[0][0]] + [h for _, h in pairs]
        assert order[0] == 0
        assert sorted(order) == list(range(30))

    def test_unknown_strategy(self):
        ds = make_instance(5, 2)
        with pytest.raises(ValueError):
            initial_constraints(ds, "random")


class TestSeparate:
    def test_feasible_fit_yields_nothing(self, small_noisy):
        result = fit(small_noisy, EstimatorSpec("quantile", 0.5))
        assert separate(result, small_noisy, 1e-6) == []

    def test_hand_built_violation_matches_brute_force(self):
        # Flat hyperplane 0 undercuts the fitted value at point 1 by 0.5;
        # a brute-force scan of all pairs is the oracle for the reported
        # minimizers, values and tie-breaks.
        ds = Dataset(np.array([[1.0], [2.0], [3.0]]), np.array([1.0, 1.5, 1.2]))
        from cqreg.model import FitMeta, FitResult

        y_hat = np.array([1.0, 1.5, 1.2])
        beta = np.array([[0.0], [0.0], [0.0]])
        result = FitResult(
            alpha=y_hat.copy(),
            beta=beta,
            eps_plus=np.zeros(3),
            eps_minus=np.zeros(3),
            y_hat=y_hat,
            z=None,
            objective=0.0,
            meta=FitMeta(status="optimal"),
        )
        slack = result.alpha[:, None] + beta @ ds.inputs.T - y_hat[None, :]
        found = separate(result, ds, 0.01)
        assert (0, 1, -0.5) in found
        for i, m, v in found:
            assert v == pytest.approx(slack[i].min())
            assert m == int(np.argmin(slack[i]))
        assert {i for i, _, _ in found} == {
            i for i in range(3) if slack[i].min() < -0.01
        }

    def test_tolerance_gate(self, small_noisy):
        result = fit(small_noisy, EstimatorSpec("quantile", 0.5))
        # All slacks are >= -1e-9 at the optimum; a loose gate reports nothing.
        assert separate(result, small_noisy, 0.01) == []


class TestSolveWithCuts:
    def test_small_noiseless_terminates_sparse(self):
        rng = np.random.default_rng(11)
        X = rng.uniform(1.0, 10.0, (5, 2))
        ds = Dataset(X, X.sum(axis=1))
        builder = make_builder(ds, EstimatorSpec("quantile", 0.5))
        result, stats = solve_with_cuts(builder, ds, tol=1e-6)
        full = solve_lp(builder(ALL_PAIRS))
        assert stats.constraints < 20  # n(n-1) = 20
        assert result.objective == pytest.approx(full.objective, abs=1e-7)

    @pytest.mark.parametrize("tau", [0.5, 0.9])
    def test_matches_full_solve(self, tau):
        ds = make_instance(60, 4, seed=5)
        builder = make_builder(ds, EstimatorSpec("quantile", tau))
        result, stats = solve_with_cuts(builder, ds, tol=1e-6)
        full = solve_lp(builder(ALL_PAIRS))
        assert abs(result.objective - full.objective) <= 1e-4
        assert stats.max_violation >= -1e-6

    def test_immediate_feasibility_is_one_iteration(self):
        # Two observations: the seed pairs already cover the full system.
        ds = Dataset(np.array([[1.0], [2.0]]), np.array([1.0, 2.0]))
        builder = make_builder(ds, EstimatorSpec("quantile", 0.5))
        result, stats = solve_with_cuts(builder, ds, strategy=MST, tol=1e-6)
        assert stats.iterations == 1
        assert stats.added == (0,)

    def test_objective_monotone_over_rounds(self):
        ds = make_instance(40, 3, seed=6)
        spec = EstimatorSpec("quantile", 0.7)
        builder = make_builder(ds, spec)
        active = initial_constraints(ds, MST)
        objectives = []
        for _ in range(200):
            problem = builder(active)
            sol = solve_lp(problem)
            objectives.append(sol.objective)
            result = extract_fit(problem, ds, sol)
            violated = separate(result, ds, 1e-6)
            if not violated:
                break
            active.extend((i, m) for i, m, _ in violated)
        assert len(objectives) > 1
        # Rows are only added, so the master optimum cannot decrease.
        assert (np.diff(objectives) >= -1e-9).all()

    def test_round_cap_carries_best_fit(self):
        ds = make_instance(30, 3, seed=7)
        builder = make_builder(ds, EstimatorSpec("quantile", 0.5))
        with pytest.raises(CutLoopLimitError) as err:
            solve_with_cuts(builder, ds, tol=1e-9, max_rounds=2)
        assert err.value.fit is not None
        assert err.value.stats.iterations == 2

    def test_l0_master_wrapped_as_mip(self):
        ds = make_instance(12, 3, seed=8)
        anchor = fit(ds, EstimatorSpec("quantile", 0.5))
        pen = L0Penalty(1, 10.0 * max(anchor.beta.max(), 1e-6))
        spec = EstimatorSpec("quantile", 0.5, penalty=pen)
        via_cuts = fit(ds, EstimatorSpec("quantile", 0.5, penalty=pen, solve="cuts", tol=1e-6))
        via_full = fit(ds, spec)
        assert via_cuts.objective == pytest.approx(via_full.objective, abs=1e-4)
        assert via_cuts.z is not None
        assert via_cuts.z.sum() <= 1

    def test_cer_cut_loop_matches_full(self):
        ds = make_instance(40, 3, seed=9)
        builder = make_builder(ds, EstimatorSpec("expectile", 0.8))
        result, _ = solve_with_cuts(builder, ds, tol=1e-6)
        from cqreg import solve_qp

        full = solve_qp(builder(ALL_PAIRS))
        assert abs(result.objective - full.objective) <= 1e-4
