from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.sparse.csgraph import minimum_spanning_tree
from scipy.spatial.distance import pdist, squareform

from cqreg import (
    ALL_PAIRS,
    Dataset,
    EstimatorSpec,
    L0Penalty,
    L1Penalty,
    build_cqr,
    build_cer,
    fit,
    initial_constraints,
    separate,
    solve_lp,
    solve_with_cuts,
)
from cqreg import cuts, estimators
from cqreg.cuts import CutLoopLimitError
from cqreg.estimators import make_builder
from cqreg.model import extract_fit, validate_fit
from tests.conftest import make_instance


class TestInitialConstraints:
    @pytest.mark.parametrize("d", [1, 6, 12])
    def test_distances_equal_pdist(self, d):
        # pdist is the reference the seed distances once came from.
        rng = np.random.default_rng(d)
        for n in (2, 5, 31, 120):
            for scale in (1e-3, 1.0, 1e4):
                X = rng.uniform(1.0, 10.0, (n, d)) * scale
                X[n // 2] = X[0]  # a duplicate row, at distance exactly 0
                assert np.array_equal(cuts._distances(X), squareform(pdist(X)))

    def test_seeds_match_pdist_seeds(self, monkeypatch, small_noisy, noiseless_linear):
        instances = (small_noisy, noiseless_linear, make_instance(100, 6), make_instance(30, 3, seed=2), make_instance(5, 2))
        # Consecutive instances differ, so the memo answers no call after this.
        monkeypatch.setattr(cuts, "_seed_memo", None)
        got = [initial_constraints(ds) for ds in instances]
        monkeypatch.setattr(cuts, "_distances", lambda X: squareform(pdist(X)))
        assert [initial_constraints(ds) for ds in instances] == got

    @pytest.mark.parametrize("kind", ["uniform", "integer-grid", "duplicate-rows", "closer-than-1e-8"])
    @pytest.mark.parametrize("d", [1, 2, 4])
    def test_tree_equals_csgraph_tree(self, monkeypatch, kind, d):
        # csgraph's Kruskal is the reference the numpy tree replaces; ties
        # between equal distances must pick the same edges.
        rng = np.random.default_rng([d, len(kind)])
        for n in (2, 3, 7, 20, 45):
            X = rng.uniform(1.0, 10.0, (n, d))
            if kind == "integer-grid":
                X = rng.integers(0, 3, (n, d)).astype(float)
            elif kind == "duplicate-rows":
                X = rng.integers(0, 4, (n, d)).astype(float)
                X[rng.integers(0, n, max(1, n // 3))] = X[0]
            elif kind == "closer-than-1e-8":
                X[1::2] = X[0::2][: n // 2] + rng.choice([0.0, 3e-9, 1e-8, 2e-8], (n // 2, 1))
            monkeypatch.setattr(cuts, "_seed_memo", None)
            tree = minimum_spanning_tree(cuts._distances(X)).tocoo()
            want = sorted((min(a, b), max(a, b)) for a, b in zip(tree.row.tolist(), tree.col.tolist()))
            got = initial_constraints(Dataset(X, np.zeros(n)))
            assert got == [pair for a, b in want for pair in ((a, b), (b, a))]

    @pytest.mark.parametrize("w", [0.0, np.nextafter(1e-8, 0), 1e-8, np.nextafter(1e-8, 1), np.inf])
    def test_tree_reads_tiny_and_infinite_entries_as_csgraph_does(self, w):
        dist = np.array([[0.0, w, 1.0], [w, 0.0, 1.0], [1.0, 1.0, 0.0]])
        tree = minimum_spanning_tree(dist).tocoo()
        assert cuts._spanning_tree(dist) == sorted(zip(tree.row.tolist(), tree.col.tolist()))

    def test_collinear_mst(self):
        # x = (1, 2, 10): the unique MST is 1-2, 2-10.
        ds = Dataset(np.array([[1.0], [2.0], [10.0]]), np.array([1.0, 2.0, 3.0]))
        pairs = set(initial_constraints(ds))
        assert pairs == {(0, 1), (1, 0), (1, 2), (2, 1)}

    def test_two_observations(self):
        ds = Dataset(np.array([[1.0], [5.0]]), np.array([1.0, 2.0]))
        assert set(initial_constraints(ds)) == {(0, 1), (1, 0)}

    def test_mst_pair_count(self):
        ds = make_instance(100, 6)
        assert len(initial_constraints(ds)) == 198  # 2(n-1), vs 9900 full


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
        result, stats = solve_with_cuts(builder, ds, tol=1e-6)
        assert stats.iterations == 1
        assert stats.added == (0,)

    def test_objective_monotone_over_rounds(self):
        ds = make_instance(40, 3, seed=6)
        spec = EstimatorSpec("quantile", 0.7)
        builder = make_builder(ds, spec)
        active = initial_constraints(ds)
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

    def test_round_cap_carries_best_fit(self, monkeypatch):
        ds = make_instance(30, 3, seed=7)
        builder = make_builder(ds, EstimatorSpec("quantile", 0.5))
        monkeypatch.setattr(cuts, "_max_rounds", lambda n: 2)
        with pytest.raises(CutLoopLimitError) as err:
            solve_with_cuts(builder, ds, tol=1e-9)
        assert err.value.fit is not None
        assert err.value.stats.iterations == 2

    def test_l0_master_wrapped_as_mip(self):
        ds = make_instance(12, 3, seed=8)
        anchor = fit(ds, EstimatorSpec("quantile", 0.5))
        pen = L0Penalty(1, 10.0 * max(anchor.beta.max(), 1e-6))
        spec = EstimatorSpec("quantile", 0.5, penalty=pen)
        via_cuts, _ = solve_with_cuts(make_builder(ds, spec), ds, tol=1e-6)
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

    def test_l1_cer_cut_loop_at_paper_size(self):
        # The masters of this loop need more IPM iterations round by round;
        # each must still end optimal.
        ds = make_instance(100, 6, seed=0)
        result = fit(ds, EstimatorSpec("expectile", 0.5, penalty=L1Penalty(0.1), solve="cuts"))
        assert result.meta.status == "optimal"
        assert validate_fit(result, ds, tol=0.01) == []


def _rebuild_every_round(builder, ds, tol):
    """The loop with no session: rebuild the master and cold-solve it each round."""
    active = initial_constraints(ds)
    present = set(active)
    added = []
    while True:
        problem = builder(active)
        result = extract_fit(problem, ds, solve_lp(problem))
        new = [(i, m) for i, m, _ in separate(result, ds, tol) if (i, m) not in present]
        added.append(len(new))
        if not new:
            return result, tuple(added)
        active.extend(new)
        present.update(new)


def _check_hot_loop(ds, lam, tol):
    """The hot-started loop against the rebuilt one; returns its stats."""
    penalty = None if lam is None else L1Penalty(lam)
    builder = make_builder(ds, EstimatorSpec("quantile", 0.5, penalty=penalty))
    result, stats = solve_with_cuts(builder, ds, tol=tol)
    ref, ref_added = _rebuild_every_round(builder, ds, tol)
    assert stats.added == ref_added
    assert result.objective == pytest.approx(ref.objective, abs=1e-9)
    assert result.meta.constraints == stats.constraints
    assert 0 <= stats.warm < stats.iterations
    return result, stats


class TestHotStartedLoop:
    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("lam", [None, 0.01, 0.1, 1.0, 10.0])
    def test_matches_rebuilt_loop(self, seed, lam):
        ds = make_instance(30, 3, seed=seed)
        result, stats = _check_hot_loop(ds, lam, 1e-6)
        assert validate_fit(result, ds) == []
        # At lam = 10 the penalty flattens the fit within two rounds and the
        # second master is dual degenerate, so it is cold-solved.
        if lam is not None and lam < 10:
            assert stats.warm > 0

    @pytest.mark.parametrize("seed", range(2))
    @pytest.mark.parametrize("lam", [0.01, 0.46])
    def test_matches_rebuilt_loop_at_cv_fold_size(self, seed, lam):
        # A training fold of the L1-CQR CV benchmark: n = 48 of 60, d = 6, the
        # default tol; the loop runs many hot rounds here.
        ds = make_instance(48, 6, seed=seed)
        _, stats = _check_hot_loop(ds, lam, 0.01)
        assert stats.warm > 0


@pytest.mark.parametrize(
    "n, d, seed, tol", [(30, 3, 0, 1e-6), (30, 3, 1, 1e-6), (48, 6, 0, 0.01), (48, 6, 1, 0.01)]
)
def test_dual_degenerate_masters_are_rebuilt_without_a_hot_solve(monkeypatch, sessions, n, d, seed, tol):
    # Unpenalized CQR masters are dual degenerate, and a hot re-solve after
    # such a master is almost never accepted; the loop rebuilds the next
    # master directly, so every round is the rebuilt loop's cold solve.
    appended = []
    add_rows = cuts.LpSession.add_rows

    def recorded(self, *args):
        appended.append(args)
        return add_rows(self, *args)

    monkeypatch.setattr(cuts.LpSession, "add_rows", recorded)
    ds = make_instance(n, d, seed=seed)
    builder = make_builder(ds, EstimatorSpec("quantile", 0.5))
    result, stats = solve_with_cuts(builder, ds, tol=tol)
    ref, ref_added = _rebuild_every_round(builder, ds, tol)
    assert appended == []
    assert stats.warm == 0
    assert len(sessions) == stats.iterations > 1
    assert stats.added == ref_added
    assert result.objective == ref.objective


@pytest.mark.parametrize(
    "n, spec, tol",
    [
        (30, EstimatorSpec("quantile", 0.5, penalty=L1Penalty(0.1)), 1e-6),
        (30, EstimatorSpec("quantile", 0.5), 1e-6),
        (12, EstimatorSpec("quantile", 0.5, penalty=L0Penalty(1, 5.0)), 1e-6),
        (30, EstimatorSpec("expectile", 0.5, penalty=L1Penalty(0.01)), cuts.CUT_TOL),
    ],
    ids=["l1-cqr", "cqr", "l0-cqr", "l1-cer"],
)
def test_every_round_passes_the_traced_seams(monkeypatch, n, spec, tol):
    # The benchmark's tracer wraps these module attributes to count rounds,
    # added rows and model builds; a loop that went around one would leave
    # its counter at 0.
    calls = {}

    def count(owner, name):
        original = getattr(owner, name)

        def counted(*args, **kwargs):
            calls[name] = calls.get(name, 0) + 1
            return original(*args, **kwargs)

        monkeypatch.setattr(owner, name, counted)

    for name in ("separate", "initial_constraints"):
        count(cuts, name)
    for name in ("build_cqr", "build_cer", "add_l1", "add_l0"):
        count(estimators, name)
    ds = make_instance(n, 3, seed=4)
    _, stats = solve_with_cuts(make_builder(ds, spec), ds, tol=tol)
    cold = stats.iterations - stats.warm
    assert stats.iterations > 1
    assert calls["separate"] == stats.iterations
    assert calls["initial_constraints"] == 1
    assert calls.get("build_cqr", 0) + calls.get("build_cer", 0) == cold
    assert calls.get("add_l1", 0) + calls.get("add_l0", 0) == (0 if spec.penalty is None else cold)
    if spec.penalty == L1Penalty(0.1):
        assert stats.warm > 0


def _cold_fit(ds, spec):
    """The oracle: one cold solve of all n(n-1) rows."""
    problem = make_builder(ds, spec)(ALL_PAIRS)
    return extract_fit(problem, ds, solve_lp(problem))


@pytest.fixture
def sessions(monkeypatch):
    """Every LpSession the cut module opens, in order."""
    opened = []

    class Recorded(cuts.LpSession):
        def __init__(self, problem):
            super().__init__(problem)
            opened.append(self)

    monkeypatch.setattr(cuts, "LpSession", Recorded)
    return opened


class TestSolveFullLp:
    @pytest.mark.parametrize(
        "n, d, tau, lam",
        [
            (40, 3, 0.3, None),
            (40, 6, 0.5, 0.1),
            (40, 2, 0.9, 1.0),
            (60, 6, 0.5, None),
            (60, 3, 0.3, 0.01),
            (100, 2, 0.5, None),
        ],
    )
    def test_matches_cold_solve(self, sessions, n, d, tau, lam):
        ds = make_instance(n, d, seed=n + d)
        spec = EstimatorSpec("quantile", tau, penalty=None if lam is None else L1Penalty(lam))
        result = fit(ds, spec)
        ref = _cold_fit(ds, spec)
        assert result.meta.status == "optimal"
        assert abs(result.objective - ref.objective) <= 1e-9 * (1 + abs(ref.objective))
        assert validate_fit(result, ds) == []
        assert result.meta.constraints == n * (n - 1)
        [session] = sessions
        assert session._highs.getNumRow() < n + n * (n - 1)

    @pytest.mark.parametrize("n", [20, 30])
    @pytest.mark.parametrize("lam", [None, 0.1])
    def test_below_the_selection_size_is_the_cold_solve(self, n, lam):
        ds = make_instance(n, 4, seed=n)
        spec = EstimatorSpec("quantile", 0.5, penalty=None if lam is None else L1Penalty(lam))
        result, ref = fit(ds, spec), _cold_fit(ds, spec)
        for name in ("alpha", "beta", "eps_plus", "eps_minus", "y_hat"):
            assert getattr(result, name).tobytes() == getattr(ref, name).tobytes()
        assert result.objective == ref.objective
        assert replace(result.meta, wall_time=0.0) == replace(ref.meta, wall_time=0.0)

    @settings(max_examples=30)
    @given(
        n=st.integers(40, 60),
        d=st.sampled_from([2, 6]),
        seed=st.integers(0, 10_000),
        tau=st.sampled_from([0.3, 0.5, 0.9]),
        lam=st.sampled_from([None, 0.01, 1.0]),
    )
    def test_grown_fit_is_the_solve_over_all_rows(self, n, d, seed, tau, lam):
        ds = make_instance(n, d, seed=seed)
        spec = EstimatorSpec("quantile", tau, penalty=None if lam is None else L1Penalty(lam))
        result, ref = fit(ds, spec), solve_lp(make_builder(ds, spec)(ALL_PAIRS))
        assert abs(result.objective - ref.objective) <= 1e-9 * (1 + abs(ref.objective))
        assert validate_fit(result, ds) == []

    def test_infeasible_master_is_not_returned(self, monkeypatch):
        # With separation finding nothing, the seed master omits rows it
        # violates; the certificate's own slack check must refuse it.
        monkeypatch.setattr(cuts, "separate", lambda *args, **kwargs: [])
        ds = make_instance(50, 4, seed=2)
        with pytest.raises(RuntimeError, match="worst Afriat slack -"):
            fit(ds, EstimatorSpec("quantile", 0.5, penalty=L1Penalty(0.01)))

    def test_open_duality_gap_is_not_returned(self, monkeypatch):
        solve = cuts.LpSession.solve
        objectives = []

        def recorded(self, *args, **kwargs):
            sol = solve(self, *args, **kwargs)
            objectives.append(sol.objective)
            return sol

        def perturbed(self):
            return objectives[-1] - 1e-8 * (1 + abs(objectives[-1]))

        monkeypatch.setattr(cuts.LpSession, "solve", recorded)
        monkeypatch.setattr(cuts.LpSession, "dual_objective", perturbed)
        with pytest.raises(RuntimeError, match="relative duality gap 1e-08"):
            fit(make_instance(50, 4, seed=2), EstimatorSpec("quantile", 0.5))


@pytest.mark.parametrize(
    "n, spec, tol",
    [
        (30, EstimatorSpec("quantile", 0.5, penalty=L1Penalty(0.1), solve="cuts"), None),
        (30, EstimatorSpec("quantile", 0.5), 1e-6),
        (45, EstimatorSpec("quantile", 0.5), None),
    ],
    ids=["cuts-l1", "cuts", "full"],
)
def test_iterations_count_every_solve(monkeypatch, n, spec, tol):
    # With a tol the cut loop runs at it directly; without one `fit` runs the spec.
    counts = []
    solve = cuts.LpSession.solve

    def counted(self, *args, **kwargs):
        sol = solve(self, *args, **kwargs)
        counts.append(sol.iterations)
        return sol

    monkeypatch.setattr(cuts.LpSession, "solve", counted)
    ds = make_instance(n, 3, seed=4)
    if tol is None:
        result = fit(ds, spec)
    else:
        result, _ = solve_with_cuts(make_builder(ds, spec), ds, tol=tol)
    assert len(counts) > 1
    assert result.meta.iterations == sum(counts)
