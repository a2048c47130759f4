import time
from dataclasses import fields, replace
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cqreg import (
    Dataset,
    EstimatorSpec,
    L0Penalty,
    L1Penalty,
    anchor_big_m,
    expectile_to_quantile,
    fit,
    l0_oracle,
    support,
)
from cqreg import estimators
from cqreg.cuts import CUT_TOL, solve_with_cuts
from cqreg.estimators import make_builder
from cqreg.model import FEAS_TOL, FitMeta, FitResult, validate_fit
from tests.conftest import make_instance


def fake_fit(beta, eps_minus=None, z=None):
    n, d = beta.shape
    return FitResult(
        alpha=np.zeros(n),
        beta=np.asarray(beta, dtype=float),
        eps_plus=np.zeros(n),
        eps_minus=np.zeros(n) if eps_minus is None else np.asarray(eps_minus, dtype=float),
        y_hat=np.zeros(n),
        z=None if z is None else np.asarray(z, dtype=int),
        objective=0.0,
        meta=FitMeta(status="optimal"),
    )


class TestSpecValidation:
    def test_rejects_unknown_family(self):
        with pytest.raises(ValueError):
            EstimatorSpec("median", 0.5)

    def test_rejects_bad_level(self):
        with pytest.raises(ValueError):
            EstimatorSpec("quantile", 1.2)

    def test_rejects_bad_solve_mode(self):
        with pytest.raises(ValueError):
            EstimatorSpec("quantile", 0.5, solve="warm")

    # A penalty of another type would be dropped by make_builder, which would
    # then fit the unpenalized model.
    @pytest.mark.parametrize("penalty", ["l1", 0.5, (2, 5.0)], ids=["string", "float", "tuple"])
    def test_rejects_a_penalty_it_cannot_fit(self, penalty):
        with pytest.raises(ValueError, match="penalty must be None, an L1Penalty or an L0Penalty"):
            EstimatorSpec("quantile", 0.5, penalty=penalty)

    def test_cut_tolerance_is_not_an_option(self):
        assert [f.name for f in fields(EstimatorSpec)] == ["family", "level", "penalty", "solve"]
        with pytest.raises(TypeError):
            EstimatorSpec("quantile", 0.5, tol=1e-6)
        assert EstimatorSpec.tol == CUT_TOL == 0.01


class TestFit:
    def test_noiseless_additive_zero_objective(self):
        rng = np.random.default_rng(3)
        X = rng.uniform(1.0, 10.0, (20, 2))
        ds = Dataset(X, X.sum(axis=1))
        result = fit(ds, EstimatorSpec("quantile", 0.5))
        assert result.objective <= 1e-6
        err = np.sum((result.y_hat - ds.output) ** 2) / np.sum(ds.output**2)
        assert err <= 1e-6

    def test_l0_with_k_equal_d_matches_unpenalized(self, small_noisy):
        plain = fit(small_noisy, EstimatorSpec("quantile", 0.5))
        m = anchor_big_m(small_noisy, EstimatorSpec("quantile", 0.5), 10.0)
        capped = fit(
            small_noisy,
            EstimatorSpec("quantile", 0.5, penalty=L0Penalty(small_noisy.d, m)),
        )
        assert capped.objective == pytest.approx(plain.objective, abs=1e-6)

    @pytest.mark.parametrize("solve", ["full", "cuts"])
    def test_k_exceeding_d_rejected(self, small_noisy, solve):
        penalty = L0Penalty(small_noisy.d + 1, 1.0)
        with pytest.raises(ValueError, match="exceeds"):
            fit(small_noisy, EstimatorSpec("quantile", 0.5, penalty=penalty, solve=solve))

    @pytest.mark.parametrize(
        "spec",
        [EstimatorSpec("quantile", 0.5), EstimatorSpec("quantile", 0.5, L1Penalty(0.1), solve="cuts")],
        ids=["cqr-full-grown", "l1-cqr-cuts"],
    )
    def test_wall_time_is_the_whole_fit(self, spec):
        # Both fits solve more than once: the full one grows its rows in one
        # session from n = 40 on, the cut loop re-solves each round.
        ds = make_instance(60, 3, seed=0)
        start = time.perf_counter()
        result = fit(ds, spec)
        elapsed = time.perf_counter() - start
        assert elapsed / 2 <= result.meta.wall_time <= elapsed

    def test_meta_populated(self, small_noisy):
        result = fit(small_noisy, EstimatorSpec("quantile", 0.5))
        assert result.meta.status == "optimal"
        assert result.meta.constraints == small_noisy.n * (small_noisy.n - 1)
        # L0 fits count Afriat rows only, not the coupling and CARD rows.
        for family in ("quantile", "expectile"):
            spec = EstimatorSpec(family, 0.5)
            penalty = L0Penalty(2, anchor_big_m(small_noisy, spec, 2.0))
            full = fit(small_noisy, replace(spec, penalty=penalty))
            assert full.meta.constraints == small_noisy.n * (small_noisy.n - 1)
            builder = make_builder(small_noisy, replace(spec, penalty=penalty, solve="cuts"))
            cut, stats = solve_with_cuts(builder, small_noisy)
            assert cut.meta.constraints == stats.constraints

    # The contract: a fit either raises RuntimeError (SolverError and
    # CutLoopLimitError included) or passes validate_fit, at 1e-6 in full
    # mode and at the loop tolerance in cuts mode.
    @pytest.mark.parametrize("solve", ["full", "cuts"])
    @pytest.mark.parametrize("family", ["quantile", "expectile"])
    @pytest.mark.parametrize("penalty", [None, "l1", "l0"])
    @settings(max_examples=4)
    @given(
        n=st.integers(6, 14),
        d=st.integers(1, 3),
        seed=st.integers(0, 10_000),
        level=st.floats(0.05, 0.95),
        lam=st.floats(1e-3, 1.0),
        k=st.integers(1, 3),
        multiplier=st.floats(0.5, 3.0),
    )
    def test_returned_fit_is_valid_or_raises(
        self, solve, family, penalty, n, d, seed, level, lam, k, multiplier
    ):
        ds = make_instance(n, d, seed=seed)
        spec = EstimatorSpec(family, level, solve=solve)
        big_m = None
        k = min(k, d) if penalty == "l0" else None
        try:
            if penalty == "l1":
                spec = replace(spec, penalty=L1Penalty(lam))
            elif penalty == "l0":
                big_m = anchor_big_m(ds, spec, multiplier)
                spec = replace(spec, penalty=L0Penalty(k, big_m))
            result = fit(ds, spec)
        except RuntimeError:
            return
        tol = FEAS_TOL if solve == "full" else CUT_TOL
        assert validate_fit(result, ds, tol=tol, big_m=big_m, k=k) == []


class TestSupport:
    def test_all_zero_beta_is_empty(self):
        assert support(fake_fit(np.zeros((4, 3)))) == frozenset()

    def test_l0_cardinality_bound(self):
        ds = make_instance(10, 3, seed=4)
        m = anchor_big_m(ds, EstimatorSpec("quantile", 0.5), 10.0)
        result = fit(ds, EstimatorSpec("quantile", 0.5, penalty=L0Penalty(1, m)))
        assert len(support(result)) <= 1

    def test_threshold_gate(self):
        beta = np.zeros((4, 3))
        beta[:, 1] = 1e-9
        assert support(fake_fit(beta)) == frozenset()
        beta[:, 1] = 1e-3
        assert support(fake_fit(beta)) == {1}

    def test_selector_gates_support(self):
        beta = np.full((2, 2), 0.5)
        assert support(fake_fit(beta, z=[1, 0])) == {0}


class TestL0Oracle:
    def test_full_subset_matches_unrestricted(self, small_noisy):
        spec = EstimatorSpec("quantile", 0.5)
        obj, _ = l0_oracle(small_noisy, spec, small_noisy.d)
        assert obj == pytest.approx(fit(small_noisy, spec).objective, abs=1e-9)

    def test_k1_is_min_of_single_columns(self):
        ds = make_instance(10, 3, seed=5)
        spec = EstimatorSpec("quantile", 0.5)
        obj, chosen = l0_oracle(ds, spec, 1)
        singles = [fit(ds.restrict([j]), spec).objective for j in range(3)]
        assert obj == pytest.approx(min(singles), abs=1e-9)
        assert chosen == {int(np.argmin(singles))}

    def test_cross_check_with_mip(self):
        ds = make_instance(12, 4, seed=6)
        spec = EstimatorSpec("quantile", 0.5)
        m = anchor_big_m(ds, spec, 10.0)
        oracle_obj, _ = l0_oracle(ds, spec, 2)
        mip = fit(ds, EstimatorSpec("quantile", 0.5, penalty=L0Penalty(2, m)))
        assert abs(mip.objective - oracle_obj) <= 1e-6

    @pytest.mark.parametrize("family", ["quantile", "expectile"])
    @pytest.mark.parametrize("n, d, seed, level, k", [(10, 3, 1, 0.5, 2), (12, 2, 6, 0.3, 1)])
    def test_cap_that_does_not_bind_changes_nothing(self, monkeypatch, family, n, d, seed, level, k):
        ds = make_instance(n, d, seed=seed)
        spec = EstimatorSpec(family, level)
        subsets = [s for size in range(1, k + 1) for s in combinations(range(d), size)]
        big_m = 2.0 * max(fit(ds.restrict(s), spec).beta.max() for s in subsets)
        uncapped = l0_oracle(ds, spec, k)
        monkeypatch.setattr(estimators, "solve_mip", None)  # the oracle must not use it
        capped = l0_oracle(ds, spec, k, big_m=big_m)
        assert capped[0] == pytest.approx(uncapped[0], rel=1e-6, abs=1e-9)
        assert capped[1] == uncapped[1]

    @pytest.mark.parametrize("family", ["quantile", "expectile"])
    def test_binding_cap_raises_the_optimum(self, family):
        ds = make_instance(10, 3, seed=1)
        spec = EstimatorSpec(family, 0.5)
        obj, _ = l0_oracle(ds, spec, 2)
        big_m = anchor_big_m(ds, spec, 0.01)
        capped, _ = l0_oracle(ds, spec, 2, big_m=big_m)
        assert capped > obj + 1e-6

    @pytest.mark.parametrize("big_m", [0.0, -1.0, float("inf"), float("nan")])
    def test_rejects_a_bad_cap(self, small_noisy, big_m):
        with pytest.raises(ValueError, match="big_m"):
            l0_oracle(small_noisy, EstimatorSpec("quantile", 0.5), 1, big_m=big_m)

    @pytest.mark.parametrize("k", [0, -1, 1.5, True])
    def test_rejects_a_bad_k(self, small_noisy, k):
        with pytest.raises(ValueError, match=f"k must be a positive integer, got {k!r}"):
            l0_oracle(small_noisy, EstimatorSpec("quantile", 0.5), k)

    def test_enumeration_guard(self):
        # C(30, 15) is far beyond the 1e4 cap; the guard fires before any solve.
        ds = make_instance(5, 30)
        spec = EstimatorSpec("quantile", 0.5)
        with pytest.raises(ValueError):
            l0_oracle(ds, spec, 15)

    def test_rejects_penalized_spec(self, small_noisy):
        with pytest.raises(ValueError):
            l0_oracle(small_noisy, EstimatorSpec("quantile", 0.5, penalty=L1Penalty(1.0)), 1)


class TestConversions:
    def test_all_positive_side_quantile_zero(self):
        assert expectile_to_quantile(fake_fit(np.zeros((10, 1)))) == 0.0

    def test_half_negative(self):
        eps_minus = np.array([1.0] * 5 + [0.0] * 5)
        assert expectile_to_quantile(fake_fit(np.zeros((10, 1)), eps_minus=eps_minus)) == 0.5


class TestLambdaPath:
    def test_fidelity_up_shrinkage_down(self):
        ds = make_instance(25, 3, seed=7)
        tau = 0.5
        fidelity = []
        size = []
        for lam in np.linspace(0.0, 2.0, 8):
            result = fit(ds, EstimatorSpec("quantile", tau, penalty=L1Penalty(lam)))
            fidelity.append(tau * result.eps_plus.sum() + (1 - tau) * result.eps_minus.sum())
            size.append(result.beta.sum())
        assert (np.diff(fidelity) >= -1e-8).all()
        assert (np.diff(size) <= 1e-8).all()


class TestExpectileUniqueness:
    def test_objective_agrees_across_solves(self, small_noisy):
        spec = EstimatorSpec("expectile", 0.8)
        a = fit(small_noisy, spec)
        b = fit(small_noisy, spec)
        assert abs(a.objective - b.objective) <= 1e-8
        assert np.max(np.abs(a.y_hat - b.y_hat)) <= 1e-4


class TestAnchorBigM:
    def test_positive_even_on_flat_data(self):
        ds = Dataset(np.array([[1.0], [2.0], [3.0]]), np.array([5.0, 5.0, 5.0]))
        m = anchor_big_m(ds, EstimatorSpec("quantile", 0.5), 2.0)
        assert m > 0

    def test_scales_with_multiplier(self, small_noisy):
        spec = EstimatorSpec("quantile", 0.5)
        assert anchor_big_m(small_noisy, spec, 4.0) == pytest.approx(
            2.0 * anchor_big_m(small_noisy, spec, 2.0)
        )

    @pytest.mark.parametrize("multiplier", [0.0, -1.0, float("nan"), float("inf"), -float("inf")])
    def test_bad_multiplier_is_rejected_before_any_fit(self, small_noisy, monkeypatch, multiplier):
        def no_fit(*args):
            raise AssertionError("the anchor fit ran")

        monkeypatch.setattr(estimators, "fit", no_fit)
        with pytest.raises(ValueError, match="multiplier must be finite and > 0"):
            anchor_big_m(small_noisy, EstimatorSpec("quantile", 0.5), multiplier)
