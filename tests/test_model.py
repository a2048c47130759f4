from dataclasses import replace

import numpy as np
import pytest
from scipy import sparse
from hypothesis import given, settings
from hypothesis import strategies as st

from cqreg import (
    Dataset,
    EstimatorSpec,
    L0Penalty,
    L1Penalty,
    anchor_big_m,
    check_loss,
    expectile_loss,
    fit,
)
from cqreg import model
from cqreg.cuts import initial_constraints
from cqreg.model import (
    ALL_PAIRS,
    VarLayout,
    _pair_arrays,
    add_l0,
    add_l1,
    afriat_rows,
    build_cer,
    build_cqr,
    extract_fit,
    validate_fit,
)
from cqreg.solver import Solution, Status, solve_lp, solve_qp
from tests.conftest import make_instance


class TestCheckLoss:
    def test_positive_argument(self):
        assert check_loss(2.0, 0.3) == pytest.approx(0.6)

    def test_negative_argument(self):
        assert check_loss(-2.0, 0.3) == pytest.approx(1.4)

    @pytest.mark.parametrize("tau", [0.1, 0.5, 0.9])
    def test_zero_argument(self, tau):
        assert check_loss(0.0, tau) == 0.0

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            check_loss(np.nan, 0.5)
        with pytest.raises(ValueError):
            check_loss(np.inf, 0.5)

    def test_rejects_bad_level(self):
        with pytest.raises(ValueError):
            check_loss(1.0, 0.0)
        with pytest.raises(ValueError):
            check_loss(1.0, 1.0)

    @given(
        t=st.floats(-1e6, 1e6, allow_nan=False),
        tau=st.floats(0.01, 0.99),
    )
    def test_nonnegative_and_piecewise(self, t, tau):
        value = check_loss(t, tau)
        assert value >= 0.0
        if t > 0:
            assert value == pytest.approx(tau * t)
        else:
            assert value == pytest.approx((tau - 1.0) * t)

    def test_vectorized(self):
        out = check_loss(np.array([2.0, -2.0, 0.0]), 0.3)
        assert np.allclose(out, [0.6, 1.4, 0.0])


class TestExpectileLoss:
    def test_weights(self):
        assert expectile_loss(2.0, 0.9) == pytest.approx(0.9 * 4.0)
        assert expectile_loss(-2.0, 0.9) == pytest.approx(0.1 * 4.0)

    @pytest.mark.parametrize("t", [np.nan, np.inf, np.array([1.0, -np.inf])], ids=["nan", "inf", "array"])
    def test_rejects_nonfinite(self, t):
        with pytest.raises(ValueError, match="expectile loss argument must be finite"):
            expectile_loss(t, 0.5)


class TestDataset:
    def test_rejects_negative_inputs(self):
        with pytest.raises(ValueError):
            Dataset(np.array([[1.0], [-0.5]]), np.array([1.0, 2.0]))

    def test_rejects_single_observation(self):
        with pytest.raises(ValueError):
            Dataset(np.array([[1.0]]), np.array([1.0]))

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            Dataset(np.array([[1.0], [np.nan]]), np.array([1.0, 2.0]))
        with pytest.raises(ValueError):
            Dataset(np.array([[1.0], [2.0]]), np.array([1.0, np.inf]))

    @pytest.mark.parametrize(
        "inputs, output, message",
        [
            ([1.0, 2.0], [1.0, 2.0], "inputs must be 2-D"),
            ([[1.0], [2.0]], [[1.0], [2.0]], "output must be 1-D"),
            (np.zeros((2, 0)), [1.0, 2.0], "need at least 1 input variable"),
            ([[1.0], [2.0], [3.0]], [1.0, 2.0], "output length 2 != n=3"),
        ],
        ids=["1-D-inputs", "2-D-output", "no-input-column", "length-mismatch"],
    )
    def test_rejects_bad_shape(self, inputs, output, message):
        with pytest.raises(ValueError, match=message):
            Dataset(np.asarray(inputs), np.asarray(output))

    def test_restrict_rejects_no_columns(self):
        ds = Dataset(np.array([[1.0, 2.0], [3.0, 4.0]]), np.array([1.0, 2.0]))
        with pytest.raises(ValueError, match="need at least one column"):
            ds.restrict([])

    def test_restrict_keeps_columns(self):
        ds = Dataset(np.array([[1.0, 2.0], [3.0, 4.0]]), np.array([1.0, 2.0]))
        sub = ds.restrict([1])
        assert sub.inputs.shape == (2, 1)


class TestBuilders:
    def test_cqr_all_pairs_counts(self):
        ds = make_instance(3, 1)
        problem = build_cqr(ds, 0.5, ALL_PAIRS)
        assert problem.n_vars == 12  # yhat(3) + beta(3) + eps+(3) + eps-(3)
        assert int((problem.sense == "E").sum()) == 3
        assert int((problem.sense == "L").sum()) == 6  # n(n-1)

    def test_cqr_empty_constraint_set(self):
        ds = make_instance(3, 1)
        problem = build_cqr(ds, 0.5, ())
        assert problem.n_vars == 12
        assert int((problem.sense == "L").sum()) == 0

    def test_cqr_full_pair_count_large(self):
        ds = make_instance(100, 6)
        problem = build_cqr(ds, 0.5, ALL_PAIRS)
        assert int((problem.sense == "L").sum()) == 9900

    def test_cqr_objective_weights(self):
        ds = make_instance(4, 2)
        problem = build_cqr(ds, 0.3, ALL_PAIRS)
        lay = problem.layout
        assert np.allclose(problem.obj_linear[lay.eps_plus()], 0.3)
        assert np.allclose(problem.obj_linear[lay.eps_minus()], 0.7)
        assert problem.obj_quad is None

    def test_cer_objective_weights(self):
        ds = make_instance(4, 2)
        problem = build_cer(ds, 0.9, ALL_PAIRS)
        lay = problem.layout
        assert np.allclose(problem.obj_quad[lay.eps_plus()], 0.9)
        assert np.allclose(problem.obj_quad[lay.eps_minus()], 0.1)

    def test_cer_collinear_zero_loss(self):
        # Three collinear 1-D points with y = x: the line is feasible, so the
        # optimum is exactly zero.
        ds = Dataset(np.array([[1.0], [2.0], [3.0]]), np.array([1.0, 2.0, 3.0]))
        sol = solve_qp(build_cer(ds, 0.5, ALL_PAIRS))
        assert sol.objective == pytest.approx(0.0, abs=1e-8)

    def test_rejects_bad_levels(self):
        ds = make_instance(3, 1)
        for bad in (0.0, 1.0, -0.2, 1.5):
            with pytest.raises(ValueError):
                build_cqr(ds, bad, ALL_PAIRS)
            with pytest.raises(ValueError):
                build_cer(ds, bad, ALL_PAIRS)

    @pytest.mark.parametrize(
        "change, message",
        [
            (lambda p: dict(a=p.a.tocsr()[:, :-1]), "constraint matrix width does not match variable count"),
            (lambda p: dict(rhs=p.rhs[:-1]), "rhs has length"),
            (lambda p: dict(obj_quad=p.obj_quad[:-1]), "quadratic term length does not match variable count"),
            (lambda p: dict(obj_quad=-p.obj_quad), r"quadratic term must be PSD \(nonnegative diagonal\)"),
            (lambda p: dict(sense=np.where(p.sense == "L", "G", p.sense)), "constraint senses must be 'L' or 'E'"),
        ],
        ids=["matrix-width", "rhs-length", "quad-length", "negative-quad", "unknown-sense"],
    )
    def test_problem_rejects_inconsistent_parts(self, change, message):
        problem = build_cer(make_instance(4, 2), 0.5, ALL_PAIRS)
        with pytest.raises(ValueError, match=message):
            replace(problem, **change(problem))

    def test_pair_validation(self):
        ds = make_instance(3, 1)
        with pytest.raises(ValueError):
            build_cqr(ds, 0.5, [(0, 0)])
        with pytest.raises(ValueError):
            build_cqr(ds, 0.5, [(0, 5)])


def _afriat_coo(dataset, pi, ph, n_cols):
    """The Afriat rows built from COO triplets, the reference for the direct CSR."""
    n, d = dataset.n, dataset.d
    X = dataset.inputs
    m = pi.shape[0]
    r = np.arange(m)
    rows = np.concatenate([r, r, np.repeat(r, d)])
    beta_cols = (n + pi[:, None] * d + np.arange(d)[None, :]).ravel()
    cols = np.concatenate([ph, pi, beta_cols])
    vals = np.concatenate([np.ones(m), -np.ones(m), -(X[ph] - X[pi]).ravel()])
    return sparse.csr_matrix((vals, (rows, cols)), shape=(m, n_cols))


def _assert_same_csr_arrays(got, want):
    for g, w in zip(got, (want.indptr, want.indices, want.data)):
        assert g.dtype == w.dtype
        assert g.tobytes() == w.tobytes()


class TestAfriatMatrix:
    @pytest.mark.parametrize("order", ["i<h", "i>h", "mixed", "all", "none"])
    def test_direct_csr_equals_coo_construction(self, order):
        # Integer inputs tie in some coordinates, so the data holds signed zeros.
        ds = make_instance(15, 3, seed=4)
        ds = Dataset(np.round(ds.inputs), ds.output)
        rng = np.random.default_rng(5)
        if order == "all":
            pairs = ALL_PAIRS
        else:
            a, b = rng.integers(0, ds.n, size=(2, 60))
            keep = a != b
            lo, hi = np.minimum(a, b)[keep], np.maximum(a, b)[keep]
            pairs = {
                "i<h": np.column_stack([lo, hi]),
                "i>h": np.column_stack([hi, lo]),
                "mixed": np.column_stack([a[keep], b[keep]]),
                "none": np.zeros((0, 2), dtype=int),
            }[order]
        pi, ph = _pair_arrays(ds, pairs)
        want = _afriat_coo(ds, pi, ph, ds.n * (3 + ds.d))
        _assert_same_csr_arrays(afriat_rows(ds, pairs), want)


def _base_by_stacking(dataset, constraints):
    """`model._build_base` as COO triplets stacked with `sparse.vstack`, the
    reference for the CSR arrays it writes directly."""
    n, d = dataset.n, dataset.d
    pi, ph = _pair_arrays(dataset, constraints)
    m = pi.shape[0]
    lay = VarLayout(n, d, afriat=m)
    nv = lay.n_continuous
    eq_rows = np.tile(np.arange(n), 3)
    eq_cols = np.concatenate(
        [
            np.arange(n),
            np.arange(lay.eps_plus().start, lay.eps_plus().stop),
            np.arange(lay.eps_minus().start, lay.eps_minus().stop),
        ]
    )
    eq_vals = np.concatenate([np.ones(n), np.ones(n), -np.ones(n)])
    fit_rows = sparse.csr_matrix((eq_vals, (eq_rows, eq_cols)), shape=(n, nv))
    a = sparse.vstack([fit_rows, _afriat_coo(dataset, pi, ph, nv)], format="csr")
    sense = np.array(["E"] * n + ["L"] * m)
    rhs = np.concatenate([dataset.output, np.zeros(m)])
    lower = np.full(nv, 0.0)
    lower[lay.yhat()] = -np.inf
    upper = np.full(nv, np.inf)
    integer = np.zeros(nv, dtype=bool)
    return [a, sense, rhs, lower, upper, integer], lay


class TestBuildBase:
    # The expectile IPM's memo keys on the bytes and dtypes of these arrays,
    # so the direct build must give the stacked build's arrays exactly.
    @pytest.mark.parametrize("master", ["cqr", "cer", "l1-cqr", "l1-cer", "l0-cqr", "l0-cer"])
    @pytest.mark.parametrize("pairs", ["seed", "all"])
    @pytest.mark.parametrize("n, d, seed", [(2, 1, 0), (12, 3, 1), (30, 6, 2)])
    def test_direct_csr_equals_stacked_construction(self, monkeypatch, master, pairs, n, d, seed):
        ds = make_instance(n, d, seed=seed)
        constraints = ALL_PAIRS if pairs == "all" else initial_constraints(ds)

        def build():
            problem = (build_cer if master.endswith("cer") else build_cqr)(ds, 0.5, constraints)
            if master.startswith("l1"):
                problem = add_l1(problem, L1Penalty(0.1))
            elif master.startswith("l0"):
                problem = add_l0(problem, L0Penalty(1, 5.0))
            return problem

        got = build()
        monkeypatch.setattr(model, "_build_base", _base_by_stacking)
        want = build()
        assert type(got.a) is type(want.a)
        assert got.a.shape == want.a.shape
        _assert_same_csr_arrays((got.a.indptr, got.a.indices, got.a.data), want.a)
        assert got.a.has_sorted_indices == want.a.has_sorted_indices
        assert got.a.has_canonical_format == want.a.has_canonical_format
        for name in ("sense", "rhs", "lower", "upper", "integer", "obj_linear"):
            g, w = getattr(got, name), getattr(want, name)
            assert g.dtype == w.dtype
            assert g.tobytes() == w.tobytes()
        assert (got.obj_quad is None) == (want.obj_quad is None)
        if got.obj_quad is not None:
            assert got.obj_quad.tobytes() == want.obj_quad.tobytes()
        assert got.layout == want.layout


def _l0_by_stacking(problem, penalty):
    """`add_l0`'s matrix as a COO block of coupling and cardinality rows,
    stacked under the base widened by a zero block, the reference for the
    CSR arrays it appends directly."""
    lay = problem.layout
    n, d, nv = lay.n, lay.d, problem.n_vars
    r = np.arange(n * d)
    rows = np.concatenate([r, r, np.full(d, n * d)])
    cols = np.concatenate([np.arange(*lay.beta_all().indices(nv)), nv + np.tile(np.arange(d), n), nv + np.arange(d)])
    vals = np.concatenate([np.ones(n * d), np.full(n * d, -penalty.big_m), np.ones(d)])
    extra = sparse.csr_matrix((vals, (rows, cols)), shape=(n * d + 1, nv + d))
    return sparse.vstack([sparse.hstack([problem.a, sparse.csr_matrix((problem.n_rows, d))]), extra]).tocsr()


class TestMasterBlocks:
    @pytest.mark.parametrize("family", ["cqr", "cer"])
    @pytest.mark.parametrize("l1", [False, True])
    @pytest.mark.parametrize("pairs", ["seed", "all"])
    @pytest.mark.parametrize("n, d, seed", [(2, 1, 0), (20, 3, 1), (30, 6, 2), (80, 2, 3)])
    def test_add_l0_appends_the_stacked_arrays(self, family, l1, pairs, n, d, seed):
        ds = make_instance(n, d, seed=seed)
        constraints = ALL_PAIRS if pairs == "all" else initial_constraints(ds)
        base = (build_cer if family == "cer" else build_cqr)(ds, 0.5, constraints)
        if l1:
            base = add_l1(base, L1Penalty(0.1))
        penalty = L0Penalty(1, 7.5)
        got, want = add_l0(base, penalty).a, _l0_by_stacking(base, penalty)
        assert type(got) is type(want)
        assert got.shape == want.shape
        _assert_same_csr_arrays((got.indptr, got.indices, got.data), want)
        assert got.has_canonical_format and want.has_canonical_format

    @pytest.mark.parametrize("build", [build_cqr, build_cer])
    @pytest.mark.parametrize("pairs", ["seed", "all"])
    def test_built_afriat_rows_are_afriat_rows(self, build, pairs):
        # The rows a master is built with and the rows the cut loop appends
        # must be the same rows, bit for bit.
        ds = make_instance(20, 3, seed=6)
        constraints = ALL_PAIRS if pairs == "all" else initial_constraints(ds)
        a = build(ds, 0.5, constraints).a
        first = a.indptr[ds.n]
        built = (a.indptr[ds.n :] - first, a.indices[first:], a.data[first:])
        for g, w in zip(afriat_rows(ds, constraints), built):
            assert g.dtype == w.dtype
            assert g.tobytes() == w.tobytes()


class TestL1:
    def test_zero_lambda_is_identity(self):
        ds = make_instance(5, 2)
        base = build_cqr(ds, 0.5, ALL_PAIRS)
        bumped = add_l1(base, L1Penalty(0.0))
        assert np.array_equal(base.obj_linear, bumped.obj_linear)

    def test_coefficient_bump(self):
        ds = make_instance(5, 2)
        base = build_cqr(ds, 0.5, ALL_PAIRS)
        bumped = add_l1(base, L1Penalty(0.95))
        lay = base.layout
        diff = bumped.obj_linear - base.obj_linear
        assert np.allclose(diff[lay.beta_all()], 0.95)
        assert np.allclose(np.delete(diff, np.arange(*lay.beta_all().indices(base.n_vars))), 0.0)

    def test_huge_lambda_kills_slopes(self, noiseless_linear):
        result = fit(
            noiseless_linear,
            EstimatorSpec("quantile", 0.5, penalty=L1Penalty(1e6)),
        )
        assert result.beta.max() <= 1e-9
        # Constant fit: fitted values do not vary with x.
        assert np.ptp(result.y_hat) <= 1e-6

    def test_rejects_negative_lambda(self):
        with pytest.raises(ValueError):
            L1Penalty(-0.1)

    def test_rejects_a_cardinality_model(self):
        mip = add_l0(build_cqr(make_instance(5, 2), 0.5, ALL_PAIRS), L0Penalty(1, 1.0))
        with pytest.raises(ValueError, match="cannot combine the shrinkage and cardinality penalties"):
            add_l1(mip, L1Penalty(0.1))


@pytest.mark.parametrize(
    "attach, message",
    [
        (lambda base, mip: add_l1(replace(base, layout=None), L1Penalty(0.1)), "not built by build_cqr/build_cer"),
        (lambda base, mip: base.layout.z(), "layout has no selection variables"),
    ],
    ids=["l1-without-layout", "selectors-without-l0"],
)
def test_penalty_block_rejects_the_wrong_problem(attach, message):
    base = build_cqr(make_instance(5, 2), 0.5, ALL_PAIRS)
    mip = add_l0(base, L0Penalty(1, 1.0))
    with pytest.raises(ValueError, match=message):
        attach(base, mip)


# Expectile seeds 0-4 of the monotonicity grid: most failing cells sit 1e-6
# to 1e-4 relative above an inner cell, where the IPM ends a pinned QP short
# of its optimum; at seed 3, (k=3, 2x) reads optimal 0.55% above (k=3, 0.5x).
_L0_CER_NOT_MONOTONE = pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="an L0-CER fit reads optimal above a fit with a smaller feasible set (ROADMAP items 6, 14 and 17)",
)


class TestL0:
    def test_row_and_variable_counts(self):
        ds = make_instance(5, 3)
        base = build_cqr(ds, 0.5, ALL_PAIRS)
        mip = add_l0(base, L0Penalty(2, 10.0))
        assert mip.n_vars == base.n_vars + 3
        assert mip.n_rows == base.n_rows + 5 * 3 + 1
        assert int(mip.integer.sum()) == 3
        # Coupling rows have exactly two nonzeros.
        coupling = mip.a.tocsr()[base.n_rows : base.n_rows + 15]
        assert (np.diff(coupling.indptr) == 2).all()

    def test_k_equals_d_matches_unpenalized(self, small_noisy):
        spec = EstimatorSpec("quantile", 0.5)
        plain = fit(small_noisy, spec)
        m = 10.0 * max(plain.beta.max(), 1e-6)
        capped = fit(
            small_noisy,
            EstimatorSpec("quantile", 0.5, penalty=L0Penalty(small_noisy.d, m)),
        )
        assert capped.objective == pytest.approx(plain.objective, abs=1e-6)

    def test_tiny_m_forces_constant_fit(self, small_noisy):
        result = fit(
            small_noisy,
            EstimatorSpec("quantile", 0.5, penalty=L0Penalty(small_noisy.d, 1e-9)),
        )
        assert result.beta.max() <= 1e-9

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            L0Penalty(0, 1.0)
        with pytest.raises(ValueError):
            L0Penalty(2, 0.0)
        # k follows the package's one integer rule: no bool, no float.
        for k in (float("inf"), True, 2.0, 1.5):
            with pytest.raises(ValueError, match=f"k must be a positive integer, got {k!r}"):
                L0Penalty(k, 1.0)
        assert L0Penalty(np.int64(2), 1.0).k == 2 and type(L0Penalty(np.int64(2), 1.0).k) is int
        ds = make_instance(4, 2)
        with pytest.raises(ValueError):
            add_l0(build_cqr(ds, 0.5, ALL_PAIRS), L0Penalty(3, 1.0))
        mip = add_l0(build_cqr(ds, 0.5, ALL_PAIRS), L0Penalty(1, 1.0))
        with pytest.raises(ValueError, match="cardinality block already present"):
            add_l0(mip, L0Penalty(1, 1.0))

    # ROADMAP item 17: the feasible set at (k', M') lies inside the one at
    # (k, M) when k' <= k and M' <= M, so no cell's optimum exceeds such a
    # cell's.  The grid and its instances were fixed before the first run.
    @pytest.mark.parametrize(
        "family, seed",
        [("quantile", seed) for seed in range(6)]
        + [pytest.param("expectile", seed, marks=_L0_CER_NOT_MONOTONE) for seed in range(5)]
        + [("expectile", 5)],
    )
    def test_objective_monotone_in_k_and_cap(self, family, seed):
        ds = make_instance(10, 3, seed=seed)
        spec = EstimatorSpec(family, 0.5)
        anchor = anchor_big_m(ds, spec, 1.0)
        cells = [(k, m) for k in (1, 2, 3) for m in (0.5, 1.0, 2.0, 10.0)]
        objective = {(k, m): fit(ds, replace(spec, penalty=L0Penalty(k, m * anchor))).objective for k, m in cells}
        above = [
            (cell, inner)
            for cell in cells
            for inner in cells
            if inner[0] <= cell[0] and inner[1] <= cell[1]
            and objective[cell] > objective[inner] + 1e-6 * abs(objective[inner])
        ]
        assert above == []


class TestFitResultInvariants:
    @pytest.mark.parametrize("family", ["quantile", "expectile"])
    def test_feasibility_round_trip(self, family, small_noisy):
        result = fit(small_noisy, EstimatorSpec(family, 0.7))
        assert validate_fit(result, small_noisy) == []

    def test_complementary_residuals(self, small_noisy):
        result = fit(small_noisy, EstimatorSpec("quantile", 0.3))
        assert np.minimum(result.eps_plus, result.eps_minus).max() <= 1e-7

    @settings(max_examples=10)
    @given(seed=st.integers(0, 10_000))
    def test_random_instances_round_trip(self, seed):
        ds = make_instance(8, 2, seed=seed)
        result = fit(ds, EstimatorSpec("quantile", 0.5))
        assert validate_fit(result, ds) == []

    @pytest.mark.parametrize("tol", [float("nan"), float("inf"), -1e-6])
    def test_rejects_tol_that_is_not_finite_and_nonnegative(self, small_noisy, tol):
        result = fit(small_noisy, EstimatorSpec("quantile", 0.5))
        with pytest.raises(ValueError, match="tol must be finite and nonnegative"):
            validate_fit(result, small_noisy, tol=tol)

    def test_rejects_big_m_that_is_not_finite(self, small_noisy):
        # A NaN cap would make every `beta <= M*z` comparison false, so none could fail.
        result = fit(small_noisy, EstimatorSpec("quantile", 0.5, penalty=L0Penalty(1, 5.0)))
        with pytest.raises(ValueError, match="big_m must be finite"):
            validate_fit(result, small_noisy, big_m=float("nan"), k=1)

    @pytest.mark.parametrize("field", ["alpha", "beta", "eps_plus", "eps_minus", "y_hat"])
    def test_non_finite_fit_fails(self, field):
        # NaN makes every other check's comparison false, so only this one can catch it.
        ds = make_instance(10, 3, seed=1)
        result = fit(ds, EstimatorSpec("quantile", 0.5))
        broken = replace(result, **{field: np.full_like(getattr(result, field), np.nan)})
        assert validate_fit(broken, ds) == [f"non-finite entries in {field}"]

    @pytest.mark.parametrize(
        "breach, message",
        [
            ("negative-beta", "beta has negative entries (min -1)"),
            ("negative-residual", "residual parts have negative entries"),
            ("too-many-selectors", "selected 3 variables, cardinality bound 1"),
            ("over-the-cap", "coefficient cap beta <= M*z violated by"),
            ("too-many-slopes-without-z", "selected 3 variables, cardinality bound 1"),
            ("over-the-cap-without-z", "coefficient cap beta <= M*z violated by"),
        ],
    )
    def test_broken_fit_is_reported(self, breach, message):
        # `cqreg verify` and the benchmark's gate read these messages.
        ds = make_instance(10, 3, seed=1)
        pen = L0Penalty(1, 10.0)
        result = fit(ds, EstimatorSpec("quantile", 0.5, penalty=pen))
        assert validate_fit(result, ds, big_m=pen.big_m, k=pen.k) == []
        assert validate_fit(replace(result, z=None), ds, big_m=pen.big_m, k=pen.k) == []
        if breach == "negative-beta":
            beta = result.beta.copy()
            beta[0, 0] = -1.0
            broken = replace(result, beta=beta)
        elif breach == "negative-residual":
            # Both parts drop by 1, so the split still sums to the residual.
            broken = replace(result, eps_plus=result.eps_plus - 1.0, eps_minus=result.eps_minus - 1.0)
        elif breach == "too-many-selectors":
            broken = replace(result, z=np.ones(ds.d, dtype=int))
        elif breach == "too-many-slopes-without-z":
            broken = replace(result, z=None, beta=np.ones_like(result.beta))
        elif breach == "over-the-cap-without-z":
            broken = replace(result, z=None, beta=np.full_like(result.beta, 2 * pen.big_m))
        else:
            broken = replace(result, z=np.zeros(ds.d, dtype=int))
        found = validate_fit(broken, ds, big_m=pen.big_m, k=pen.k)
        assert any(problem.startswith(message) for problem in found), found

    def test_extract_requires_a_point(self, small_noisy):
        problem = build_cqr(small_noisy, 0.5, ALL_PAIRS)
        stopped = Solution(Status.ITERATION_LIMIT, None, float("nan"), 1)
        with pytest.raises(ValueError, match="no primal solution available"):
            extract_fit(problem, small_noisy, stopped)

    def test_extract_requires_layout(self, small_noisy):
        problem = build_cqr(small_noisy, 0.5, ALL_PAIRS)
        sol = solve_lp(problem)
        result = extract_fit(problem, small_noisy, sol)
        assert result.z is None
        assert result.y_hat.shape == (small_noisy.n,)
