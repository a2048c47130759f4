import numpy as np
import pytest

from cqreg import CVConfig, EstimatorSpec, L1Penalty, SolverError, anchor_big_m, cross_validate, fit, kfold_split, tuning
from cqreg.tuning import CVReport, chosen_penalty
from cqreg.model import FEAS_TOL, FitMeta, FitResult, L0Penalty
from tests.conftest import make_instance


class TestKfoldSplit:
    @pytest.mark.parametrize("n, folds", [(10, 2), (10, 3), (12, 5), (7, 7)])
    def test_fold_sizes_differ_by_at_most_one(self, n, folds):
        labels = kfold_split(n, folds, seed=4)
        sizes = np.bincount(labels, minlength=folds)
        assert sizes.sum() == n
        assert sizes.max() - sizes.min() <= 1

    def test_same_seed_same_split(self):
        assert np.array_equal(kfold_split(20, 5, seed=1), kfold_split(20, 5, seed=1))
        assert not np.array_equal(kfold_split(20, 5, seed=1), kfold_split(20, 5, seed=2))

    def test_more_folds_than_observations_rejected(self):
        with pytest.raises(ValueError):
            kfold_split(4, 5, seed=0)

    @pytest.mark.parametrize("folds", [1, 0])
    def test_fewer_than_two_folds_rejected(self, folds):
        with pytest.raises(ValueError, match="need at least 2 folds"):
            kfold_split(4, folds, seed=0)

    # A fractional fold count would give fractional labels, and a float n
    # numpy's AxisError; both follow the package's one integer rule.
    @pytest.mark.parametrize("n, folds", [(10, 2.5), (10, 3.0), (10.0, 3), (10, True), (np.float64(10), 2)])
    def test_non_integer_n_or_folds_rejected(self, n, folds):
        with pytest.raises(ValueError, match="n and folds must be integers"):
            kfold_split(n, folds, seed=0)

    def test_numpy_integers_accepted(self):
        assert np.array_equal(kfold_split(np.int64(10), np.int32(3), seed=0), kfold_split(10, 3, seed=0))


def flat_fit(alpha: float) -> FitResult:
    """One flat hyperplane at height alpha."""
    return FitResult(
        alpha=np.array([alpha]),
        beta=np.zeros((1, 3)),
        eps_plus=np.zeros(1),
        eps_minus=np.zeros(1),
        y_hat=np.array([alpha]),
        z=None,
        objective=0.0,
        meta=FitMeta(status="optimal"),
    )


class TestOofPredict:
    # Plane h passes through (x_h, yhat_h) and every other plane lies above
    # it there (the Afriat rows), so the envelope at a training input is its
    # fitted value.  Full mode at n=12 and n=40 covers the cold and the grown
    # CQR paths.
    @pytest.mark.parametrize("n", [12, 40])
    @pytest.mark.parametrize("family", ["quantile", "expectile"])
    @pytest.mark.parametrize("penalty", [None, L1Penalty(0.1)], ids=["plain", "l1"])
    def test_training_inputs_give_the_fitted_values(self, family, penalty, n):
        ds = make_instance(n, 3, seed=n)
        result = fit(ds, EstimatorSpec(family, 0.3, penalty=penalty))
        assert np.max(np.abs(tuning.oof_predict(result, ds.inputs) - result.y_hat)) <= FEAS_TOL

    def test_two_planes_give_their_lower_envelope(self):
        # y = x and y = 4 cross at x = 4.
        two = FitResult(
            alpha=np.array([0.0, 4.0]),
            beta=np.array([[1.0], [0.0]]),
            eps_plus=np.zeros(2),
            eps_minus=np.zeros(2),
            y_hat=np.array([2.0, 4.0]),
            z=None,
            objective=0.0,
            meta=FitMeta(status="optimal"),
        )
        x_new = np.array([[0.5], [3.0], [4.0], [5.0], [9.0]])
        assert np.array_equal(tuning.oof_predict(two, x_new), [0.5, 3.0, 4.0, 4.0, 4.0])


class TestTieBreak:
    @pytest.fixture(autouse=True)
    def unit_anchor(self, monkeypatch):
        monkeypatch.setattr(tuning, "anchor_big_m", lambda *args: 1.0)

    def test_l1_prefers_larger_lambda(self, monkeypatch):
        monkeypatch.setattr(tuning, "fit", lambda ds, spec: flat_fit(1.0))
        cfg = CVConfig(folds=3, lambda_grid=(0.1, 10.0, 1.0))
        report = cross_validate(make_instance(12, 3), EstimatorSpec("quantile", 0.5), "l1", cfg)
        assert len(set(report.mean_loss)) == 1
        assert report.chosen_params == {"lambda": 10.0}

    def test_l0_prefers_smaller_k_then_smaller_multiplier(self, monkeypatch):
        # Every candidate ties except (k=1, M=0.5), whose fit is far below
        # the data; ordering by multiplier first would pick (k=2, M=0.5).
        worse = L0Penalty(1, 0.5)
        monkeypatch.setattr(
            tuning, "fit", lambda ds, spec: flat_fit(-5.0 if spec.penalty == worse else 1.0)
        )
        cfg = CVConfig(folds=3, k_grid=(2, 1), m_multipliers=(2.0, 0.5, 1.0))
        report = cross_validate(make_instance(12, 3), EstimatorSpec("quantile", 0.5), "l0", cfg)
        assert report.mean_loss.count(min(report.mean_loss)) == 5
        assert report.chosen_params == {"k": 1, "m_multiplier": 1.0}


class TestFailures:
    def test_failures_are_the_nan_cells_of_the_loss_table(self, monkeypatch):
        # lambda = 1 fails in the first fold only (the second fit); it drops
        # out of selection and is the one failure the report counts.
        original, calls = tuning.fit, []

        def failing(ds, spec):
            calls.append(spec.penalty)
            if len(calls) == 2:
                raise SolverError("injected fold failure")
            return original(ds, spec)

        monkeypatch.setattr(tuning, "fit", failing)
        cfg = CVConfig(folds=3, lambda_grid=(0.01, 1.0))
        report = cross_validate(make_instance(12, 2), EstimatorSpec("quantile", 0.5), "l1", cfg)
        assert report.failures == 1 and report.to_dict()["failures"] == 1
        assert report.mean_loss[1] == np.inf and np.isfinite(report.mean_loss[0])
        assert calls[1] == L1Penalty(1.0) and report.chosen_params == {"lambda": 0.01}

    @pytest.mark.parametrize("penalty", ["l1", "l0"])
    def test_every_candidate_failing_raises(self, monkeypatch, penalty):
        def failing(ds, spec):
            raise SolverError("injected fold failure")

        monkeypatch.setattr(tuning, "fit", failing)
        monkeypatch.setattr(tuning, "anchor_big_m", lambda *args: 1.0)
        cfg = CVConfig(folds=2, lambda_grid=(0.1, 1.0), k_grid=(1,), m_multipliers=(1.0, 2.0))
        with pytest.raises(RuntimeError, match="every candidate failed in at least one fold"):
            cross_validate(make_instance(12, 2), EstimatorSpec("quantile", 0.5), penalty, cfg)


@pytest.mark.parametrize("family", ["quantile", "expectile"])
def test_chosen_penalty_reanchors_on_the_full_sample(family):
    # The selected multiplier times the full-sample anchor at 1 is the
    # anchor at that multiplier, bit for bit.
    ds = make_instance(12, 3, seed=2)
    spec = EstimatorSpec(family, 0.5)
    for m in (0.1, 1.5, 3.0):
        report = CVReport("l0", ({"k": 2, "m_multiplier": m},), (0.0,), (0.0,), 0, ())
        assert chosen_penalty(ds, spec, report) == L0Penalty(2, anchor_big_m(ds, spec, m))
    report = CVReport("l1", ({"lambda": 0.3},), (0.0,), (0.0,), 0, ())
    assert chosen_penalty(ds, spec, report) == L1Penalty(0.3)


def test_l0_default_k_grid_at_one_input_is_rejected_before_any_fit(monkeypatch):
    def no_fit(*args):
        raise AssertionError("the grid check comes before any fit")

    monkeypatch.setattr(tuning, "anchor_big_m", no_fit)
    monkeypatch.setattr(tuning, "fit", no_fit)
    with pytest.raises(ValueError, match=r"default k grid .* is empty at d=1; .*--k-grid"):
        cross_validate(make_instance(12, 1), EstimatorSpec("quantile", 0.5), "l0", CVConfig())


@pytest.mark.parametrize(
    "spec, penalty, message",
    [
        (EstimatorSpec("quantile", 0.5, penalty=L1Penalty(0.1)), "l1", "pass a penalty-free spec"),
        (EstimatorSpec("quantile", 0.5), "l2", "penalty must be 'l1' or 'l0', got 'l2'"),
    ],
    ids=["penalized-spec", "unknown-penalty"],
)
def test_bad_candidate_family_is_rejected(spec, penalty, message):
    with pytest.raises(ValueError, match=message):
        cross_validate(make_instance(12, 2), spec, penalty, CVConfig(folds=2))


@pytest.mark.parametrize(
    "grid, values", [("lambda_grid", (0.1, 0.1)), ("k_grid", (1, 2, 1)), ("m_multipliers", (1.0, 1.0))]
)
def test_repeated_grid_value_is_rejected(grid, values):
    with pytest.raises(ValueError, match=f"{grid} values must be distinct"):
        CVConfig(folds=2, **{grid: values})


@pytest.mark.parametrize(
    "field, value",
    [
        ("folds", 2.5),
        ("folds", True),
        ("lambda_grid", (0.1, -1.0)),
        ("lambda_grid", (float("nan"),)),
        ("lambda_grid", (float("inf"),)),
        ("m_multipliers", (1.0, 0.0)),
        ("m_multipliers", (-1.0,)),
        ("m_multipliers", (float("inf"),)),
        ("k_grid", (1, 2.0)),
        ("k_grid", (0,)),
        ("seed", -1),
        ("seed", 1.5),
        ("seed", True),
    ],
)
def test_bad_grid_value_is_rejected(field, value):
    with pytest.raises(ValueError, match=f"^{field} "):
        CVConfig(**{field: value})


@pytest.mark.parametrize("grid, name", [("k_grid", "k grid"), ("m_multipliers", "multiplier grid")])
def test_empty_grid_is_rejected(grid, name):
    with pytest.raises(ValueError, match=f"^{name} must be non-empty"):
        CVConfig(**{grid: ()})


@pytest.mark.parametrize("count", [0, -1])
def test_default_lambda_grid_needs_a_candidate(count):
    with pytest.raises(ValueError, match="^lambda count must be at least 1"):
        tuning.default_lambda_grid(count)


def test_numpy_integers_are_integers():
    cfg = CVConfig(folds=np.int64(3), k_grid=(np.int64(1), 2))
    assert cfg.folds == 3 and cfg.k_grid == (1, 2)


class TestSdgPreset:
    def test_grids(self):
        cfg = CVConfig.sdg(folds=4, seed=7)
        assert (cfg.folds, cfg.seed) == (4, 7)
        assert len(cfg.lambda_grid) == 100
        assert cfg.lambda_grid[0] == 0.1 and cfg.lambda_grid[-1] == 3.0
        assert np.allclose(np.diff(cfg.lambda_grid), 2.9 / 99, rtol=0, atol=1e-12)
        assert cfg.k_grid == tuple(range(1, 12))
        assert cfg.m_multipliers == (0.1, 0.5, 0.8, 1.0, 1.5, 1.8, 2.0, 2.5, 3.0, 5.0)

    def test_l0_needs_eleven_inputs(self, monkeypatch):
        def no_fit(*args):
            raise AssertionError("the grid check comes before any fit")

        monkeypatch.setattr(tuning, "anchor_big_m", no_fit)
        monkeypatch.setattr(tuning, "fit", no_fit)
        with pytest.raises(ValueError, match="k grid exceeds d=10"):
            cross_validate(make_instance(12, 10), EstimatorSpec("quantile", 0.5), "l0", CVConfig.sdg())
