import numpy as np
import pytest

from cqreg import CVConfig, EstimatorSpec, cross_validate, kfold_split, tuning
from cqreg.model import FitMeta, FitResult, L0Penalty
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
