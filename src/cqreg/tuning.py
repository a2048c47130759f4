"""k-fold cross-validation for the shrinkage and cardinality tuning grids.

Held-out points are scored against the concave lower envelope of the
trained hyperplanes with the estimator's own asymmetric loss at the target
level, so the selection criterion matches the training criterion.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any

import numpy as np

from .data import Dataset
from .estimators import EXPECTILE, QUANTILE, EstimatorSpec, anchor_big_m, fit
from .model import FitResult, L0Penalty, L1Penalty, check_loss, expectile_loss

_SDG_MULTIPLIERS = (0.1, 0.5, 0.8, 1.0, 1.5, 1.8, 2.0, 2.5, 3.0, 5.0)


def default_lambda_grid(count: int = 100) -> tuple[float, ...]:
    """Log-spaced shrinkage grid spanning a wide range of magnitudes."""
    return tuple(np.logspace(-3, 2, count))


@dataclass(frozen=True)
class CVConfig:
    """Fold count, seed and candidate grids for all penalties.

    `lambda_grid=None` means the 100-value log-spaced default; `k_grid=None`
    means {1, ..., d-1} derived from the data at call time.
    """

    folds: int = 5
    seed: int = 0
    lambda_grid: tuple[float, ...] | None = None
    m_multipliers: tuple[float, ...] = (0.1, 0.5, 1.0, 1.5, 2.0, 3.0, 4.0, 5.0)
    k_grid: tuple[int, ...] | None = None

    def __post_init__(self) -> None:
        if self.folds < 2:
            raise ValueError("need at least 2 folds")
        if self.lambda_grid is not None and len(self.lambda_grid) == 0:
            raise ValueError("lambda grid must be non-empty")
        if len(self.m_multipliers) == 0:
            raise ValueError("multiplier grid must be non-empty")
        if self.k_grid is not None:
            if len(self.k_grid) == 0:
                raise ValueError("k grid must be non-empty")
            if min(self.k_grid) < 1:
                raise ValueError("k grid entries must be >= 1")
        for name in ("lambda_grid", "k_grid", "m_multipliers"):
            grid = getattr(self, name)
            if grid is not None and len(set(grid)) != len(grid):
                raise ValueError(f"{name} values must be distinct, got {grid}")

    @classmethod
    def sdg(cls, folds: int = 5, seed: int = 0) -> "CVConfig":
        """Grids used for the sustainable-development application: 100 lambdas
        in [0.1, 3], subset sizes 1..11 and the ten-point multiplier set."""
        return cls(
            folds=folds,
            seed=seed,
            lambda_grid=tuple(np.linspace(0.1, 3.0, 100)),
            m_multipliers=_SDG_MULTIPLIERS,
            k_grid=tuple(range(1, 12)),
        )


@dataclass(frozen=True)
class CVReport:
    """Per-candidate out-of-fold losses and the selected candidate."""

    penalty: str
    candidates: tuple[dict[str, Any], ...]
    mean_loss: tuple[float, ...]
    se_loss: tuple[float, ...]
    chosen: int
    fold_assignment: tuple[int, ...]
    failures: int = 0

    @property
    def chosen_params(self) -> dict[str, Any]:
        return self.candidates[self.chosen]

    def to_dict(self) -> dict[str, Any]:
        return {
            "penalty": self.penalty,
            "candidates": list(self.candidates),
            "mean_loss": list(self.mean_loss),
            "se_loss": list(self.se_loss),
            "chosen": self.chosen,
            "chosen_params": dict(self.chosen_params),
            "fold_assignment": list(self.fold_assignment),
            "failures": self.failures,
        }


def kfold_split(n: int, folds: int, seed: int) -> np.ndarray:
    """Random fold labels; sizes differ by at most one; deterministic per seed."""
    if folds > n:
        raise ValueError(f"folds={folds} exceeds n={n}")
    if folds < 2:
        raise ValueError("need at least 2 folds")
    rng = np.random.default_rng(seed)
    labels = np.arange(n) % folds
    return labels[rng.permutation(n)]


def oof_predict(fit_result: FitResult, x_new: np.ndarray):
    """Concave lower envelope of the fitted hyperplanes at new inputs.

    This is the canonical out-of-sample evaluator for a concave fit: the
    minimum over the trained supporting hyperplanes.
    """
    x = np.asarray(x_new, dtype=float)
    single = x.ndim == 1
    if single:
        x = x[None, :]
    values = fit_result.alpha[None, :] + x @ fit_result.beta.T
    envelope = values.min(axis=1)
    return float(envelope[0]) if single else envelope


def _oof_loss(family: str, level: float, y_true: np.ndarray, y_pred: np.ndarray) -> float:
    resid = y_true - y_pred
    if family == QUANTILE:
        return float(np.mean(check_loss(resid, level)))
    return float(np.mean(expectile_loss(resid, level)))


def cross_validate(
    dataset: Dataset, spec: EstimatorSpec, penalty: str, cfg: CVConfig
) -> CVReport:
    """Score every candidate on out-of-fold loss and select the best.

    Ties prefer the sparser / more regularized model: larger lambda for the
    shrinkage grid, smaller k then smaller multiplier for the cardinality
    product grid.
    """
    if spec.penalty is not None:
        raise ValueError("pass a penalty-free spec; candidates supply penalties")
    if penalty not in ("l1", "l0"):
        raise ValueError(f"penalty must be 'l1' or 'l0', got {penalty!r}")
    n, d = dataset.n, dataset.d
    assignment = kfold_split(n, cfg.folds, cfg.seed)

    if penalty == "l1":
        grid = cfg.lambda_grid if cfg.lambda_grid is not None else default_lambda_grid()
        candidates = tuple({"lambda": float(lam)} for lam in grid)
        tie_keys = [(-c["lambda"],) for c in candidates]
    else:
        k_grid = cfg.k_grid if cfg.k_grid is not None else tuple(range(1, d))
        if not k_grid:
            raise ValueError(f"default k grid {{1, ..., d-1}} is empty at d={d}; pass --k-grid")
        if max(k_grid) > d:
            raise ValueError(f"k grid exceeds d={d}")
        candidates = tuple(
            {"k": int(k), "m_multiplier": float(m)}
            for k in k_grid
            for m in cfg.m_multipliers
        )
        tie_keys = [(c["k"], c["m_multiplier"]) for c in candidates]

    losses = np.full((len(candidates), cfg.folds), np.nan)
    failures = 0
    for fold in range(cfg.folds):
        test_idx = np.flatnonzero(assignment == fold)
        train_idx = np.flatnonzero(assignment != fold)
        if np.intersect1d(test_idx, train_idx).size:
            raise AssertionError("fold leakage")
        train = dataset.subset(train_idx)
        x_test = dataset.inputs[test_idx]
        y_test = dataset.output[test_idx]
        anchor = None
        if penalty == "l0":
            anchor = anchor_big_m(train, spec, 1.0)
        for ci, cand in enumerate(candidates):
            if penalty == "l1":
                cand_penalty = L1Penalty(cand["lambda"])
            else:
                cand_penalty = L0Penalty(cand["k"], cand["m_multiplier"] * anchor)
            try:
                trained = fit(train, replace(spec, penalty=cand_penalty))
            except RuntimeError:
                failures += 1
                continue
            losses[ci, fold] = _oof_loss(
                spec.family, spec.level, y_test, oof_predict(trained, x_test)
            )

    # A failed fold invalidates the whole candidate.
    complete = ~np.isnan(losses).any(axis=1)
    mean_loss = np.full(len(candidates), np.inf)
    se_loss = np.full(len(candidates), np.inf)
    if complete.any():
        mean_loss[complete] = losses[complete].mean(axis=1)
        se_loss[complete] = losses[complete].std(axis=1, ddof=1) / np.sqrt(cfg.folds)
    order = sorted(range(len(candidates)), key=lambda c: (mean_loss[c], tie_keys[c]))
    chosen = order[0]
    if not np.isfinite(mean_loss[chosen]):
        raise RuntimeError("every candidate failed in at least one fold")
    return CVReport(
        penalty=penalty,
        candidates=candidates,
        mean_loss=tuple(float(v) for v in mean_loss),
        se_loss=tuple(float(v) for v in se_loss),
        chosen=int(chosen),
        fold_assignment=tuple(int(f) for f in assignment),
        failures=failures,
    )


def chosen_penalty(
    dataset: Dataset, spec: EstimatorSpec, report: CVReport
) -> L1Penalty | L0Penalty:
    """Materialize the selected candidate as a penalty for a full-data refit;
    the cardinality cap re-anchors on the full sample."""
    params = report.chosen_params
    if report.penalty == "l1":
        return L1Penalty(params["lambda"])
    big_m = anchor_big_m(dataset, spec, params["m_multiplier"])
    return L0Penalty(params["k"], big_m)
