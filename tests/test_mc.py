import json
import math

import numpy as np
import pytest
from scipy import integrate
from scipy.stats import norm

from cqreg import CVConfig, L1Penalty, MCConfig, SolverError, expectile_level_for_quantile, run_mc
from cqreg import tuning


def test_report_independent_of_worker_count():
    cfg = MCConfig(n=10, d=2, k_true=1, taus=(0.5,), replications=2, seed=3)
    cv = CVConfig(folds=2, lambda_grid=(0.01, 1.0))
    methods = ("cqr", "l1-cqr")
    serial = run_mc(cfg, methods, cv, solve="full", workers=1)
    pooled = run_mc(cfg, methods, cv, solve="full", workers=2)
    assert serial == pooled
    assert serial.failures == 0
    assert len(serial.rows) == 2 * len(methods)
    assert all(row["reps"] == 2 and math.isfinite(row["mean"]) for row in serial.rows)


@pytest.mark.parametrize("workers", [1, 2])
def test_fold_failures_are_counted(monkeypatch, tmp_path, workers):
    # n = 11 in two folds trains on 5 and on 6 observations; one fold fit
    # per replication fails, and its candidate drops out of selection.
    original = tuning.fit

    def failing_fold(dataset, spec):
        if spec.penalty == L1Penalty(1.0) and dataset.n == 6:
            raise SolverError("injected fold failure")
        return original(dataset, spec)

    monkeypatch.setattr(tuning, "fit", failing_fold)
    cfg = MCConfig(n=11, d=2, k_true=1, taus=(0.5,), replications=2, seed=3)
    cv = CVConfig(folds=2, lambda_grid=(0.01, 1.0))
    report = run_mc(cfg, ("l1-cqr",), cv, solve="full", workers=workers)
    assert report.failures == 0
    assert report.fold_failures == 2
    report.to_json(tmp_path / "report.json")
    assert json.loads((tmp_path / "report.json").read_text())["fold_failures"] == 2


@pytest.mark.parametrize("tau", [0.1, 0.25, 0.5, 0.75, 0.9])
def test_expectile_level_matches_gaussian_integrals(tau):
    # The tau-expectile e of X solves w E[(X - e)+] = (1 - w) E[(e - X)+]
    # at level w; here e is the Gaussian tau-quantile.
    q = norm.ppf(tau)
    above, _ = integrate.quad(lambda x: (x - q) * norm.pdf(x), q, np.inf, epsabs=1e-13, epsrel=1e-13)
    below, _ = integrate.quad(lambda x: (q - x) * norm.pdf(x), -np.inf, q, epsabs=1e-13, epsrel=1e-13)
    assert expectile_level_for_quantile(tau) == pytest.approx(below / (below + above), abs=1e-8)
