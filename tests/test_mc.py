import json
import math

import numpy as np
import pytest
from scipy import integrate
from scipy.stats import norm

from cqreg import CVConfig, L1Penalty, MCConfig, SolverError, expectile_level_for_quantile, run_mc
from cqreg import tuning
from cqreg.mc import accuracy, exact_support, false_positives, generate_scenario
from tests.conftest import run_fresh


def test_report_independent_of_worker_count():
    cfg = MCConfig(n=10, d=2, k_true=1, taus=(0.5,), replications=2, seed=3)
    cv = CVConfig(folds=2, lambda_grid=(0.01, 1.0))
    methods = ("cqr", "l1-cqr")
    serial = run_mc(cfg, methods, cv, workers=1)
    pooled = run_mc(cfg, methods, cv, workers=2)
    assert serial == pooled
    assert serial.failures == 0
    assert len(serial.rows) == 4 * len(methods)
    assert {row["metric"] for row in serial.rows} == {
        "prediction_error",
        "accuracy",
        "false_positives",
        "exact_support",
    }
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
    report = run_mc(cfg, ("l1-cqr",), cv, workers=workers)
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


@pytest.mark.parametrize("workers", [0, -3])
def test_bad_worker_count_raises(workers):
    cfg = MCConfig(n=8, d=2, k_true=1, replications=1)
    with pytest.raises(ValueError, match="workers must be at least 1"):
        run_mc(cfg, ("cqr",), workers=workers)


def test_repeated_tau_or_method_rejected():
    with pytest.raises(ValueError, match="tau values must be distinct"):
        MCConfig(n=12, d=2, k_true=1, taus=(0.5, 0.5), replications=2)
    cfg = MCConfig(n=12, d=2, k_true=1, replications=2)
    with pytest.raises(ValueError, match="methods must be distinct"):
        run_mc(cfg, ("cqr", "cqr"), workers=1)


@pytest.mark.parametrize("package", ["scipy.stats", "scipy.optimize", "scipy.spatial"])
def test_package_import_leaves_package_unloaded(package):
    # HiGHS's bindings sit in sys.modules under scipy.optimize._highspy,
    # loaded from their file; the package itself is never imported.
    assert run_fresh(f"import sys, cqreg; print({package!r} in sys.modules)").strip() == "False"


def test_support_metrics_penalize_a_dense_fit():
    true = generate_scenario(MCConfig(n=10, d=6, k_true=2), 0).support_true
    dense = frozenset(range(6))
    assert accuracy(dense, true, k_true=2) == 100.0
    assert false_positives(dense, true) == 4
    assert exact_support(dense, true) == 0.0
    assert (accuracy(true, true, 2), false_positives(true, true), exact_support(true, true)) == (100.0, 0, 100.0)
    missed = frozenset({min(true), min(dense - true)})
    assert (accuracy(missed, true, 2), false_positives(missed, true), exact_support(missed, true)) == (50.0, 1, 0.0)


@pytest.mark.parametrize("tau", [1e-6, 0.01, 0.1, 0.25, 0.5, 0.61, 0.75, 0.9, 0.99, 1 - 1e-6])
def test_gaussian_quantities_equal_scipy_stats(tau):
    # The closed forms replace scipy.stats.norm bit for bit.
    q = norm.ppf(tau)
    below = q * norm.cdf(q) + norm.pdf(q)
    above = below - q
    assert expectile_level_for_quantile(tau) == float(below / (below + above))
    cfg = MCConfig(n=5, d=2, k_true=1, taus=(tau,), replications=1, seed=4)
    scenario = generate_scenario(cfg, 0)
    want = scenario.signal + scenario.sigma * norm.ppf(tau)
    assert np.array_equal(scenario.q_star[float(tau)], want)
