import concurrent.futures
import json
import math

import numpy as np
import pytest
from scipy import integrate
from scipy.stats import norm

from cqreg import CVConfig, L1Penalty, MCConfig, SolverError, expectile_level_for_quantile, run_mc
from cqreg import mc, tuning
from cqreg import __version__
from cqreg.cli import EXIT_OK, SCHEMA_VERSION, main
from cqreg.estimators import EXPECTILE
from cqreg.mc import METHODS, accuracy, exact_support, false_positives, generate_scenario, prediction_error
from cqreg.tuning import default_lambda_grid
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


def test_one_replication_runs_its_cells_in_the_pool(monkeypatch):
    # Each (method, tau) cell is a job, so one replication of two methods
    # fills two processes and reports what a serial run does.
    real, sizes = concurrent.futures.ProcessPoolExecutor, []

    class RecordingPool(real):
        def __init__(self, max_workers):
            sizes.append(max_workers)
            super().__init__(max_workers=max_workers)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    cfg = MCConfig(n=10, d=2, k_true=1, taus=(0.5,), replications=1, seed=3)
    cv = CVConfig(folds=2, lambda_grid=(0.01, 1.0))
    pooled = run_mc(cfg, ("cqr", "l1-cqr"), cv, workers=2)
    assert sizes == [2]
    assert pooled == run_mc(cfg, ("cqr", "l1-cqr"), cv, workers=1)
    assert [row["reps"] for row in pooled.rows] == [1] * 8


@pytest.fixture
def pool_sizes(monkeypatch):
    """Puts a stand-in for ProcessPoolExecutor in place: it records the size
    it is asked for and runs each job in this process, starting none."""
    sizes = []

    class FakePool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables):
            return map(fn, *iterables)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", FakePool)
    return sizes


@pytest.mark.parametrize(
    "workers, reps, taus, sizes",
    [(64, 2, (0.5,), [2]), (64, 2, (0.3, 0.5), [4]), (3, 3, (0.5,), [3]), (2, 3, (0.5,), [2]),
     (64, 1, (0.5,), []), (1, 2, (0.5,), [])],
)
def test_pool_starts_at_most_one_process_per_job(pool_sizes, workers, reps, taus, sizes):
    cfg = MCConfig(n=8, d=2, k_true=1, taus=taus, replications=reps)
    report = run_mc(cfg, ("cqr",), workers=workers)
    assert pool_sizes == sizes
    assert all(row["reps"] == reps for row in report.rows)


@pytest.mark.parametrize("workers", [2.0, 1.5, True, "2"])
def test_non_integer_worker_count_raises(monkeypatch, pool_sizes, workers):
    monkeypatch.setattr(mc, "generate_scenario", lambda *args: pytest.fail("a scenario was drawn"))
    cfg = MCConfig(n=8, d=2, k_true=1, replications=2)
    with pytest.raises(ValueError, match=f"workers must be an integer, got {workers!r}"):
        run_mc(cfg, ("cqr",), workers=workers)
    assert pool_sizes == []


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
    assert report.fold_failures_by_method == {"l1-cqr": 2}
    assert json.loads(json.dumps(report.to_dict()))["fold_failures"] == 2


def test_failures_are_attributed_to_their_method(monkeypatch, tmp_path, capsys):
    # Every CER fit raises, as a failed solve does, and one L1-CQR fold fit
    # per replication fails: each count lands on its own method, and only
    # the CER cells are left out of the rows.
    original_fit, original_fold_fit = mc.fit, tuning.fit
    failing_lam = L1Penalty(default_lambda_grid(2)[-1])

    def failing_cer(dataset, spec):
        if spec.family == EXPECTILE:
            raise SolverError("injected cell failure")
        return original_fit(dataset, spec)

    def failing_fold(dataset, spec):
        if spec.penalty == failing_lam and dataset.n == 6:
            raise SolverError("injected fold failure")
        return original_fold_fit(dataset, spec)

    monkeypatch.setattr(mc, "fit", failing_cer)
    monkeypatch.setattr(tuning, "fit", failing_fold)
    out = tmp_path / "report.json"
    args = ("simulate", "--n", 11, "--d", 2, "--k-true", 1, "--reps", 2, "--methods", "l1-cqr,cer",
            "--folds", 2, "--lambda-count", 2, "--workers", 1, "--out", tmp_path / "mc.csv", "--json", out)
    assert main([str(a) for a in args]) == EXIT_OK
    warnings = [line for line in capsys.readouterr().out.splitlines() if line.startswith("warning:")]
    assert warnings == [
        "warning: 2 replication cell(s) failed and were excluded",
        "warning: 2 CV fold fit(s) failed; their candidates were left out",
    ]
    doc = json.loads(out.read_text())
    assert doc["schema_version"] == SCHEMA_VERSION
    assert doc["tool"] == {"name": "cqreg", "version": __version__}
    assert (doc["failures"], doc["fold_failures"]) == (2, 2)
    assert doc["failures_by_method"] == {"l1-cqr": 0, "cer": 2}
    assert doc["fold_failures_by_method"] == {"l1-cqr": 2, "cer": 0}
    assert {row["method"]: row["reps"] for row in doc["rows"]} == {"l1-cqr": 2, "cer": 0}


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


@pytest.mark.parametrize(
    "field, message",
    [
        (dict(rho=float("nan")), "rho must be positive, got nan"),
        (dict(rho=0.0), "rho must be positive"),
        (dict(rho=-2.0), "rho must be positive"),
        (dict(n=0), "n must be an integer of at least 2, got 0"),
        (dict(n=1), "n must be an integer of at least 2, got 1"),
        (dict(n=30.0), "n must be an integer of at least 2, got 30.0"),
        (dict(d=6.0), "d must be an integer, got 6.0"),
        (dict(k_true=1.0), "k_true must be an integer, got 1.0"),
        (dict(replications=2.0), "replications must be an integer, got 2.0"),
        (dict(seed=-1), "seed must be a nonnegative integer, got -1"),
        (dict(seed=1.5), "seed must be a nonnegative integer, got 1.5"),
        (dict(k_true=3), r"k_true=3 must lie in \[1, d=2\]"),
        (dict(replications=0), "need at least one replication"),
        (dict(taus=(0.5, 1.0)), r"tau values must lie in \(0, 1\)"),
        (dict(d=True), "d must be an integer, got True"),
        (dict(n=True), "n must be an integer of at least 2, got True"),
        (dict(seed=False), "seed must be a nonnegative integer, got False"),
    ],
    ids=[
        "rho-nan", "rho-zero", "rho-negative", "n-zero", "n-one", "n-float",
        "d-float", "k_true-float", "replications-float", "seed-negative", "seed-float",
        "k_true-above-d", "replications-zero", "tau-one", "d-bool", "n-bool", "seed-bool",
    ],
)
def test_bad_design_rejected_before_drawing(field, message):
    with pytest.raises(ValueError, match=message):
        MCConfig(**{**dict(n=12, d=2, k_true=1, replications=1), **field})


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda cfg: run_mc(cfg, ()), "need at least one method"),
        (lambda cfg: run_mc(cfg, ("cqr", "l2-cqr")), "unknown method 'l2-cqr'"),
        (lambda cfg: expectile_level_for_quantile(0.0), r"tau must lie in \(0, 1\)"),
        (lambda cfg: expectile_level_for_quantile(1.0), r"tau must lie in \(0, 1\)"),
        (lambda cfg: prediction_error(np.ones(3), np.ones(4)), "vectors must have equal length"),
        (lambda cfg: prediction_error(np.ones(3), np.zeros(3)), "ground-truth vector must not be all-zero"),
        (lambda cfg: accuracy({0}, {0}, 0), "k_true must be at least 1"),
    ],
    ids=["no-method", "unknown-method", "tau-zero", "tau-one", "length-mismatch", "zero-truth", "k_true-zero"],
)
def test_bad_argument_rejected_before_drawing(monkeypatch, call, message):
    monkeypatch.setattr(mc, "generate_scenario", lambda *args: pytest.fail("a scenario was drawn"))
    with pytest.raises(ValueError, match=message):
        call(MCConfig(n=12, d=2, k_true=1, replications=1))


def test_repeated_tau_or_method_rejected():
    with pytest.raises(ValueError, match="tau values must be distinct"):
        MCConfig(n=12, d=2, k_true=1, taus=(0.5, 0.5), replications=2)
    cfg = MCConfig(n=12, d=2, k_true=1, replications=2)
    with pytest.raises(ValueError, match="methods must be distinct"):
        run_mc(cfg, ("cqr", "cqr"), workers=1)


@pytest.mark.parametrize(
    "package",
    [
        "scipy.stats",
        "scipy.optimize",
        "scipy.spatial",
        "scipy.sparse.csgraph",
        "scipy.sparse.linalg",
        "scipy.linalg",
        "scipy.special",
        "multiprocessing",
    ],
)
def test_package_import_leaves_package_unloaded(package):
    # HiGHS's bindings and SuperLU's kernels sit in sys.modules under their
    # packages, loaded from their files; the packages themselves are never
    # imported, and the process pool is imported only to start one.
    assert run_fresh(f"import sys, cqreg; print({package!r} in sys.modules)").strip() == "False"


def test_scipy_special_loads_on_the_first_read_of_q_star():
    # Drawing a scenario and fitting it leave scipy.special unloaded; the
    # ground-truth curves load it and keep the bits of scipy.stats.
    cfg = MCConfig(n=8, d=2, k_true=1, taus=(0.1, 0.5, 0.9), seed=1)
    code = f"""
import sys
from cqreg import EXPECTILE, QUANTILE, EstimatorSpec, MCConfig, fit, generate_scenario
scenario = generate_scenario({cfg!r}, 0)
fit(scenario.dataset, EstimatorSpec(QUANTILE, 0.5))
fit(scenario.dataset, EstimatorSpec(EXPECTILE, 0.5))
print("scipy.special" in sys.modules)
curves = [scenario.q_star(tau) for tau in {cfg.taus!r}]
print("scipy.special" in sys.modules)
for curve in curves:
    print(curve.tobytes().hex())
"""
    before, after, *curves = run_fresh(code).split()
    assert (before, after) == ("False", "True")
    scenario = generate_scenario(cfg, 0)
    want = [(scenario.signal + scenario.sigma * norm.ppf(tau)).tobytes().hex() for tau in cfg.taus]
    assert curves == want


def test_run_fresh_fails_with_the_child_stderr():
    with pytest.raises(pytest.fail.Exception, match=r"status 1:\n(.|\n)*ValueError: no such input"):
        run_fresh("raise ValueError('no such input')")


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
    assert np.array_equal(scenario.q_star(tau), want)


def test_l0_recovers_the_support_better_than_l1():
    # The paper's ordering, as the Monte Carlo artifact REPRO_21.json shows
    # it at n=50: each L0 method selects fewer false inputs, and the true
    # support more often, than its L1 counterpart.  The cell and its seeds
    # were fixed before its first run; a failure here is a finding about
    # the estimators, not a reason to pick other seeds.
    cfg = MCConfig(n=30, d=4, k_true=2, rho=10.0, taus=(0.5,), replications=3, seed=0)
    cv = CVConfig(folds=3, seed=0, lambda_grid=(0.01, 0.1, 1.0), k_grid=(1, 2, 3), m_multipliers=(1.0,))
    report = run_mc(cfg, tuple(METHODS), cv, workers=1)
    mean = {(row["method"], row["metric"]): row["mean"] for row in report.rows}
    for l0, l1 in (("l0-cqr", "l1-cqr"), ("l0-cer", "l1-cer")):
        assert mean[l0, "false_positives"] < mean[l1, "false_positives"]
        assert mean[l0, "exact_support"] > mean[l1, "exact_support"]
