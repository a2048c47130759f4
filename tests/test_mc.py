import math

from cqreg import CVConfig, MCConfig, run_mc


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
