"""Smoke test of the benchmark itself, at tiny n.

    python3 -m pytest -q bench/test_bench.py

Checks that every metric BENCHMARK.json names is emitted in both modes,
that every wrapper puts the original attribute back, and that the traced
counters repeat exactly for a fixed seed.
"""

from __future__ import annotations

import json

import pytest

import run

run.import_cqreg()

import instrument  # noqa: E402  (needs cqreg on the path)
import workloads  # noqa: E402
from cqreg import estimators  # noqa: E402
from cqreg.estimators import QUANTILE, EstimatorSpec  # noqa: E402
from cqreg.model import L0Penalty  # noqa: E402

MANIFEST = json.loads(run.MANIFEST.read_text())


def tiny_n(n: int) -> int:
    return 12


# Every per-layer metric the traced run reports, whether or not
# BENCHMARK.json lists it.
LAYER_METRICS = (
    "model.build_calls", "model.build_s", "model.rows_built", "model.extract_s",
    "lp.solves", "lp.solve_s", "lp.iters", "lp.fail",
    "qp.solves", "qp.solve_s", "qp.iters", "qp.iter_limit",
    "bnb.solves", "bnb.solve_s", "bnb.nodes", "bnb.node_s", "bnb.node_iters",
    "cuts.loops", "cuts.rounds", "cuts.rows_added", "cuts.rows_final", "cuts.seed_s",
    "cuts.separate_s", "cuts.master_s", "cuts.binding_share",
    "tuning.cv_s", "tuning.fold_fits", "tuning.fold_fit_s", "tuning.fold_failures",
    "tuning.anchor_s", "estimators.fit_calls", "estimators.fit_self_s", "mc.scenario_s",
    "trace.wall_s", "trace.unaccounted_s", "trace.overhead_s",
) + tuple(f"{layer}.self_s" for layer in instrument.LAYERS)
COUNTERS = ("lp.iters", "qp.iters", "bnb.nodes", "cuts.rounds", "cuts.rows_added", "tuning.fold_failures")


@pytest.fixture(autouse=True)
def one_setup(monkeypatch):
    monkeypatch.setattr(run, "SETUP_REPEATS", 1)


def originals():
    return [(owner, attr, getattr(owner, attr)) for owner, attr in instrument.all_targets()]


def all_restored(saved) -> bool:
    return all(getattr(owner, attr) is original for owner, attr, original in saved)


@pytest.mark.parametrize("workload", run.WORKLOAD_NAMES)
def test_every_metric_emitted_and_originals_restored(workload):
    saved = originals()
    plain = run.run(workload, seed=0, seconds=0, trace=False, n_of=tiny_n)
    assert all_restored(saved)
    traced = run.run(workload, seed=0, seconds=0, trace=True, n_of=tiny_n)
    assert all_restored(saved)

    for doc in (plain, traced):
        assert doc["correct"], doc["gate"]["mismatches"]
        assert doc["attempted"] >= 1
    for trace, doc in ((False, plain), (True, traced)):
        listed = [m["name"] for m in MANIFEST["per_layer" if trace else "end_to_end"]]
        assert sorted(run.manifest_metrics(doc, trace)) == sorted(listed)
    assert set(LAYER_METRICS) <= set(traced["layers"])
    assert {"wall_s", "fits_per_s", "fit_p50_s", "fail_ratio", "peak_rss_mb", "setup_s", "wall_adj_s"} <= set(plain["metrics"])
    if workload != "l0-bnb":
        assert {"cv_s", "fit_tail_s"} <= set(plain["metrics"])
    # The traced pass repeats the untraced one, and the gate checks both.
    passes = [[f["key"] for f in traced["fits"] if f["batch"] == b and f["ok"]] for b in (0, 1)]
    assert passes[0] == passes[1]
    assert traced["gate"]["checked_fits"] == 2 * len(passes[0])

    again = run.run(workload, seed=0, seconds=0, trace=True, n_of=tiny_n)
    assert {c: again["layers"][c] for c in COUNTERS} == {c: traced["layers"][c] for c in COUNTERS}


def test_wrappers_pass_exceptions_through_and_restore():
    data = workloads.instances("cqr-cv", 0, 0, tiny_n)[100]
    saved = originals()
    patches = instrument.Patches()
    recorder = instrument.FitRecorder()
    recorder.install(patches)
    tracer = instrument.Tracer()
    tracer.install(patches)
    bad = EstimatorSpec(QUANTILE, 0.5, penalty=L0Penalty(data.d + 1, 1.0))
    try:
        with pytest.raises(ValueError, match="exceeds"):
            estimators.fit(data, bad)
    finally:
        patches.restore()
    assert all_restored(saved)
    assert [r.ok for r in recorder.records] == [False]
    assert [s.name for s in tracer.spans] == ["estimators.fit"]
    assert "ValueError" in tracer.spans[0].error
