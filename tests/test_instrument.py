"""The benchmark replaces attributes of the package by name and reads fit
specs and results; all of that must still resolve, or the benchmark fails
only when it runs."""

import importlib.util
import sys
from pathlib import Path

from cqreg import EstimatorSpec, L0Penalty, L1Penalty, anchor_big_m, fit
from tests.conftest import make_instance

BENCH = Path(__file__).resolve().parents[1] / "bench"


def load_bench_module(monkeypatch, name):
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)  # dataclasses look the module up
    spec.loader.exec_module(module)
    return module


def test_every_wrapped_attribute_resolves(monkeypatch):
    module = load_bench_module(monkeypatch, "instrument")
    targets = module.all_targets()
    missing = [
        f"{owner.__name__}.{attr}" for owner, attr in targets if not callable(getattr(owner, attr, None))
    ]
    assert len(targets) > 20
    assert missing == []


def test_gate_and_summary_read_fits(monkeypatch):
    instrument = load_bench_module(monkeypatch, "instrument")
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        monkeypatch.setenv(var, "1")  # run.py pins these on import; undone at teardown
    run = load_bench_module(monkeypatch, "run")
    ds = make_instance(12, 3, seed=4)
    l1_cqr = EstimatorSpec("quantile", 0.5, penalty=L1Penalty(0.1), solve="cuts")
    plain = EstimatorSpec("quantile", 0.5)
    l0_cqr = EstimatorSpec("quantile", 0.5, penalty=L0Penalty(1, anchor_big_m(ds, plain, 2.0)))
    records = [
        instrument.FitRecord(key, "op", 0, 0.0, 1.0, None, ds, spec, fit(ds, spec))
        for key, spec in (("l1-cqr", l1_cqr), ("l0-cqr", l0_cqr))
    ]
    assert run.gate(records, [], {"fits": {}, "cv": {}}) == []
    summary = run.summarize(records, [])
    assert sorted(summary["fits"]) == ["l0-cqr", "l1-cqr"]
    assert summary["failed"] == []
    assert run.gate(records, [], summary) == []
