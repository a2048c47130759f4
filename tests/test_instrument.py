"""The benchmark replaces attributes of the package by name and reads fit
specs and results; all of that must still resolve, or the benchmark fails
only when it runs."""

import ast
import importlib.util
import sys
from pathlib import Path

from cqreg import EstimatorSpec, L0Penalty, L1Penalty, anchor_big_m, fit
from tests.conftest import make_instance

ROOT = Path(__file__).resolve().parents[1]
BENCH = ROOT / "bench"


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


def test_every_kept_import_is_wrapped(monkeypatch):
    # An import marked `# noqa: F401` is kept only for the benchmark to wrap;
    # once no wrapper names it, it is an unused import.
    wrapped = {(owner.__name__, attr) for owner, attr in load_bench_module(monkeypatch, "instrument").all_targets()}
    kept = []
    for path in sorted((ROOT / "src" / "cqreg").rglob("*.py")):
        source = path.read_text(encoding="utf-8")
        lines = source.splitlines()
        module = ".".join(path.relative_to(ROOT / "src").with_suffix("").parts)
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                kept += [
                    (module, alias.asname or alias.name.split(".")[0])
                    for alias in node.names
                    if "# noqa: F401" in lines[alias.lineno - 1]
                ]
    assert kept
    assert [name for name in kept if name not in wrapped] == []


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
