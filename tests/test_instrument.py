"""The benchmark's wrappers replace attributes of the package by name; each
must still exist, or the benchmark fails only when it runs."""

import importlib.util
import sys
from pathlib import Path

INSTRUMENT = Path(__file__).resolve().parents[1] / "bench" / "instrument.py"


def test_every_wrapped_attribute_resolves(monkeypatch):
    spec = importlib.util.spec_from_file_location("bench_instrument", INSTRUMENT)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)  # dataclasses look the module up
    spec.loader.exec_module(module)
    targets = module.all_targets()
    missing = [
        f"{owner.__name__}.{attr}" for owner, attr in targets if not callable(getattr(owner, attr, None))
    ]
    assert len(targets) > 20
    assert missing == []
