"""The package root holds the estimators' API; solver, model-builder and
cut-loop internals are imported from the modules that define them."""

import importlib
from types import ModuleType

import cqreg
from tests.conftest import run_fresh

API = {
    "Dataset",
    "EstimatorSpec", "QUANTILE", "EXPECTILE", "fit", "support", "anchor_big_m", "l0_oracle",
    "expectile_to_quantile",
    "L1Penalty", "L0Penalty", "FitResult", "validate_fit", "check_loss", "expectile_loss",
    "CVConfig", "CVReport", "cross_validate", "kfold_split", "oof_predict",
    "MCConfig", "MCScenario", "MetricsReport", "generate_scenario", "run_mc", "prediction_error",
    "accuracy", "false_positives", "exact_support", "expectile_level_for_quantile",
    "SolverError",
}

INTERNALS = {
    "cqreg.model": ["ALL_PAIRS", "OptProblem", "build_cqr", "build_cer", "add_l1", "add_l0", "extract_fit"],
    "cqreg.solver": ["Solution", "Status", "solve_lp", "solve_qp", "solve_mip", "export_mps"],
    "cqreg.cuts": ["solve_with_cuts", "CutLoopStats", "CutLoopLimitError", "initial_constraints", "separate"],
}


def test_root_exports_the_estimators_api_only():
    public = {
        name for name, value in vars(cqreg).items()
        if not name.startswith("_") and not isinstance(value, ModuleType)
    }
    assert len(API) == 31
    assert public == API
    assert isinstance(cqreg.__version__, str)
    assert not hasattr(cqreg, "__all__")


def test_internals_import_from_their_modules():
    for module, names in INTERNALS.items():
        defining = importlib.import_module(module)
        for name in names:
            assert hasattr(defining, name), (module, name)
            assert not hasattr(cqreg, name), name


def test_import_loads_the_estimators_and_their_solvers():
    # The root imports no cut-loop name, but the estimators do: `import
    # cqreg` loads every module but the command line.
    code = "import sys, cqreg; print(' '.join(sorted(m for m in sys.modules if m.split('.')[0] == 'cqreg')))"
    assert run_fresh(code).split() == [
        "cqreg", "cqreg.cuts", "cqreg.data", "cqreg.estimators", "cqreg.mc", "cqreg.model", "cqreg.solver",
        "cqreg.solver.base", "cqreg.solver.bnb", "cqreg.solver.lp", "cqreg.solver.mps", "cqreg.solver.qp",
        "cqreg.tuning",
    ]
