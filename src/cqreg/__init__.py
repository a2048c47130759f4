"""Penalized convex quantile and expectile regression with subset selection.

The root holds the estimators' API; the solvers live in `cqreg.solver`, the
model builders in `cqreg.model` and the cut loop in `cqreg.cuts`.
"""

from .data import Dataset
from .estimators import (
    EXPECTILE,
    QUANTILE,
    EstimatorSpec,
    anchor_big_m,
    expectile_to_quantile,
    fit,
    l0_oracle,
    support,
)
from .mc import (
    MCConfig,
    MCScenario,
    MetricsReport,
    accuracy,
    exact_support,
    expectile_level_for_quantile,
    false_positives,
    generate_scenario,
    prediction_error,
    run_mc,
)
from .model import FitResult, L0Penalty, L1Penalty, check_loss, expectile_loss, validate_fit
from .solver import SolverError
from .tuning import CVConfig, CVReport, cross_validate, kfold_split, oof_predict

__version__ = "0.1.0"
