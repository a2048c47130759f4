"""Penalized convex quantile and expectile regression with subset selection."""

from .cuts import (
    CutLoopLimitError,
    CutLoopStats,
    initial_constraints,
    separate,
    solve_with_cuts,
)
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
from .model import (
    ALL_PAIRS,
    FitResult,
    L0Penalty,
    L1Penalty,
    OptProblem,
    add_l0,
    add_l1,
    add_l1_budget,
    build_cer,
    build_cqr,
    check_loss,
    expectile_loss,
    extract_fit,
    validate_fit,
)
from .solver import (
    Solution,
    SolverError,
    Status,
    export_mps,
    solve_lp,
    solve_mip,
    solve_qp,
)
from .tuning import CVConfig, CVReport, cross_validate, kfold_split, oof_predict

__version__ = "0.1.0"
