"""Embedded LP/QP/MIP solving and model export."""

from .base import Solution, SolverError, Status
from .bnb import solve_mip
from .lp import solve_lp
from .mps import export_mps
from .qp import QpContext, solve_qp

__all__ = [
    "QpContext",
    "Solution",
    "SolverError",
    "Status",
    "export_mps",
    "solve_lp",
    "solve_mip",
    "solve_qp",
]
