"""Shared solver types: solution status, outcome record and error."""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np


class Status(str, Enum):
    OPTIMAL = "optimal"
    INFEASIBLE = "infeasible"
    UNBOUNDED = "unbounded"
    ITERATION_LIMIT = "iteration_limit"

    def __str__(self) -> str:  # pragma: no cover
        return self.value


class SolverError(RuntimeError):
    """Numerical failure that does not map onto a solution status."""


@dataclass(frozen=True)
class Solution:
    """Outcome of one solve: primal point, objective and work counters."""

    status: Status
    x: np.ndarray | None
    objective: float
    iterations: int = 0
    nodes: int = 0
    wall_time: float = 0.0
    dual_objective: float | None = None

    @property
    def optimal(self) -> bool:
        return self.status is Status.OPTIMAL
