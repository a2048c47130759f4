"""Shared solver types: solution status, outcome record and error, and the
loader of scipy's compiled kernels."""

from __future__ import annotations

import importlib.machinery
import importlib.util
import os
import sys
from dataclasses import dataclass
from enum import Enum

import numpy as np
import scipy


def load_extension(name: str):
    """The compiled scipy module `name`, loaded from its file.

    Importing it would first run the `__init__` of every package on its
    dotted path, which loads far more of scipy than the one kernel the
    solvers call.  The module is registered in `sys.modules` under `name`,
    and an entry already there is reused, so a later import of its package
    finds the same module object and the extension is initialized once.
    (The parent package then lacks the attribute; import statements still
    find the module.)  This relies on scipy's file layout: the module lives
    in the directory its dotted path names.
    """
    module = sys.modules.get(name)
    if module is not None:
        return module
    directory = os.path.join(scipy.__path__[0], *name.split(".")[1:-1])
    spec = importlib.machinery.PathFinder.find_spec(name, [directory])
    if spec is None:
        raise ImportError(f"{name} is not in {directory}", name=name)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    try:
        spec.loader.exec_module(module)
    except BaseException:
        del sys.modules[name]
        raise
    return module


class Status(str, Enum):
    OPTIMAL = "optimal"
    INFEASIBLE = "infeasible"
    UNBOUNDED = "unbounded"
    ITERATION_LIMIT = "iteration_limit"
    # A solve given an objective bound proved its optimum above that bound.
    CUTOFF = "cutoff"

    def __str__(self) -> str:  # pragma: no cover
        return self.value


class SolverError(RuntimeError):
    """Numerical failure that does not map onto a solution status."""


@dataclass(frozen=True)
class Solution:
    """Outcome of one solve: primal point, objective and work counters.
    It holds no time: `estimators.fit` times the whole fit, once.
    `unproven` counts the branch-and-bound boxes pruned or skipped on a
    relaxation that ended without proof: neither optimal nor infeasible on
    HiGHS, not optimal on the IPM."""

    status: Status
    x: np.ndarray | None
    objective: float
    iterations: int = 0
    nodes: int = 0
    unproven: int = 0

    @property
    def optimal(self) -> bool:
        return self.status is Status.OPTIMAL
