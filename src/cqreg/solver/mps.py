"""MPS export so external solvers can cross-check any model.

`export_mps` passes the problem to a fresh HiGHS instance as `LpSession`
does, but in its own row order and with its integrality, adds the Hessian
2 * obj_quad (MPS reads 0.5 x'Qx) and returns the text of HiGHS's own MPS
writer.  Names exist only here.  A problem built by `cqreg.model` gets
them from its layout: columns YH, B, EP, EN and Z; rows FIT, then A{i}_{h}
for each Afriat row, then BM and CARD.  Any other problem gets X{j}, R{r}.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from ..model import OptProblem
from .base import SolverError
from .lp import _core, _pass_model


def _names(problem: OptProblem) -> tuple[list[str], list[str]]:
    """Column and row names in variable and row order."""
    lay = problem.layout
    if lay is None:
        return [f"X{j + 1}" for j in range(problem.n_vars)], [f"R{r + 1}" for r in range(problem.n_rows)]
    n, d = lay.n, lay.d
    obs, inputs = range(1, n + 1), range(1, d + 1)
    cols = (
        [f"YH{i}" for i in obs]
        + [f"B{i}_{j}" for i in obs for j in inputs]
        + [f"EP{i}" for i in obs]
        + [f"EN{i}" for i in obs]
    )
    # Afriat row A{i}_{h} reads yhat_h - yhat_i - beta_i @ (x_h - x_i) <= 0.
    yhat = problem.a[n : n + lay.afriat, :n]
    minus, plus = np.ravel(yhat.argmin(axis=1)) + 1, np.ravel(yhat.argmax(axis=1)) + 1
    rows = [f"FIT{i}" for i in obs] + [f"A{i}_{h}" for i, h in zip(minus.tolist(), plus.tolist())]
    if lay.has_z:
        cols += [f"Z{j}" for j in inputs]
        rows += [f"BM{i}_{j}" for i in obs for j in inputs] + ["CARD"]
    return cols, rows


def export_mps(problem: OptProblem) -> str:
    """The problem as MPS text, written by HiGHS."""
    import tempfile  # only an export writes a file
    highs = _core._Highs()
    highs.setOptionValue("output_flag", False)
    _pass_model(highs, problem, np.arange(problem.n_rows))
    if problem.has_quad:
        n = problem.n_vars
        start = np.arange(n + 1, dtype=np.int32)  # column j holds the one entry (j, j)
        status = highs.passHessian(n, n, _core.HessianFormat.kTriangular, start, start[:-1], 2 * problem.obj_quad)
        if status == _core.HighsStatus.kError:
            raise SolverError("HiGHS rejected the Hessian")
    for pass_name, names in zip((highs.passColName, highs.passRowName), _names(problem)):
        for i, name in enumerate(names):
            pass_name(i, name)
    with tempfile.TemporaryDirectory() as folder:  # HiGHS writes MPS to a `.mps` name only
        path = Path(folder) / "model.mps"
        if highs.writeModel(str(path)) == _core.HighsStatus.kError:
            raise SolverError("HiGHS could not write the model")
        return path.read_text(encoding="utf-8")
