"""Fixed-format MPS export so external solvers can cross-check any model.

Column and row names exist only here.  A problem built by `cqreg.model`
gets names from its layout: columns YH, B, EP, EN and Z; rows FIT, then
A{i}_{h} for each Afriat row, then BM and CARD.  Any other problem gets
X{j} and R{r}.
"""

from __future__ import annotations

import numpy as np

from ..model import OptProblem


def _num(value: float) -> str:
    return f"{value:.12g}"


def _entry(col: str, row: str, value: float) -> str:
    return f"    {col:<10}{row:<10}{_num(value)}"


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
    """Serialize a problem as fixed-format MPS text.

    Columns appear in variable order (round-trips the model layout), binary
    columns are bracketed by INTORG/INTEND markers, and a diagonal QMATRIX
    section carries the quadratic objective (MPS convention 0.5 x'Qx, so the
    diagonal entries are twice the squared-term coefficients).
    """
    col_names, row_names = _names(problem)
    lines = ["NAME          CQREG", "ROWS", " N  OBJ"]
    for sense, row in zip(problem.sense, row_names):
        lines.append(f" {sense}  {row}")

    lines.append("COLUMNS")
    a_csc = problem.a.tocsc()
    in_int = False
    marker = 0
    for j, col in enumerate(col_names):
        if problem.integer[j] and not in_int:
            marker += 1
            lines.append(f"    MARKER{marker:<4}              'MARKER'                 'INTORG'")
            in_int = True
        elif not problem.integer[j] and in_int:
            marker += 1
            lines.append(f"    MARKER{marker:<4}              'MARKER'                 'INTEND'")
            in_int = False
        if problem.obj_linear[j] != 0.0:
            lines.append(_entry(col, "OBJ", problem.obj_linear[j]))
        start, stop = a_csc.indptr[j], a_csc.indptr[j + 1]
        order = np.argsort(a_csc.indices[start:stop])
        for k in order:
            r = a_csc.indices[start + k]
            lines.append(_entry(col, row_names[r], a_csc.data[start + k]))
    if in_int:
        marker += 1
        lines.append(f"    MARKER{marker:<4}              'MARKER'                 'INTEND'")

    lines.append("RHS")
    for row, value in zip(row_names, problem.rhs):
        if value != 0.0:
            lines.append(_entry("RHS1", row, value))

    lines.append("BOUNDS")
    for j, col in enumerate(col_names):
        lo, up = problem.lower[j], problem.upper[j]
        if lo == -np.inf and up == np.inf:
            lines.append(f" FR BND1      {col}")
            continue
        if lo == -np.inf:
            lines.append(f" MI BND1      {col}")
        elif lo != 0.0:
            lines.append(f" LO BND1      {col:<10}{_num(lo)}")
        if up != np.inf:
            lines.append(f" UP BND1      {col:<10}{_num(up)}")

    if problem.obj_quad is not None and np.any(problem.obj_quad != 0.0):
        lines.append("QMATRIX")
        for j, col in enumerate(col_names):
            if problem.obj_quad[j] != 0.0:
                lines.append(_entry(col, col, 2.0 * problem.obj_quad[j]))

    lines.append("ENDATA")
    return "\n".join(lines) + "\n"
