"""Dataset container for production-function estimation."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Dataset:
    """n observations of d nonnegative inputs and one real output.

    The monotone-technology domain requires elementwise nonnegative inputs;
    every entry must be finite.
    """

    inputs: np.ndarray
    output: np.ndarray

    def __post_init__(self) -> None:
        X = np.asarray(self.inputs, dtype=float)
        y = np.asarray(self.output, dtype=float)
        if X.ndim != 2:
            raise ValueError(f"inputs must be 2-D, got shape {X.shape}")
        if y.ndim != 1:
            raise ValueError(f"output must be 1-D, got shape {y.shape}")
        n, d = X.shape
        if n < 2:
            raise ValueError(f"need at least 2 observations, got n={n}")
        if d < 1:
            raise ValueError("need at least 1 input variable")
        if y.shape[0] != n:
            raise ValueError(f"output length {y.shape[0]} != n={n}")
        if not np.all(np.isfinite(X)):
            raise ValueError("inputs contain non-finite entries")
        if not np.all(np.isfinite(y)):
            raise ValueError("output contains non-finite entries")
        if np.any(X < 0):
            raise ValueError("inputs must be elementwise nonnegative")
        object.__setattr__(self, "inputs", X)
        object.__setattr__(self, "output", y)

    @property
    def n(self) -> int:
        return self.inputs.shape[0]

    @property
    def d(self) -> int:
        return self.inputs.shape[1]

    def restrict(self, columns) -> "Dataset":
        """Dataset with only the given input columns (order preserved)."""
        cols = list(columns)
        if not cols:
            raise ValueError("need at least one column")
        return Dataset(self.inputs[:, cols], self.output)

    def subset(self, rows) -> "Dataset":
        """Dataset with only the given observations (order preserved)."""
        idx = np.asarray(rows)
        return Dataset(self.inputs[idx], self.output[idx])
