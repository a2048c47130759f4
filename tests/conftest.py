import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import settings

import cqreg
from cqreg import Dataset

# Every run draws the same examples and keeps no example database, so a
# tier-1 result is reproducible; solve times vary too much for a deadline.
settings.register_profile("cqreg", derandomize=True, deadline=None, database=None)
settings.load_profile("cqreg")


def run_fresh(code: str) -> str:
    """Stdout of `code` run in a fresh interpreter that imports this cqreg;
    the test process has loaded most of scipy already.  A child that exits
    non-zero fails the test with the child's stderr as the message."""
    src = os.path.dirname(os.path.dirname(cqreg.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    if out.returncode != 0:
        pytest.fail(f"fresh interpreter exited with status {out.returncode}:\n{out.stderr}", pytrace=False)
    return out.stdout


def make_instance(n, d, seed=0, rho=10.0, k_true=None):
    """Cobb-Douglas style instance: U[1,10] inputs, SNR-calibrated noise."""
    rng = np.random.default_rng(seed)
    X = rng.uniform(1.0, 10.0, (n, d))
    k_true = k_true if k_true is not None else min(2, d)
    signal = np.prod(X[:, :k_true] ** (0.8 / k_true), axis=1)
    sigma = np.sqrt(signal.var() / rho)
    y = signal + rng.normal(0.0, sigma, n)
    return Dataset(X, y)


@pytest.fixture
def small_noisy():
    return make_instance(12, 3, seed=1)


@pytest.fixture
def noiseless_linear():
    rng = np.random.default_rng(7)
    X = rng.uniform(1.0, 10.0, (20, 2))
    return Dataset(X, X.sum(axis=1))
