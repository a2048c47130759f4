"""Monte Carlo scenario generation, evaluation statistics and the sweep driver.

Scenarios follow an additive Cobb-Douglas design: inputs uniform on [1, 10],
a randomly located true support of size k_true, each input in it with
exponent 0.8/k_true (they sum to 0.8, so the true frontier is concave, as
the CQR/CER model class assumes), and Gaussian noise whose variance is
calibrated to the requested signal-to-noise ratio.  Ground-truth quantile
curves come from the analytic Gaussian inverse CDF (`scipy.special.ndtri`)
in a scenario's `q_star(tau)`.  `scipy.special` is imported there and in
`expectile_level_for_quantile`, not with this module: no fit uses it, and
it adds about 3.6 MiB to the peak memory of an `import cqreg`.  `run_mc`
maps one job per (replication, method, tau) cell, serially or through a
process pool, and fits every estimator in full mode, on all n(n-1) rows.
"""

from __future__ import annotations

import os
from dataclasses import asdict, dataclass, replace
from itertools import product
from typing import Any, Sequence

import numpy as np

from .data import Dataset
from .estimators import EXPECTILE, QUANTILE, EstimatorSpec, fit, support
from .model import is_integer
from .tuning import CVConfig, chosen_penalty, cross_validate

METHODS: dict[str, tuple[str, str | None]] = {
    "cqr": (QUANTILE, None),
    "cer": (EXPECTILE, None),
    "l1-cqr": (QUANTILE, "l1"),
    "l0-cqr": (QUANTILE, "l0"),
    "l1-cer": (EXPECTILE, "l1"),
    "l0-cer": (EXPECTILE, "l0"),
}

_METRICS = ("prediction_error", "accuracy", "false_positives", "exact_support")


@dataclass(frozen=True)
class MCConfig:
    """One cell of the experimental design plus replication controls: n
    observations of d inputs, k_true of them with exponent 0.8/k_true each."""

    n: int = 100
    d: int = 6
    k_true: int = 2
    rho: float = 10.0
    taus: tuple[float, ...] = (0.5,)
    replications: int = 10
    seed: int = 0

    def __post_init__(self) -> None:
        if not is_integer(self.n) or self.n < 2:
            raise ValueError(f"n must be an integer of at least 2, got {self.n!r}")
        for name in ("d", "k_true", "replications"):
            if not is_integer(getattr(self, name)):
                raise ValueError(f"{name} must be an integer, got {getattr(self, name)!r}")
        if not is_integer(self.seed) or self.seed < 0:
            raise ValueError(f"seed must be a nonnegative integer, got {self.seed!r}")
        if self.k_true < 1 or self.k_true > self.d:
            raise ValueError(f"k_true={self.k_true} must lie in [1, d={self.d}]")
        if not self.rho > 0:  # a NaN rho fails this too
            raise ValueError(f"rho must be positive, got {self.rho}")
        if self.replications < 1:
            raise ValueError("need at least one replication")
        if not self.taus or any(not 0 < t < 1 for t in self.taus):
            raise ValueError("tau values must lie in (0, 1)")
        if len(set(self.taus)) != len(self.taus):
            raise ValueError(f"tau values must be distinct, got {self.taus}")


@dataclass(frozen=True)
class MCScenario:
    """A generated instance with its ground truth."""

    dataset: Dataset
    support_true: frozenset
    sigma: float
    signal: np.ndarray

    def q_star(self, tau: float) -> np.ndarray:
        """The true tau-quantile curve."""
        from scipy.special import ndtri  # imported here: see the module docstring

        return self.signal + self.sigma * ndtri(tau)


def expectile_level_for_quantile(tau: float) -> float:
    """Expectile level whose Gaussian expectile equals the tau-quantile.

    Lets expectile fits be compared at a target quantile: under the
    scenario's Gaussian noise the conversion is analytic and scale-free.
    """
    if not 0 < tau < 1:
        raise ValueError("tau must lie in (0, 1)")
    from scipy.special import ndtr, ndtri  # imported here: see the module docstring

    q = ndtri(tau)
    # E[(q - X)+], with the normal density written out: importing
    # scipy.stats for it would double the package's import time.
    below = q * ndtr(q) + np.exp(-(q**2) / 2.0) / np.sqrt(2 * np.pi)
    above = below - q  # E[(X - q)+]
    return float(below / (below + above))


def generate_scenario(cfg: MCConfig, rep_index: int) -> MCScenario:
    """Deterministic per (master seed, replication index)."""
    rng = np.random.default_rng([cfg.seed, int(rep_index)])
    X = rng.uniform(1.0, 10.0, (cfg.n, cfg.d))
    omega = np.sort(rng.choice(cfg.d, size=cfg.k_true, replace=False))
    signal = np.prod(X[:, omega] ** (0.8 / cfg.k_true), axis=1)
    sigma = float(np.sqrt(signal.var() / cfg.rho))
    noise = rng.normal(0.0, sigma, cfg.n)
    y = signal + noise
    return MCScenario(Dataset(X, y), frozenset(int(j) for j in omega), sigma, signal)


def prediction_error(q_hat: np.ndarray, q_star: np.ndarray) -> float:
    """Squared-norm ratio ||q_hat - q_star||^2 / ||q_star||^2 (in-sample)."""
    q_hat = np.asarray(q_hat, dtype=float)
    q_star = np.asarray(q_star, dtype=float)
    if q_hat.shape != q_star.shape:
        raise ValueError("vectors must have equal length")
    denom = float(q_star @ q_star)
    if denom == 0.0:
        raise ValueError("ground-truth vector must not be all-zero")
    diff = q_hat - q_star
    return float(diff @ diff) / denom


def accuracy(support_hat, support_true, k_true: int) -> float:
    """Share of true variables recovered, in percent.  A selected variable
    outside the true support costs nothing here, so a dense fit scores 100;
    `false_positives` and `exact_support` count what it misses."""
    if k_true < 1:
        raise ValueError("k_true must be at least 1")
    hits = len(frozenset(support_hat) & frozenset(support_true))
    return 100.0 * hits / k_true


def false_positives(support_hat, support_true) -> int:
    """Number of selected variables outside the true support."""
    return len(frozenset(support_hat) - frozenset(support_true))


def exact_support(support_hat, support_true) -> float:
    """100 when the selected variables are exactly the true support, else 0."""
    return 100.0 if frozenset(support_hat) == frozenset(support_true) else 0.0


@dataclass(frozen=True)
class MetricsReport:
    """Long-format aggregate of one sweep: one row per (method, tau, metric).

    `failures_by_method` counts, for each method of the sweep, the
    replication cells that failed and were left out; `fold_failures_by_method`
    counts the CV fold fits that failed while tuning its cells.
    `failures` and `fold_failures` are their totals.
    """

    rows: tuple[dict[str, Any], ...]
    failures_by_method: dict[str, int]
    fold_failures_by_method: dict[str, int]

    @property
    def failures(self) -> int:
        return sum(self.failures_by_method.values())

    @property
    def fold_failures(self) -> int:
        return sum(self.fold_failures_by_method.values())

    def to_dict(self) -> dict[str, Any]:
        return {**asdict(self), "failures": self.failures, "fold_failures": self.fold_failures}


def _cell(cfg: MCConfig, rep: int, method: str, tau: float, cv: CVConfig) -> dict[str, Any]:
    """Worker: one method at one tau on replication `rep`'s scenario.  Its
    record holds the method, tau, the cell's failed CV fold fits and, unless
    a fit raised RuntimeError, the four metrics."""
    scenario = generate_scenario(cfg, rep)
    family, penalty_kind = METHODS[method]
    spec = EstimatorSpec(family, tau if family == QUANTILE else expectile_level_for_quantile(tau))
    record: dict[str, Any] = {"method": method, "tau": tau, "fold_failures": 0}
    try:
        if penalty_kind is None:
            final = fit(scenario.dataset, spec)
        else:
            report = cross_validate(scenario.dataset, spec, penalty_kind, cv)
            record["fold_failures"] = report.failures
            final = fit(scenario.dataset, replace(spec, penalty=chosen_penalty(scenario.dataset, spec, report)))
    except RuntimeError:
        return record
    selected = support(final)
    return {
        **record,
        "prediction_error": prediction_error(final.y_hat, scenario.q_star(tau)),
        "accuracy": accuracy(selected, scenario.support_true, cfg.k_true),
        "false_positives": false_positives(selected, scenario.support_true),
        "exact_support": exact_support(selected, scenario.support_true),
    }


def _check_methods(methods: Sequence[str]) -> None:
    """At least one method, each a key of METHODS, none twice."""
    if not methods:
        raise ValueError("need at least one method")
    for name in methods:
        if name not in METHODS:
            raise ValueError(f"unknown method {name!r}; choose from {sorted(METHODS)}")
    if len(set(methods)) != len(methods):
        raise ValueError(f"methods must be distinct, got {tuple(methods)}")


def run_mc(
    cfg: MCConfig,
    methods: Sequence[str],
    cv: CVConfig | None = None,
    workers: int | None = None,
) -> MetricsReport:
    """Generate, tune, fit and score every (replication, method, tau) cell;
    fully deterministic per master seed regardless of worker count."""
    _check_methods(methods)
    cv = cv if cv is not None else CVConfig()
    workers = workers if workers is not None else (os.cpu_count() or 1)
    if not is_integer(workers):
        raise ValueError(f"workers must be an integer, got {workers!r}")
    if workers < 1:
        raise ValueError(f"workers must be at least 1, got {workers}")
    cells = product(range(cfg.replications), methods, cfg.taus)
    jobs = [(cfg, rep, name, float(tau), cv) for rep, name, tau in cells]
    workers = min(workers, len(jobs))  # the pool starts all its processes at once
    if workers > 1:
        # Imported here: it loads `multiprocessing`, which a serial run never uses.
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            records = list(pool.map(_cell, *zip(*jobs)))
    else:
        records = list(map(_cell, *zip(*jobs)))

    # A failed cell's record holds no metrics; each (method, tau) averages
    # its values in replication order.
    failures = {name: sum("accuracy" not in r for r in records if r["method"] == name) for name in methods}
    fold_failures = {name: sum(r["fold_failures"] for r in records if r["method"] == name) for name in methods}
    rows: list[dict[str, Any]] = []
    for name, tau, metric in product(methods, cfg.taus, _METRICS):
        values = np.array([r[metric] for r in records if (r["method"], r["tau"]) == (name, tau) and metric in r])
        rows.append(
            {
                "method": name,
                "family": METHODS[name][0],
                "tau": float(tau),
                "n": cfg.n,
                "d": cfg.d,
                "k_true": cfg.k_true,
                "rho": cfg.rho,
                "metric": metric,
                "mean": float(values.mean()) if values.size else float("nan"),
                "sd": float(values.std(ddof=1)) if values.size > 1 else 0.0,
                "reps": int(values.size),
            }
        )
    return MetricsReport(tuple(rows), failures, fold_failures)
