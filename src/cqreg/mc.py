"""Monte Carlo scenario generation, evaluation statistics and the sweep driver.

Scenarios follow an additive Cobb-Douglas design: inputs uniform on [1, 10],
a randomly located true support of size k_true with exponents summing to
0.8, and Gaussian noise whose variance is calibrated to the requested
signal-to-noise ratio.  Ground-truth quantile curves come from the analytic
Gaussian inverse CDF (`scipy.special.ndtri`).  `run_mc` fits every
estimator in full mode, on all n(n-1) Afriat rows.
"""

from __future__ import annotations

import json
import numbers
import os
from dataclasses import asdict, dataclass, field, replace
from typing import Any, Sequence

import numpy as np
from scipy.special import ndtr, ndtri

from .data import Dataset
from .estimators import EXPECTILE, QUANTILE, EstimatorSpec, fit, support
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

_REPORT_COLUMNS = (
    "method",
    "family",
    "tau",
    "n",
    "d",
    "k_true",
    "rho",
    "metric",
    "mean",
    "sd",
    "reps",
)


@dataclass(frozen=True)
class MCConfig:
    """One cell of the experimental design plus replication controls."""

    n: int = 100
    d: int = 6
    k_true: int = 2
    rho: float = 10.0
    taus: tuple[float, ...] = (0.5,)
    replications: int = 10
    seed: int = 0
    exponent_mode: str = "even"  # "even": 0.8/k_true each; "position": 0.8/1, 0.8/2, ...

    def __post_init__(self) -> None:
        if not isinstance(self.n, numbers.Integral) or self.n < 2:
            raise ValueError(f"n must be an integer of at least 2, got {self.n!r}")
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
        if self.exponent_mode not in ("even", "position"):
            raise ValueError(f"unknown exponent mode {self.exponent_mode!r}")


@dataclass(frozen=True)
class MCScenario:
    """A generated instance with its ground truth."""

    dataset: Dataset
    support_true: frozenset
    sigma: float
    signal: np.ndarray
    q_star: dict[float, np.ndarray]


def expectile_level_for_quantile(tau: float) -> float:
    """Expectile level whose Gaussian expectile equals the tau-quantile.

    Lets expectile fits be compared at a target quantile: under the
    scenario's Gaussian noise the conversion is analytic and scale-free.
    """
    if not 0 < tau < 1:
        raise ValueError("tau must lie in (0, 1)")
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
    if cfg.exponent_mode == "even":
        exponents = np.full(cfg.k_true, 0.8 / cfg.k_true)
    else:
        exponents = 0.8 / np.arange(1, cfg.k_true + 1)
    signal = np.prod(X[:, omega] ** exponents, axis=1)
    sigma = float(np.sqrt(signal.var() / cfg.rho))
    noise = rng.normal(0.0, sigma, cfg.n)
    y = signal + noise
    q_star = {float(t): signal + sigma * ndtri(t) for t in cfg.taus}
    return MCScenario(Dataset(X, y), frozenset(int(j) for j in omega), sigma, signal, q_star)


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
    failures_by_method: dict[str, int] = field(default_factory=dict)
    fold_failures_by_method: dict[str, int] = field(default_factory=dict)

    @property
    def failures(self) -> int:
        return sum(self.failures_by_method.values())

    @property
    def fold_failures(self) -> int:
        return sum(self.fold_failures_by_method.values())

    def to_csv(self, path: str | os.PathLike) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(",".join(_REPORT_COLUMNS) + "\n")
            for row in self.rows:
                handle.write(",".join(_format_cell(row[c]) for c in _REPORT_COLUMNS) + "\n")

    def to_json(self, path: str | os.PathLike) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            doc = {**asdict(self), "failures": self.failures, "fold_failures": self.fold_failures}
            json.dump(doc, handle, indent=2)
            handle.write("\n")


def _format_cell(value) -> str:
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _replicate(args: tuple) -> tuple[list[dict[str, Any]], dict[str, int], dict[str, int]]:
    """Worker: one replication of every method at every tau; returns its
    rows and, by method, its failed cells and failed CV fold fits."""
    cfg, rep, methods, cv = args
    scenario = generate_scenario(cfg, rep)
    rows: list[dict[str, Any]] = []
    failures = dict.fromkeys(methods, 0)
    fold_failures = dict.fromkeys(methods, 0)
    for name in methods:
        family, penalty_kind = METHODS[name]
        for tau in cfg.taus:
            level = tau if family == QUANTILE else expectile_level_for_quantile(tau)
            spec = EstimatorSpec(family, level)
            try:
                if penalty_kind is None:
                    final = fit(scenario.dataset, spec)
                else:
                    report = cross_validate(scenario.dataset, spec, penalty_kind, cv)
                    fold_failures[name] += report.failures
                    penalty = chosen_penalty(scenario.dataset, spec, report)
                    final = fit(scenario.dataset, replace(spec, penalty=penalty))
            except RuntimeError:
                failures[name] += 1
                continue
            selected = support(final)
            rows.append(
                {
                    "method": name,
                    "family": family,
                    "tau": float(tau),
                    "rep": rep,
                    "prediction_error": prediction_error(final.y_hat, scenario.q_star[float(tau)]),
                    "accuracy": accuracy(selected, scenario.support_true, cfg.k_true),
                    "false_positives": false_positives(selected, scenario.support_true),
                    "exact_support": exact_support(selected, scenario.support_true),
                }
            )
    return rows, failures, fold_failures


def run_mc(
    cfg: MCConfig,
    methods: Sequence[str],
    cv: CVConfig | None = None,
    workers: int | None = None,
) -> MetricsReport:
    """Generate, tune, fit and score every replication; fully deterministic
    per master seed regardless of worker count."""
    for name in methods:
        if name not in METHODS:
            raise ValueError(f"unknown method {name!r}; choose from {sorted(METHODS)}")
    if len(set(methods)) != len(methods):
        raise ValueError(f"methods must be distinct, got {tuple(methods)}")
    cv = cv if cv is not None else CVConfig()
    workers = workers if workers is not None else (os.cpu_count() or 1)
    if workers < 1:
        raise ValueError(f"workers must be at least 1, got {workers}")
    jobs = [(cfg, rep, tuple(methods), cv) for rep in range(cfg.replications)]
    if workers > 1 and cfg.replications > 1:
        # Imported here: it loads `multiprocessing`, which a serial run never uses.
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_replicate, jobs))
    else:
        results = [_replicate(job) for job in jobs]

    raw = [row for rows, _, _ in results for row in rows]
    failures = {name: sum(failed[name] for _, failed, _ in results) for name in methods}
    fold_failures = {name: sum(failed[name] for _, _, failed in results) for name in methods}

    out: list[dict[str, Any]] = []
    for name in methods:
        family, _ = METHODS[name]
        for tau in cfg.taus:
            cell = [r for r in raw if r["method"] == name and r["tau"] == float(tau)]
            for metric in _METRICS:
                values = np.array([r[metric] for r in cell])
                out.append(
                    {
                        "method": name,
                        "family": family,
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
    return MetricsReport(tuple(out), failures, fold_failures)
