"""The three benchmark workloads, run through cqreg's public API.

A run works through replications 0, 1, 2, ... of the paper's Cobb-Douglas
design (d=6, two true inputs, signal-to-noise 10) at the benchmark seed and
runs the workload's operations on each, at tau = 0.5.  The cost of these
fits varies a lot between instances, so every run covers several.
Functions are looked up on their modules at call time, so the recorder's
and tracer's wrappers see every call.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from cqreg import estimators, mc, tuning
from cqreg.estimators import EXPECTILE, QUANTILE, EstimatorSpec
from cqreg.mc import MCConfig
from cqreg.model import L0Penalty
from cqreg.tuning import CVConfig

from instrument import CvContext, FitRecorder, Tracer

TAU = 0.5
FOLDS = 5
LAMBDAS = tuple(float(v) for v in np.logspace(-2, 1, 10))
# The expectile IPM stops at its iteration limit on many instances once
# lambda exceeds about 0.2; below 0.1 its fits rarely fail.
CER_LAMBDAS = tuple(float(v) for v in np.logspace(-3, -1, 10))
L0_K = 2
L0_M_MULTIPLIER = 1.0

# Sample sizes each workload draws per replication.
SIZES = {"cqr-cv": (60, 100), "cer-fit": (30, 50), "l0-bnb": (20, 30)}
# Median time of one replication on the 2-core host where the benchmark was
# defined, under its usual load.  It sets how many replications a run of a
# given length does; the count must not depend on the speed of the run
# itself, or runs of one seed would attempt different fits.
REPLICATION_S = {"cqr-cv": 6.5, "cer-fit": 2.6, "l0-bnb": 1.35}


def instances(workload: str, seed: int, rep: int, n_of: Callable[[int], int]) -> dict:
    """One replication's instances keyed by nominal n; `n_of` maps a nominal
    n to the one drawn."""
    return {
        n: mc.generate_scenario(MCConfig(n=n_of(n), d=6, k_true=2, rho=10.0, seed=seed), rep).dataset
        for n in SIZES[workload]
    }


def warm_up() -> None:
    """Small fits that load the lazily imported HiGHS, SuperLU and graph code."""
    data = mc.generate_scenario(MCConfig(n=12, d=6, k_true=2, rho=10.0, seed=0), 0).dataset
    estimators.fit(data, EstimatorSpec(QUANTILE, TAU, solve="cuts"))
    estimators.fit(data, EstimatorSpec(EXPECTILE, TAU, penalty=L0Penalty(L0_K, 10.0)))


@dataclass
class OpRecord:
    name: str
    batch: int
    start: float
    end: float
    error: str | None
    kind: str = "fit"
    chosen: dict | None = None
    failed_candidates: tuple = ()


class Runner:
    """Runs the workload's operations with one caller in a closed loop."""

    def __init__(self, workload: str, seed: int, recorder: FitRecorder):
        self.workload = workload
        self.seed = seed
        self.recorder = recorder
        self.tracer: Tracer | None = None
        self.ops: list[OpRecord] = []
        self.rep = 0
        self.batch = 0

    def _op(self, name: str, kind: str, call: Callable):
        """Run one operation; a failed operation is recorded, never raised."""
        name = f"rep{self.rep}/{name}"
        self.recorder.op = name
        if self.tracer is not None:
            self.tracer.op = name
        start = time.perf_counter()
        error = None
        try:
            value = call()
        except RuntimeError as exc:
            value, error = None, f"{type(exc).__name__}: {exc}"
        self.ops.append(OpRecord(name, self.batch, start, time.perf_counter(), error, kind))
        return value

    def fit(self, name: str, dataset, spec):
        return self._op(name, "fit", lambda: estimators.fit(dataset, spec))

    def anchor(self, name: str, dataset, spec, multiplier: float):
        return self._op(name, "anchor", lambda: estimators.anchor_big_m(dataset, spec, multiplier))

    def cv(self, name: str, dataset, spec, penalty: str, cfg: CVConfig):
        assignment = tuning.kfold_split(dataset.n, cfg.folds, cfg.seed)
        self.recorder.cv = CvContext(dataset, assignment, cfg.folds)
        first = len(self.recorder.records)
        try:
            report = self._op(name, "cv", lambda: tuning.cross_validate(dataset, spec, penalty, cfg))
        finally:
            self.recorder.cv = None
        op = self.ops[-1]
        op.chosen = dict(report.chosen_params) if report is not None else None
        op.failed_candidates = tuple(
            sorted({r.candidate for r in self.recorder.records[first:] if r.fold is not None and not r.ok})
        )
        return report

    def run_rep(self, rep: int, data: dict) -> tuple[float, float]:
        """The workload's operations on one replication; returns when they
        started and ended."""
        self.rep = rep
        self.recorder.batch = self.batch
        start = time.perf_counter()
        WORKLOADS[self.workload](self, data)
        return start, time.perf_counter()


def cqr_cv(run: Runner, data: dict) -> None:
    """The LP path: L1-CQR CV in cuts mode and its refit, then one full CQR
    LP with all n(n-1) Afriat rows."""
    spec = EstimatorSpec(QUANTILE, TAU, solve="cuts")
    cfg = CVConfig(folds=FOLDS, seed=run.seed, lambda_grid=LAMBDAS)
    report = run.cv("cv", data[60], spec, "l1", cfg)
    if report is not None:
        penalty = tuning.chosen_penalty(data[60], spec, report)
        run.fit("refit", data[60], replace(spec, penalty=penalty))
    run.fit("cqr-full", data[100], EstimatorSpec(QUANTILE, TAU))


def cer_fit(run: Runner, data: dict) -> None:
    """The expectile IPM path: L1-CER CV in full mode, then a CER cut loop."""
    spec = EstimatorSpec(EXPECTILE, TAU)
    cfg = CVConfig(folds=FOLDS, seed=run.seed, lambda_grid=CER_LAMBDAS)
    run.cv("cv", data[30], spec, "l1", cfg)
    run.fit("cer-cuts", data[50], replace(spec, solve="cuts"))


def l0_bnb(run: Runner, data: dict) -> None:
    """Branch-and-bound over the selectors, with LP and QP relaxations."""
    cases = (
        ("l0-cqr-cuts", 30, QUANTILE, "cuts"),
        ("l0-cqr-full", 20, QUANTILE, "full"),
        ("l0-cer-full", 20, EXPECTILE, "full"),
    )
    for name, n, family, solve in cases:
        spec = EstimatorSpec(family, TAU, solve=solve)
        big_m = run.anchor(f"{name}/anchor", data[n], spec, L0_M_MULTIPLIER)
        if big_m is not None:
            run.fit(name, data[n], replace(spec, penalty=L0Penalty(L0_K, big_m)))


WORKLOADS = {"cqr-cv": cqr_cv, "cer-fit": cer_fit, "l0-bnb": l0_bnb}
