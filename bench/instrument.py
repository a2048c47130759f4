"""Pass-through wrappers around cqreg's public functions.

`Patches` swaps module or class attributes for wrappers and puts every
original back.  `FitRecorder` is installed in every run: it times each
`fit` call, including the fold fits that `cross_validate` swallows, and
keeps a record of every failure.  Between fits it lets `SpeedProbe` sample
the host's speed.  `Tracer` is installed only in the traced run: it records
one span per call at each layer boundary, and `layer_metrics` turns the
spans into the per-layer table.

Every wrapper returns what the wrapped function returns and re-raises what
it raises.  Wrappers only store references; anything derived from them is
computed after the timed batch.
"""

from __future__ import annotations

import statistics
import time
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np
from scipy import sparse
from scipy.sparse.linalg import splu

from cqreg import cuts, estimators, mc, tuning
from cqreg.model import L0Penalty, L1Penalty
from cqreg.solver import bnb as bnb_solver
from cqreg.solver import qp as qp_solver

LAYERS = ("model", "solver.lp", "solver.qp", "solver.bnb", "cuts", "tuning", "estimators", "mc")

# (owner, attribute, span name, layer).  Functions are wrapped in the
# namespace they are called from, so every call site is caught.
TRACE_TARGETS = (
    (estimators, "build_cqr", "model.build", "model"),
    (estimators, "build_cer", "model.build", "model"),
    (estimators, "add_l1", "model.build", "model"),
    (estimators, "add_l0", "model.build", "model"),
    (estimators, "extract_fit", "model.extract", "model"),
    (cuts, "extract_fit", "model.extract", "model"),
    (estimators, "solve_lp", "lp.solve", "solver.lp"),
    (cuts, "solve_lp", "lp.solve", "solver.lp"),
    (bnb_solver, "solve_arrays", "lp.node", "solver.lp"),
    (estimators, "solve_qp", "qp.call", "solver.qp"),
    (cuts, "solve_qp", "qp.call", "solver.qp"),
    (qp_solver.QpContext, "solve", "qp.solve", "solver.qp"),
    (estimators, "solve_mip", "bnb.solve", "solver.bnb"),
    (cuts, "solve_mip", "bnb.solve", "solver.bnb"),
    (estimators, "solve_with_cuts", "cuts.loop", "cuts"),
    (cuts, "initial_constraints", "cuts.seed", "cuts"),
    (cuts, "separate", "cuts.separate", "cuts"),
    (tuning, "cross_validate", "tuning.cv", "tuning"),
    (tuning, "fit", "tuning.fold_fit", "tuning"),
    (tuning, "anchor_big_m", "tuning.anchor", "tuning"),
    (estimators, "fit", "estimators.fit", "estimators"),
    (mc, "generate_scenario", "mc.scenario", "mc"),
)

RECORD_TARGETS = ((estimators, "fit"), (tuning, "fit"))


def all_targets() -> list[tuple[Any, str]]:
    """Every attribute any wrapper here replaces."""
    return list(RECORD_TARGETS) + [(owner, attr) for owner, attr, _, _ in TRACE_TARGETS]


class Patches:
    """Attribute replacements, undone in reverse order by `restore`."""

    def __init__(self) -> None:
        self._saved: list[tuple[Any, str, Any]] = []

    def wrap(self, owner: Any, attr: str, make: Callable[[Any], Any]) -> None:
        original = getattr(owner, attr)
        setattr(owner, attr, make(original))
        self._saved.append((owner, attr, original))

    def restore(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)


# Time of the probe kernel between fits on an unloaded 2-core 2.1 GHz Xeon
# host, where this benchmark was defined.  Adjusted timings are seconds at
# that speed.
KERNEL_REF_S = 0.0125
PROBE_EVERY_S = 0.1


class SpeedProbe:
    """The host's speed, sampled between fits by timing a fixed kernel that
    shares no code with cqreg: a sparse LU solve, dense products, an
    interpreter loop and a sum streamed from a 16 MB array, about 13 ms in
    all.

    Other tenants of a shared host slow every instruction by up to half
    for seconds to minutes at a time.  `adjusted` divides a timing by the
    kernel's slowdown around it, which gives the time at the reference speed
    and removes most of that drift.
    """

    def __init__(self) -> None:
        n = 3000
        self._lu = sparse.diags(
            [np.ones(n - 1), np.full(n, 4.0), np.ones(n - 1), np.ones(n - 10)], [-1, 0, 1, 10], format="csc"
        )
        self._rhs = np.ones(n)
        self._dense = np.random.default_rng(0).standard_normal((150, 150))
        self._stream = np.ones(2_000_000)
        self.samples: list[tuple[float, float]] = []
        self.enabled = True

    def _kernel(self) -> None:
        for _ in range(3):
            splu(self._lu).solve(self._rhs)
        for _ in range(12):
            self._dense @ self._dense
        total = 0
        for i in range(90_000):
            total += i * i
        self._stream.sum()

    def sample(self) -> None:
        start = time.perf_counter()
        self._kernel()
        self.samples.append((start, time.perf_counter()))

    def maybe_sample(self) -> None:
        if self.enabled and (not self.samples or time.perf_counter() - self.samples[-1][1] >= PROBE_EVERY_S):
            self.sample()

    def slowdown(self, start: float = -np.inf, end: float = np.inf) -> float:
        """Mean kernel time over [start, end], with the samples just before
        and after it, relative to KERNEL_REF_S."""
        inside = [s for s in self.samples if s[0] >= start and s[1] <= end]
        before = [s for s in self.samples if s[1] <= start][-1:]
        after = [s for s in self.samples if s[0] >= end][:1]
        return statistics.fmean(b - a for a, b in before + inside + after) / KERNEL_REF_S

    def busy(self, start: float, end: float) -> float:
        """Time the kernel ran within [start, end]."""
        return sum(b - a for a, b in self.samples if a >= start and b <= end)

    def adjusted(self, start: float, end: float) -> float:
        """Seconds [start, end] would take at the reference speed, leaving
        out the kernel runs inside it."""
        return (end - start - self.busy(start, end)) / self.slowdown(start, end)


def _error_text(exc: BaseException) -> str:
    return f"{type(exc).__name__}: {exc}"


def penalty_label(penalty) -> str:
    if isinstance(penalty, L1Penalty):
        return f"lam={penalty.lam:.6g}"
    if isinstance(penalty, L0Penalty):
        return f"k={penalty.k},M={penalty.big_m:.6g}"
    return "none"


def spec_label(spec) -> str:
    return f"{spec.family} level={spec.level:g} penalty={penalty_label(spec.penalty)} solve={spec.solve}"


@dataclass
class FitRecord:
    """One `fit` attempt; `dataset`, `spec` and `result` are kept for the gate."""

    key: str
    op: str
    batch: int
    start: float
    end: float
    error: str | None
    dataset: Any
    spec: Any
    result: Any
    fold: int | None = None
    candidate: str | None = None

    @property
    def ok(self) -> bool:
        return self.error is None

    @property
    def seconds(self) -> float:
        return self.end - self.start


@dataclass
class CvContext:
    dataset: Any
    assignment: np.ndarray
    folds: int


class FitRecorder:
    """Times every `fit` attempt and labels it with its operation.

    Fold fits inside `cross_validate` go through `tuning.fit`; its wrapper
    finds the fold from the training rows and routes the call through
    `estimators.fit`, which is the function `tuning.fit` is bound to.
    """

    def __init__(self, probe: SpeedProbe | None = None) -> None:
        self.records: list[FitRecord] = []
        self.probe = probe
        self.op = ""
        self.batch = 0
        self.cv: CvContext | None = None
        self._fold: int | None = None
        self._op_fits: dict[tuple[int, str], int] = defaultdict(int)

    def install(self, patches: Patches) -> None:
        patches.wrap(estimators, "fit", self._wrap_fit)
        patches.wrap(tuning, "fit", self._wrap_fold_fit)

    def _wrap_fit(self, original):
        def fit(dataset, spec, *args, **kwargs):
            if self.probe is not None:
                self.probe.maybe_sample()
            start = time.perf_counter()
            result = None
            error = None
            try:
                result = original(dataset, spec, *args, **kwargs)
            except BaseException as exc:
                error = _error_text(exc)
                raise
            finally:
                end = time.perf_counter()
                if result is not None and result.meta.status != "optimal":
                    error = f"status {result.meta.status}"
                self._record(start, end, dataset, spec, result, error)
            return result

        return fit

    def _wrap_fold_fit(self, original):
        def fold_fit(train, spec, *args, **kwargs):
            self._fold = self._find_fold(train)
            try:
                return estimators.fit(train, spec, *args, **kwargs)
            finally:
                self._fold = None

        return fold_fit

    def _find_fold(self, train) -> int | None:
        ctx = self.cv
        if ctx is None:
            return None
        for fold in range(ctx.folds):
            keep = ctx.assignment != fold
            if train.n == int(keep.sum()) and np.array_equal(train.output, ctx.dataset.output[keep]):
                return fold
        return None

    def _record(self, start, end, dataset, spec, result, error) -> None:
        candidate = None
        if self._fold is not None:
            candidate = penalty_label(spec.penalty)
            key = f"{self.op}/{candidate}/fold={self._fold}"
        else:
            count = self._op_fits[(self.batch, self.op)]
            self._op_fits[(self.batch, self.op)] = count + 1
            key = self.op if count == 0 else f"{self.op}#{count}"
        self.records.append(
            FitRecord(key, self.op, self.batch, start, end, error, dataset, spec, result, self._fold, candidate)
        )


@dataclass
class Span:
    name: str
    layer: str
    start: float
    end: float
    parent: int | None
    op: str
    error: str | None = None
    info: dict = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return self.end - self.start


def _solution_info(args, kwargs, sol) -> dict:
    return {"iters": int(sol.iterations), "status": str(sol.status.value), "nodes": int(sol.nodes)}


def _build_info(args, kwargs, problem) -> dict:
    before = args[0].n_rows if args and hasattr(args[0], "n_rows") else 0
    return {"rows": int(problem.n_rows - before)}


def _loop_info(args, kwargs, result) -> dict:
    return {"fit": result[0], "dataset": args[1], "tol": kwargs.get("tol", 0.01)}


_INFO = {
    "lp.solve": _solution_info,
    "lp.node": _solution_info,
    "qp.solve": _solution_info,
    "bnb.solve": _solution_info,
    "model.build": _build_info,
    "cuts.loop": _loop_info,
    "cuts.seed": lambda args, kwargs, pairs: {"pairs": pairs},
    "cuts.separate": lambda args, kwargs, violated: {"violated": violated},
}


class Tracer:
    """In-memory spans at every layer boundary named in TRACE_TARGETS."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.op = ""
        self._stack: list[int] = []

    def install(self, patches: Patches) -> None:
        for owner, attr, name, layer in TRACE_TARGETS:
            patches.wrap(owner, attr, self._wrapper(name, layer))

    def take(self) -> list[Span]:
        """Hand over the spans recorded so far and start a new list."""
        if self._stack:
            raise RuntimeError("spans are still open")
        spans, self.spans = self.spans, []
        return spans

    def _wrapper(self, name: str, layer: str):
        info_of = _INFO.get(name)

        def make(original):
            def traced(*args, **kwargs):
                parent = self._stack[-1] if self._stack else None
                span = Span(name, layer, time.perf_counter(), 0.0, parent, self.op)
                self._stack.append(len(self.spans))
                self.spans.append(span)
                try:
                    result = original(*args, **kwargs)
                except BaseException as exc:
                    span.end = time.perf_counter()
                    span.error = _error_text(exc)
                    if name == "cuts.loop" and hasattr(exc, "fit"):
                        span.info = _loop_info(args, kwargs, (exc.fit, exc.stats))
                    raise
                finally:
                    self._stack.pop()
                span.end = time.perf_counter()
                if info_of is not None:
                    span.info = info_of(args, kwargs, result)
                return result

            return traced

        return make


def _pct(part: float, whole: float) -> float:
    return 100.0 * part / whole if whole > 0 else 0.0


def _cut_loop_counts(spans: list[Span], children: dict[int, list[int]], loop: int):
    """Rounds, added pairs and seed size of one cut loop, replayed from its
    seed and separation spans exactly as `solve_with_cuts` applies them."""
    seed: set = set()
    added: dict = {}
    rounds = 0
    for c in children[loop]:
        child = spans[c]
        if child.name == "cuts.seed" and "pairs" in child.info:
            seed = set(child.info["pairs"])
        elif child.name == "cuts.separate" and "violated" in child.info:
            rounds += 1
            for i, m, _ in child.info["violated"]:
                if (i, m) not in seed:
                    added.setdefault((i, m), None)
    return rounds, list(added), len(seed)


def _binding(fit, dataset, pairs, tol: float) -> int:
    if not pairs:
        return 0
    i = np.array([p[0] for p in pairs])
    m = np.array([p[1] for p in pairs])
    x = dataset.inputs
    slack = fit.alpha[i] + np.einsum("kj,kj->k", fit.beta[i], x[m]) - fit.y_hat[m]
    return int(np.count_nonzero(np.abs(slack) <= tol))


def layer_metrics(spans: list[Span], wall: float) -> dict[str, float]:
    """Per-layer table of one traced batch (`spans` from that batch only)."""
    children: dict[int, list[int]] = defaultdict(list)
    for idx, span in enumerate(spans):
        if span.parent is not None:
            children[span.parent].append(idx)
    self_time = {layer: 0.0 for layer in LAYERS}
    for idx, span in enumerate(spans):
        self_time[span.layer] += span.seconds - sum(spans[c].seconds for c in children[idx])
    roots = sum(s.seconds for s in spans if s.parent is None)

    def named(*names):
        return [s for s in spans if s.name in names]

    def total(items):
        return float(sum(s.seconds for s in items))

    lp = named("lp.solve")
    qp = named("qp.solve")
    bnb = named("bnb.solve")
    bnb_ids = {idx for idx, s in enumerate(spans) if s.name == "bnb.solve"}
    nodes = [s for s in spans if s.parent in bnb_ids and s.name in ("lp.node", "qp.solve")]
    loop_ids = [idx for idx, s in enumerate(spans) if s.name == "cuts.loop"]
    masters = [
        spans[c]
        for idx in loop_ids
        for c in children[idx]
        if spans[c].name in ("lp.solve", "qp.call", "bnb.solve")
    ]
    rounds = added = final = binding = judged = 0
    for idx in loop_ids:
        r, pairs, seeded = _cut_loop_counts(spans, children, idx)
        rounds += r
        added += len(pairs)
        final += seeded + len(pairs)
        info = spans[idx].info
        if "fit" in info:
            binding += _binding(info["fit"], info["dataset"], pairs, info["tol"])
            judged += len(pairs)
    folds = named("tuning.fold_fit")
    fits = [idx for idx, s in enumerate(spans) if s.name == "estimators.fit"]

    out = {
        "model.build_calls": len(named("model.build")),
        "model.build_s": total(named("model.build")),
        "model.rows_built": sum(s.info.get("rows", 0) for s in named("model.build")),
        "model.extract_s": total(named("model.extract")),
        "lp.solves": len(lp),
        "lp.solve_s": total(lp),
        "lp.iters": sum(s.info.get("iters", 0) for s in lp),
        "lp.fail": sum(1 for s in lp if s.error or s.info.get("status") != "optimal"),
        "qp.solves": len(qp),
        "qp.solve_s": total(qp),
        "qp.iters": sum(s.info.get("iters", 0) for s in qp),
        "qp.iter_limit": sum(1 for s in qp if s.info.get("status") == "iteration_limit"),
        "bnb.solves": len(bnb),
        "bnb.solve_s": total(bnb),
        "bnb.nodes": len(nodes),
        "bnb.node_s": total(nodes),
        "bnb.node_iters": sum(s.info.get("iters", 0) for s in nodes),
        "cuts.loops": len(loop_ids),
        "cuts.rounds": rounds,
        "cuts.rows_added": added,
        "cuts.rows_final": final,
        "cuts.seed_s": total(named("cuts.seed")),
        "cuts.separate_s": total(named("cuts.separate")),
        "cuts.master_s": total(masters),
        "cuts.binding_share": binding / judged if judged else 0.0,
        "tuning.cv_s": total(named("tuning.cv")),
        "tuning.fold_fits": len(folds),
        "tuning.fold_fit_s": total(folds),
        "tuning.fold_failures": sum(1 for s in folds if s.error),
        "tuning.anchor_s": total(named("tuning.anchor")),
        "estimators.fit_calls": len(fits),
        "estimators.fit_self_s": sum(
            spans[i].seconds - sum(spans[c].seconds for c in children[i]) for i in fits
        ),
        "trace.wall_s": wall,
        "trace.unaccounted_s": wall - roots,
    }
    for layer in LAYERS:
        out[f"{layer}.self_s"] = self_time[layer]
        out[f"{layer}.self_pct"] = _pct(self_time[layer], wall)
    for name in ("lp.solve", "qp.solve", "bnb.solve", "bnb.node", "tuning.cv", "tuning.fold_fit"):
        out[f"{name}_pct"] = _pct(out[f"{name}_s"], wall)
    return out


def span_rows(spans: list[Span], origin: float) -> list[dict]:
    """Spans as JSON rows, times in seconds from `origin`."""
    return [
        {
            "name": s.name,
            "layer": s.layer,
            "start": s.start - origin,
            "end": s.end - origin,
            "parent": s.parent,
            "op": s.op,
            **({"error": s.error} if s.error else {}),
            **{k: v for k, v in s.info.items() if k in ("iters", "status", "nodes", "rows")},
        }
        for s in spans
    ]
