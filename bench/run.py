"""Benchmark of cqreg's fitting and tuning paths.

    python3 bench/run.py --workload cqr-cv --seed 0 --seconds 25 --trace 0

Runs one workload (see workloads.py) in this process with one caller in a
closed loop, checks every result, prints each metric by name with its unit,
and ends with one JSON line: {"correct", "attempted", "failed", "metrics"}.
`--trace 0` reports the end-to-end metrics listed in BENCHMARK.json;
`--trace 1` runs one untraced and one traced batch and reports the
per-layer metrics.  The full record of a run (environment, every failed fit,
the gate's findings and, when traced, every span) is written to
bench/out/<workload>-seed<seed>-trace<0|1>.json.

Exit status: 0 when every check passes, 1 when the correctness gate finds a
mismatch, 2 when the benchmark cannot run here.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

# Pinned before numpy is first imported, so BLAS and OpenMP start one thread.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

# Limits that change which fits fail, and so what the benchmark measures.
FORBIDDEN_VARS = ("CQREG_ITER_LIMIT", "CQREG_NODE_LIMIT")

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
MANIFEST = ROOT / "BENCHMARK.json"
REFERENCE = BENCH / "reference.json"
OUT = BENCH / "out"
WORKLOAD_NAMES = ("cqr-cv", "cer-fit", "l0-bnb")

SETUP_REPEATS = 3  # setup_s is the median of this many set-ups
DEADLINE_S = 120.0  # an untraced run starts no replication likely to end later
TRACE_REPS = 2  # replications in each pass of a traced run
OBJ_RTOL = 1e-6
TAIL_BEYOND = 10  # fit_tail_s needs this many fits beyond it ...
TAIL_MIN_FITS = 20  # ... and at least this many fits in all

E2E_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "fits_per_s": "1/s",
    "fit_p50_s": "s",
    "fit_tail_s": "s",
    "cv_s": "s",
    "fail_ratio": "ratio",
    "peak_rss_mb": "MiB",
    "host_slowdown": "ratio",
}
# Timings adjusted to the speed probe's reference speed.
ADJUSTED = {
    "wall_s": "wall_adj_s",
    "fits_per_s": "fits_adj_per_s",
    "fit_p50_s": "fit_p50_adj_s",
    "fit_tail_s": "fit_tail_adj_s",
    "cv_s": "cv_adj_s",
}
E2E_UNITS.update({adj: E2E_UNITS[raw] for raw, adj in ADJUSTED.items()})


class BenchError(Exception):
    """The benchmark cannot run in this directory or environment."""


def layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_pct"):
        return "%"
    if name.endswith("_share"):
        return "ratio"
    return "count"


def import_cqreg():
    """Import cqreg from this checkout's src/, never from anywhere else."""
    if not (SRC / "cqreg" / "__init__.py").is_file():
        raise BenchError(f"no cqreg package under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import cqreg

    if not Path(cqreg.__file__).resolve().is_relative_to(SRC):
        raise BenchError(f"cqreg was imported from {cqreg.__file__}, not from {SRC}")
    return cqreg


def full_size(n: int) -> int:
    return n


def set_up(workload: str, seed: int, n_of=full_size) -> tuple[float, dict]:
    """Import cqreg, draw the first replication's instances and run the
    warm-up fits; timed."""
    start = time.perf_counter()
    import_cqreg()
    import workloads

    data = workloads.instances(workload, seed, 0, n_of)
    workloads.warm_up()
    return time.perf_counter() - start, data


def probe_setup(workload: str, seed: int) -> float:
    """Time one set-up in a fresh interpreter, where the imports are cold."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-only",
           "--workload", workload, "--seed", str(seed)]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=170)
    if done.returncode != 0:
        raise BenchError(f"set-up probe failed: {done.stderr.strip()}")
    return float(json.loads(done.stdout.strip().splitlines()[-1])["setup_s"])


def git_commit() -> str | None:
    """HEAD of the checkout when it is a git repository, else None."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        return None
    return None


def environment(seed: int) -> dict:
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "commit": git_commit(),
        "seed": seed,
        **{var: os.environ.get(var) for var in THREAD_VARS},
    }


def summarize(records, ops) -> dict:
    """Outcome of the untraced pass as the gate compares it: objective and
    support of every successful fit, failed fit keys, and each CV sweep's
    choice."""
    from cqreg.estimators import support

    fits = {}
    failed = []
    for r in records:
        if r.batch != 0:
            continue
        if r.ok:
            fits[r.key] = [r.result.objective, sorted(support(r.result))]
        else:
            failed.append(r.key)
    cv = {
        op.name: {"chosen": op.chosen, "failed_candidates": list(op.failed_candidates)}
        for op in ops
        if op.batch == 0 and op.kind == "cv"
    }
    return {"fits": fits, "failed": failed, "cv": cv}


def gate(records, ops, baseline: dict) -> list[str]:
    """Every mismatch: validate_fit on each successful fit, then objective,
    support and CV choice against `baseline` where both runs succeeded."""
    from cqreg.estimators import support
    from cqreg.model import FEAS_TOL, L0Penalty, validate_fit

    found = []
    for r in records:
        if not r.ok:
            continue
        where = f"{r.key} (batch {r.batch})"
        pen = r.spec.penalty
        l0 = isinstance(pen, L0Penalty)
        tol = r.spec.tol if r.spec.solve == "cuts" else FEAS_TOL
        for message in validate_fit(
            r.result, r.dataset, tol=tol, big_m=pen.big_m if l0 else None, k=pen.k if l0 else None
        ):
            found.append(f"{where}: validate_fit: {message}")
        if r.key not in baseline["fits"]:
            continue
        objective, chosen = baseline["fits"][r.key]
        if not math.isclose(r.result.objective, objective, rel_tol=OBJ_RTOL, abs_tol=1e-12):
            found.append(f"{where}: objective {r.result.objective!r} != reference {objective!r}")
        if sorted(support(r.result)) != chosen:
            found.append(f"{where}: support {sorted(support(r.result))} != reference {chosen}")
    for op in ops:
        ref = baseline["cv"].get(op.name)
        if op.kind != "cv" or ref is None or op.chosen is None or ref["chosen"] is None:
            continue
        if list(op.failed_candidates) == ref["failed_candidates"] and op.chosen != ref["chosen"]:
            found.append(f"{op.name} (batch {op.batch}): chose {op.chosen}, reference {ref['chosen']}")
    return found


def _timings(records, ops, reps, seconds) -> dict:
    """Timing metrics, with `seconds(start, end)` as the clock."""
    walls = [seconds(a, b) for a, b in reps]
    done = [sum(1 for r in records if r.ok and a <= r.start < b) for a, b in reps]
    latencies = sorted(seconds(r.start, r.end) for r in records)
    out = {
        "wall_s": statistics.median(walls),
        "fits_per_s": statistics.median(k / wall for k, wall in zip(done, walls)),
        "fit_p50_s": statistics.median(latencies),
    }
    cv_times = [seconds(op.start, op.end) for op in ops if op.kind == "cv"]
    if cv_times:
        out["cv_s"] = statistics.median(cv_times)
    if len(latencies) >= TAIL_MIN_FITS:
        out["fit_tail_s"] = latencies[-TAIL_BEYOND - 1]
    return out


def fit_metrics(records, ops, reps, probe) -> tuple[dict, dict]:
    """End-to-end metrics of the untraced pass, whose replications ran over
    the (start, end) intervals `reps`.

    Costs differ between instances, so timings are medians over
    replications and fits.  Each timing leaves out the speed probe's own
    runs, and is reported twice: as measured, and adjusted to the probe's
    reference speed (the `ADJUSTED` names), which removes most of the drift
    that other tenants of the host cause.
    """
    records = [r for r in records if r.batch == 0]
    ops = [op for op in ops if op.batch == 0]
    ok = sum(1 for r in records if r.ok)
    metrics = _timings(records, ops, reps, lambda a, b: b - a - probe.busy(a, b))
    for name, value in _timings(records, ops, reps, probe.adjusted).items():
        metrics[ADJUSTED[name]] = value
    metrics["fail_ratio"] = (len(records) - ok) / len(records)
    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics["host_slowdown"] = probe.slowdown()
    details = {"fits": len(records), "replications": len(reps), "probe_samples": len(probe.samples)}
    if "fit_tail_s" in metrics:
        details["fit_tail_percentile"] = 100.0 * (len(records) - TAIL_BEYOND) / len(records)
    return metrics, details


def fit_row(r) -> dict:
    from instrument import spec_label

    return {"key": r.key, "op": r.op, "batch": r.batch, "start": r.start, "seconds": r.seconds,
            "spec": spec_label(r.spec), "n": r.dataset.n, "fold": r.fold,
            "ok": r.ok, **({"error": r.error} if r.error else {})}


def replications(workload: str, seconds: float) -> int:
    """Replications an untraced run does: as many as take about `seconds`
    on the host where the benchmark was defined."""
    import workloads

    return max(1, round(seconds / workloads.REPLICATION_S[workload]))


def run(workload: str, seed: int, seconds: float, trace: bool, n_of=full_size) -> dict:
    """Set up, measure and check one workload; returns the run's record.

    Untraced, the first `replications(workload, seconds)` replications
    run, so a seed always gives the same fits and the same failures,
    however fast the host is.  Traced, the first TRACE_REPS replications
    run once untraced and once traced, so the counters cover a fixed
    amount of work.
    """
    took, first = set_up(workload, seed, n_of)
    setup_times = [took] + [probe_setup(workload, seed) for _ in range(SETUP_REPEATS - 1)]

    import instrument
    import workloads

    def data(rep: int) -> dict:
        return first if rep == 0 else workloads.instances(workload, seed, rep, n_of)

    originals = [(owner, attr, getattr(owner, attr)) for owner, attr in instrument.all_targets()]
    probe = instrument.SpeedProbe()
    recorder = instrument.FitRecorder(probe)
    runner = workloads.Runner(workload, seed, recorder)
    patches = instrument.Patches()
    recorder.install(patches)
    layers = None
    spans = []
    reps: list[tuple[float, float]] = []
    try:
        probe.sample()
        if trace:
            for rep in range(TRACE_REPS):
                reps.append(runner.run_rep(rep, data(rep)))
            probe.sample()
            # Spans must not contain the probe's kernel runs, so the traced
            # pass samples the probe only between replications.
            probe.enabled = False
            runner.batch = 1
            tracer = instrument.Tracer()
            runner.tracer = tracer
            trace_patches = instrument.Patches()
            tracer.install(trace_patches)
            try:
                tracer.op = "setup"
                traced_data = [workloads.instances(workload, seed, rep, n_of) for rep in range(TRACE_REPS)]
                setup_spans = tracer.take()
                traced = []
                for rep in range(TRACE_REPS):
                    traced.append(runner.run_rep(rep, traced_data[rep]))
                    probe.sample()
                spans = tracer.take()
            finally:
                trace_patches.restore()
                runner.tracer = None
            layers = instrument.layer_metrics(spans, sum(b - a for a, b in traced))
            layers["mc.scenario_s"] = sum(s.seconds for s in setup_spans if s.name == "mc.scenario")
            layers["trace.overhead_s"] = sum(probe.adjusted(a, b) for a, b in traced) - sum(
                probe.adjusted(a, b) for a, b in reps
            )
            spans = setup_spans + spans
        else:
            start = time.perf_counter()
            for rep in range(replications(workload, seconds)):
                if reps and time.perf_counter() - start + statistics.median(b - a for a, b in reps) > DEADLINE_S:
                    break
                reps.append(runner.run_rep(rep, data(rep)))
            probe.sample()
    finally:
        patches.restore()
    restored = all(getattr(owner, attr) is original for owner, attr, original in originals)

    records = recorder.records
    metrics, details = fit_metrics(records, runner.ops, reps, probe)
    # Set-up is mostly imports, which slow down with the host as the fits
    # do, so it is adjusted by the run's mean slowdown.
    metrics["setup_s"] = statistics.median(setup_times) / probe.slowdown()

    sizes = sorted({r.dataset.n for r in records})
    reference = json.loads(REFERENCE.read_text()) if REFERENCE.is_file() else {}
    ref_entry = reference.get(f"{workload}/seed={seed}")
    if ref_entry is not None and ref_entry.get("sizes") != sizes:
        ref_entry = None
    summary = summarize(records, runner.ops)
    mismatches = gate(records, runner.ops, ref_entry if ref_entry is not None else summary)
    if not restored:
        mismatches.append("a wrapped attribute was not restored")

    failures = [
        {"workload": workload, **fit_row(r)} for r in records if not r.ok
    ]
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "environment": environment(seed),
        "setup_s_samples": setup_times,
        "replication_s": [b - a for a, b in reps],
        "replication_adj_s": [probe.adjusted(a, b) for a, b in reps],
        "probe_s": [b - a for a, b in probe.samples],
        "details": details,
        "metrics": metrics,
        "layers": layers,
        "attempted": len(records),
        "failed": len(failures),
        "failures": failures,
        "ops": [vars(op) | {"seconds": op.end - op.start, "failed_candidates": list(op.failed_candidates)}
                for op in runner.ops],
        "fits": [fit_row(r) for r in records],
        "gate": {
            "reference": "stored reference" if ref_entry is not None else "untraced pass of this run",
            "checked_fits": sum(1 for r in records if r.ok),
            "mismatches": mismatches,
        },
        "correct": not mismatches,
        "summary": {"sizes": sizes, "commit": git_commit(), **summary},
        "spans": instrument.span_rows(spans, spans[0].start) if spans else [],
    }


def manifest_metrics(doc: dict, trace: bool) -> dict:
    """The metrics BENCHMARK.json lists for this mode, with their units."""
    manifest = json.loads(MANIFEST.read_text())
    source = doc["layers"] if trace else doc["metrics"]
    out = {}
    for entry in manifest["per_layer" if trace else "end_to_end"]:
        name = entry["name"]
        unit = layer_unit(name) if trace else E2E_UNITS[name]
        if name not in source or unit != entry["unit"]:
            raise BenchError(f"metric {name} ({entry['unit']}) is not produced by this benchmark")
        out[name] = {"value": float(source[name]), "unit": unit}
    return out


def report(doc: dict) -> None:
    env = doc["environment"]
    print(f"# workload={doc['workload']} seed={doc['seed']} trace={doc['trace']} "
          f"replications={doc['details']['replications']} fits={doc['details']['fits']}")
    print("# " + " ".join(f"{k}={v}" for k, v in env.items()))
    for name, value in doc["metrics"].items():
        print(f"{name:24s} {value:14.6g} {E2E_UNITS[name]}")
    if "fit_tail_percentile" in doc["details"]:
        print(f"{'':24s} fit_tail_s is p{doc['details']['fit_tail_percentile']:.1f} "
              f"of {doc['details']['fits']} fits")
    else:
        print(f"{'':24s} fit_tail_s omitted: fewer than {TAIL_MIN_FITS} fits")
    if doc["layers"]:
        for name, value in doc["layers"].items():
            print(f"{name:24s} {value:14.6g} {layer_unit(name)}")
    print(f"fail_ratio {doc['failed']}/{doc['attempted']}")
    for f in doc["failures"]:
        print(f"failed: {f['workload']} {f['key']} [{f['spec']}, n={f['n']}] {f['error']}")
    print(f"gate: {'pass' if doc['correct'] else 'FAIL'} ({doc['gate']['checked_fits']} fits checked "
          f"against the {doc['gate']['reference']})")
    for message in doc["gate"]["mismatches"]:
        print(f"mismatch: {message}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES, required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="time one set-up and print it as JSON (used for setup_s)")
    args = parser.parse_args(argv)
    try:
        for var in FORBIDDEN_VARS:
            if var in os.environ:
                raise BenchError(f"{var} is set; it changes which fits fail, so the run would not compare")
        if not MANIFEST.is_file():
            raise BenchError(f"{MANIFEST} is missing")
        if args.setup_only:
            took, _ = set_up(args.workload, args.seed)
            print(json.dumps({"setup_s": took}))
            return 0
        doc = run(args.workload, args.seed, args.seconds, bool(args.trace))
        line = {
            "correct": doc["correct"],
            "attempted": doc["attempted"],
            "failed": doc["failed"],
            "metrics": manifest_metrics(doc, bool(args.trace)),
        }
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    out = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(doc, indent=1) + "\n")
    report(doc)
    print(f"# record: {out.relative_to(ROOT)}")
    print(json.dumps(line))
    return 0 if doc["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
