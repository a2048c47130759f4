"""Digest of every fit the benchmark workloads make, to check that two
source trees fit bit for bit the same.

    python3 tools/fit_digest.py --workloads cqr-cv l0-bnb --seeds 0-19 --reps 0-1

Runs the workload functions of bench/workloads.py on each seed and
replication, records every result of `estimators.fit` and `tuning.fit`
through bench/instrument.py's FitRecorder, and prints one line per
workload: the fit count and a sha256 over each fit's label, arrays,
objective, status, iterations, nodes, constraints and unproven count (a
failed fit contributes its error text).  Wall times are left out.  It
imports `src/` and `bench/` of the tree it sits in, so to compare two
trees, run a copy of it in each.
"""

from __future__ import annotations

import argparse
import hashlib
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
ARRAYS = ("alpha", "beta", "eps_plus", "eps_minus", "y_hat", "z")
META = ("status", "iterations", "nodes", "constraints", "unproven")


def _import_bench():
    for path in (ROOT / "bench", ROOT / "src"):
        if str(path) not in sys.path:
            sys.path.insert(0, str(path))
    import instrument
    import workloads

    return instrument, workloads


def _hash_fit(sha, record) -> None:
    sha.update(record.key.encode())
    if record.result is None:
        sha.update(f"error: {record.error}".encode())
        return
    result = record.result
    for name in ARRAYS:
        value = getattr(result, name)
        sha.update(name.encode())
        if value is not None:
            sha.update(f"{value.dtype.str}{value.shape}".encode())
            sha.update(value.tobytes())
    sha.update(repr(float(result.objective)).encode())
    sha.update(repr([getattr(result.meta, name) for name in META]).encode())


def digest(workload: str, seeds, reps) -> tuple[int, str]:
    """(fit count, sha256 hex digest) over the fits of `workload` at each
    seed and replication, in run order."""
    instrument, workloads = _import_bench()
    sha = hashlib.sha256()
    count = 0
    for seed in seeds:
        recorder = instrument.FitRecorder()
        runner = workloads.Runner(workload, seed, recorder)
        patches = instrument.Patches()
        recorder.install(patches)
        try:
            for rep in reps:
                runner.run_rep(rep, workloads.instances(workload, seed, rep, lambda n: n))
        finally:
            patches.restore()
        sha.update(f"seed {seed}".encode())
        for record in recorder.records:
            _hash_fit(sha, record)
        count += len(recorder.records)
    return count, sha.hexdigest()


def _int_range(text: str) -> list[int]:
    """'3' -> [3], '0-4' -> [0, 1, 2, 3, 4], '1,5' -> [1, 5]."""
    values = []
    for part in text.split(","):
        first, _, last = part.partition("-")
        values.extend(range(int(first), int(last or first) + 1))
    return values


def main(argv=None) -> int:
    _, workloads = _import_bench()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", nargs="+", choices=list(workloads.WORKLOADS), default=list(workloads.WORKLOADS))
    parser.add_argument("--seeds", type=_int_range, default=[0], help="e.g. 0-19 or 0,3")
    parser.add_argument("--reps", type=_int_range, default=[0], help="replications, e.g. 0-1")
    args = parser.parse_args(argv)
    for name in args.workloads:
        count, hexdigest = digest(name, args.seeds, args.reps)
        print(f"{name} fits={count} sha256={hexdigest}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
