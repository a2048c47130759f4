"""Add the outcomes of finished benchmark runs to bench/reference.json.

    python3 bench/record_reference.py

Reads every run record in bench/out/ whose correctness gate passed and
stores the outcome of its first REPS replications (objective and support of
each successful fit, the keys of the failed fits and each CV sweep's
choice) under "<workload>/seed=<seed>".  Keys already present are kept as
they are, so the reference stays the one recorded on the commit that first
wrote it.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
REFERENCE = BENCH / "reference.json"
REPS = 2  # every run, traced or not, covers these replications
DIGITS = 12  # objectives are compared at 1e-6 relative


def _rep(key: str) -> int:
    """Replication of an operation or fit key "rep<r>/..."."""
    return int(key[3:key.index("/")])


def trim(summary: dict) -> dict:
    return {
        "sizes": summary["sizes"],
        "commit": summary["commit"],
        "fits": {
            k: [float(f"{obj:.{DIGITS}g}"), sup] for k, (obj, sup) in summary["fits"].items() if _rep(k) < REPS
        },
        "failed": [k for k in summary["failed"] if _rep(k) < REPS],
        "cv": {k: v for k, v in summary["cv"].items() if _rep(k) < REPS},
    }


def main() -> int:
    reference = json.loads(REFERENCE.read_text()) if REFERENCE.is_file() else {}
    added = []
    for path in sorted((BENCH / "out").glob("*.json")):
        doc = json.loads(path.read_text())
        key = f"{doc['workload']}/seed={doc['seed']}"
        if doc["correct"] and key not in reference:
            reference[key] = trim(doc["summary"])
            added.append(key)
    body = ",\n".join(f"{json.dumps(k)}: {json.dumps(v, sort_keys=True)}" for k, v in sorted(reference.items()))
    REFERENCE.write_text("{\n" + body + "\n}\n")
    print(f"added {len(added)} entries: {' '.join(added)}; {len(reference)} in all")
    return 0


if __name__ == "__main__":
    sys.exit(main())
