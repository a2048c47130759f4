import subprocess
import sys
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[1] / "tools" / "fit_digest.py"


def test_fit_digest_repeats_across_processes():
    # Bit-for-bit claims compare digests taken in separate interpreters, so
    # nothing process-dependent may enter the hash.
    cmd = [sys.executable, str(SCRIPT), "--workloads", "l0-bnb", "--seeds", "0", "--reps", "0"]
    outputs = [subprocess.run(cmd, capture_output=True, text=True, check=True, timeout=300).stdout for _ in range(2)]
    assert outputs[0] == outputs[1]
    # One line for the seed, then the workload's total over every seed.
    (name, seed, seed_fits, seed_sha), (total_name, fits, sha) = [line.split() for line in outputs[0].splitlines()]
    assert name == total_name == "l0-bnb" and seed == "seed=0"
    assert fits == seed_fits != "fits=0"
    assert len(sha) == len(seed_sha) == len("sha256=") + 64 and sha != seed_sha
