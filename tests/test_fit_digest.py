import subprocess
import sys
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[1] / "tools" / "fit_digest.py"


def test_fit_digest_repeats_across_processes():
    # Bit-for-bit claims compare digests taken in separate interpreters, so
    # nothing process-dependent may enter the hash.
    cmd = [sys.executable, str(SCRIPT), "--workloads", "l0-bnb", "--seeds", "0", "--reps", "0"]
    lines = [subprocess.run(cmd, capture_output=True, text=True, check=True, timeout=300).stdout for _ in range(2)]
    assert lines[0] == lines[1]
    name, fits, sha = lines[0].split()
    assert name == "l0-bnb" and fits != "fits=0" and len(sha) == len("sha256=") + 64
