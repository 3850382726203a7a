"""The benchmark's own test: ``python -m pytest bench/test_smoke.py``."""

import subprocess
import sys
from pathlib import Path


def test_smoke_runs_every_workload_and_matches_digests():
    run = Path(__file__).resolve().parent / "run.py"
    proc = subprocess.run([sys.executable, str(run), "--smoke"], capture_output=True,
                          text=True, timeout=900)
    assert proc.returncode == 0, proc.stdout + proc.stderr
