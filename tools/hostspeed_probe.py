"""Probe how the program's heap state moves the benchmark's MID host-speed kernel.

The benchmark scales each `edit-mid` request by the speed of a fixed numpy
kernel (`bench/hostspeed.MID`) timed next to it. That kernel's ~2 MB
temporaries come from the heap, so what the program leaves allocated, or
merely imported, can change the kernel's time although no instruction of
the kernel changed. This script runs REQUESTS `edit-mid` requests (seed
SEED) in this process and times SAMPLES kernel runs after each, the way the
benchmark samples it between requests.

Usage (from the repository root):

    OPENBLAS_NUM_THREADS=1 python3 tools/hostspeed_probe.py

It prints the kernel's median over all samples and the median of the first
sample after each request, in milliseconds, and whether scipy is loaded.
Compare two checkouts by running each copy's script; run both sides
alternately, since a shared host's speed drifts. `bench/hostspeed.py` and
`bench/workloads.py` are imported read-only, as
`tests/test_bench_digests.py` does.
"""

from __future__ import annotations

import os
import statistics
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
REQUESTS = 8
SAMPLES = 5
SEED = 0


def probe() -> dict:
    """The MID kernel's times in milliseconds, SAMPLES after each of
    REQUESTS edit-mid requests."""
    sys.path[:0] = [str(ROOT / "bench"), str(ROOT / "src")]
    from hostspeed import MID, HostSpeed
    from workloads import WORKLOADS

    workload = WORKLOADS["edit-mid"]
    speed = HostSpeed(MID)
    after = []
    with tempfile.TemporaryDirectory() as workdir:
        state = workload.setup(Path(workdir))
        for position in range(REQUESTS):
            workload.request(state, workload.index(SEED, position))
            after.append([1e3 * speed.sample() for _ in range(SAMPLES)])
    return {
        "median_ms": statistics.median(t for row in after for t in row),
        "first_median_ms": statistics.median(row[0] for row in after),
        "scipy_loaded": "scipy" in sys.modules,
        "samples": after,
    }


def main() -> int:
    if os.environ.get("OPENBLAS_NUM_THREADS") != "1":
        print("warning: the benchmark runs one BLAS thread; set OPENBLAS_NUM_THREADS=1",
              file=sys.stderr)
    got = probe()
    print(f"MID kernel after {REQUESTS} edit-mid requests x {SAMPLES} samples: "
          f"median {got['median_ms']:.2f} ms, first after each request "
          f"{got['first_median_ms']:.2f} ms, scipy loaded: {got['scipy_loaded']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
