"""Host speed, measured by a fixed numpy kernel timed between requests.

On a shared machine, neighbours slow every instruction this process runs.
On the 2-core reference host the slowdown flips between about 1x and 1.8x
every few hundred milliseconds, and the share of slow time drifts over
minutes, so medians of raw request times move by 15-45% from run to run.
The kernels below are benchmark code that no change to the program can
speed up. A kernel's speed is reference seconds / kernel seconds. It runs
just before every request and, from a timer signal, every 50-100 ms during a
request, so a request that spans several changes of the host's state gets
the mean speed over its whole duration; a single sample taken before a 1.5-s
request tracked it poorly. The time the ticks take is left out of the
request's time. The end-to-end metrics scale each request's time by its mean
speed, which reports it at reference-host speed; the raw wall-clock values
are printed beside them.
"""

from __future__ import annotations

import signal
import time
from dataclasses import dataclass
from typing import List, Tuple

import numpy as np


@dataclass(frozen=True)
class Kernel:
    """Attention blocks of a given size, run ``reps`` times.

    Neighbours slow small-array code, which is dominated by per-call
    overhead, more than BLAS-bound code, so each workload is scaled by a
    kernel whose arrays are the size of its own.
    """

    tokens: int
    width: int
    heads: int
    reps: int
    # seconds one run takes on the reference host when no neighbour slows
    # it: about its fastest runs on 2 shared cores, Python 3.11.7, numpy
    # 2.4.6, scipy-openblas 0.3.31 on one thread
    reference_s: float
    # wall seconds between ticks during a request: several per change of
    # the host's state, at a cost of about 4% of the window
    tick_s: float


# the default edit size (16+4 tokens, d=32), repeated
SMALL = Kernel(tokens=20, width=32, heads=1, reps=40, reference_s=1.10e-3, tick_s=0.05)
# one block at the ROADMAP mid size (256+4 tokens, d=128, 4 heads)
MID = Kernel(tokens=260, width=128, heads=4, reps=1, reference_s=3.1e-3, tick_s=0.1)

# The set-up reference: a fresh interpreter that imports the program's
# third-party dependencies, which no change to the program can speed up.
# Set-up is process start, imports and one request, whose cost the kernel
# above does not track; launched just before and just after each set-up
# probe, this reference does. SETUP_REFERENCE_S is its time to first output
# on the reference host when no neighbour slows it (the fast mode of its
# times).
SETUP_REFERENCE = "import numpy, scipy.ndimage"
SETUP_REFERENCE_S = 0.40


class HostSpeed:
    def __init__(self, kernel: Kernel):
        self.kernel = kernel
        self.reference_s = kernel.reference_s
        rng = np.random.default_rng(12345)
        self._x0 = rng.standard_normal((kernel.tokens, kernel.width)) * 0.5
        self._w = rng.standard_normal((kernel.width, kernel.width)) / np.sqrt(kernel.width)
        self.sample()

    def _kernel(self) -> np.ndarray:
        k = self.kernel
        n, d, heads, reps = k.tokens, k.width, k.heads, k.reps
        dh = d // heads
        x0, w = self._x0, self._w
        x = x0
        for _ in range(reps):
            q = (x @ w).reshape(n, heads, dh).transpose(1, 0, 2)
            s = q @ q.transpose(0, 2, 1) / np.sqrt(dh)
            s -= s.max(axis=-1, keepdims=True)
            e = np.exp(s)
            e /= e.sum(axis=-1, keepdims=True)
            x = x0 + 0.1 * (e @ q).transpose(1, 0, 2).reshape(n, d) @ w
            if not np.all(np.isfinite(x)):
                raise FloatingPointError("host-speed kernel diverged")
            x = np.array(x, copy=True)
        return x

    def sample(self) -> float:
        """Seconds one kernel run takes now."""
        start = time.perf_counter()
        self._kernel()
        return time.perf_counter() - start


class Ticker:
    """Runs the host-speed kernel every ``tick_s`` from SIGALRM while enabled.

    Each tick is kept as (start, end, kernel seconds). Python runs the handler
    in the main thread between two bytecodes, so a tick that falls inside a
    request ends before the request resumes, and its interval can be taken
    out of the request's time exactly.
    """

    def __init__(self, host: HostSpeed):
        self.host = host
        self.ticks: List[Tuple[float, float, float]] = []
        self.spent = 0.0  # seconds all ticks took
        self._busy = False
        self._previous = None

    def __enter__(self) -> "Ticker":
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        tick = self.host.kernel.tick_s
        signal.setitimer(signal.ITIMER_REAL, tick, tick)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def _tick(self, signum, frame) -> None:
        if self._busy:
            return
        self._busy = True
        try:
            start = time.perf_counter()
            seconds = self.host.sample()
            end = time.perf_counter()
            self.ticks.append((start, end, seconds))
            self.spent += end - start
        finally:
            self._busy = False

    def sample(self) -> float:
        """One kernel run outside any tick."""
        self._busy = True
        try:
            return self.host.sample()
        finally:
            self._busy = False

    def inside(self, start: float, end: float, first: int) -> List[Tuple[float, float, float]]:
        """Ticks from index ``first`` on that ran within [start, end]."""
        return [t for t in self.ticks[first:] if t[0] >= start and t[1] <= end]
