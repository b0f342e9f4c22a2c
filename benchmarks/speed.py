"""Host speed, sampled throughout a run, to scale measured times to a reference speed.

On a shared host the same op can take 40% longer for seconds at a time,
because other tenants load the cores.  A fixed numpy kernel slows down by
the same factor, so a timer signal runs it every ``INTERVAL_S`` for the
whole run, between ops and inside them.  A measured interval is then
reported as its wall time, less the kernel runs inside it, multiplied by
``REFERENCE_S`` over the kernel time around it (see :meth:`Speed.seconds`):
seconds on a host where the kernel takes ``REFERENCE_S``.  The
kernel does what bellbidir's hot paths do (slicing a 10-qubit state, small
Hermitian eigensolves, Kronecker products), so it tracks the slowdowns they
see.  The program never calls it.
"""
from __future__ import annotations

import bisect
import contextlib
import signal
import statistics
import time

import numpy as np

REFERENCE_S = 7.5e-4  # the kernel's time on an idle core of the reference host (Xeon, 2 vCPU)
INTERVAL_S = 0.05  # one kernel run (~0.75 ms) every 50 ms costs ~1.5% of the run
WINDOW_S = 0.2
MIN_INSIDE = 4


class Speed:
    """Kernel runs: when each started and how long it took."""

    def __init__(self):
        matrix = np.random.default_rng(0).standard_normal((4, 4))
        self._matrix = matrix + matrix.T
        self._state = np.ones(2**10, dtype=complex)
        self.starts: list[float] = []
        self.durations: list[float] = []

    def _kernel(self) -> None:
        for _ in range(30):
            self._state.reshape([2] * 10)[:, 1].copy()
            np.linalg.eigvalsh(self._matrix)
            np.kron(self._matrix, self._matrix[:2, :2])

    def _on_alarm(self, signum, frame) -> None:
        start = time.perf_counter()
        self._kernel()
        self.starts.append(start)
        self.durations.append(time.perf_counter() - start)

    def start(self) -> None:
        self._on_alarm(None, None)
        signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    @contextlib.contextmanager
    def paused(self):
        """No kernel runs inside the block; the countdown to the next one resumes after it."""
        remaining, _ = signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, max(remaining, 1e-6), INTERVAL_S)

    def seconds(self, start: float, end: float) -> float:
        """Wall time of [start, end] without the kernel runs in it, at reference speed.

        An interval long enough to hold ``MIN_INSIDE`` kernel runs is scaled by
        their mean, the host's average speed over it.  A shorter one is scaled
        by the median run within ``WINDOW_S`` of it.
        """
        runs = self.durations
        first = bisect.bisect_left(self.starts, start)
        last = bisect.bisect_right(self.starts, end)
        inside = runs[first:last]
        if len(inside) >= MIN_INSIDE:
            kernel = statistics.fmean(inside)
        else:
            lo = bisect.bisect_left(self.starts, start - WINDOW_S)
            hi = bisect.bisect_right(self.starts, end + WINDOW_S)
            if lo == hi:  # no run in the window: take the nearest on each side
                lo, hi = max(0, lo - 1), min(len(runs), hi + 1)
            kernel = statistics.median(runs[lo:hi])
        return (end - start - sum(inside)) * REFERENCE_S / kernel
