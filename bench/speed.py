"""Put times measured on a host whose speed drifts onto one scale.

On a shared host the cores this process runs on get slower and faster by
tens of percent over tens of seconds: one octa-chain draw, the same work
every time, took 10.6 s and 19.1 s a few minutes apart.  Process CPU time
moves with wall time, so the process is not waiting, and no clock of the
process can tell the two apart.

`Speedometer` measures the host's speed while a run goes on.  Every
SAMPLE_CPU_SECONDS of the process's CPU time a signal handler runs a fixed
kernel of small complex numpy operations, the idiom of the library's hot
loops, that calls none of the library's code, and records how long it took.
`Speedometer.clock()` then runs at the speed of a host on which the kernel
takes KERNEL_SECONDS: each stretch of wall time between two samples is
scaled by KERNEL_SECONDS over the mean kernel time of the last WINDOW
samples, and the kernel's own time is left out.  A change to the library
changes the work the clock measures, never the kernel it is scaled by.
"""

from __future__ import annotations

import collections
import contextlib
import signal
import time

import numpy as np

SAMPLE_CPU_SECONDS = 0.05  # about 0.5% of the run goes to the kernel
WINDOW = 40  # samples in the moving mean, about 2 s of CPU time
# The kernel's time on a 2-CPU Xeon at 2.0 GHz in a fast phase, so that
# scaled seconds are about wall seconds there.
KERNEL_SECONDS = 125e-6

_X = np.arange(6, dtype=complex) + 0.5j


def kernel() -> np.ndarray:
    x = _X
    for _ in range(25):
        y = x * x + _X
        x = y / (1.0 + np.abs(y).sum())
    return x


def kernel_seconds(samples: int = WINDOW) -> float:
    """Mean time of `samples` kernel runs, taken now."""
    total = 0.0
    for _ in range(samples):
        kernel()
        t0 = time.perf_counter()
        kernel()
        total += time.perf_counter() - t0
    return total / samples


class Speedometer:
    def __init__(self):
        self.recent: collections.deque = collections.deque(maxlen=WINDOW)
        self.scale = 1.0  # scaled seconds per wall second, now
        self.scaled = 0.0  # scaled seconds up to `last`
        self.last = time.perf_counter()
        self.samples = 0
        self.kernel_total = 0.0

    def _record(self, seconds: float) -> None:
        self.recent.append(seconds)
        self.samples += 1
        self.kernel_total += seconds
        self.scale = KERNEL_SECONDS * len(self.recent) / sum(self.recent)

    def _sample(self, signum, frame) -> None:
        start = time.perf_counter()
        kernel()  # untimed: warms the caches, so the timed run sees the host, not the workload
        t0 = time.perf_counter()
        kernel()
        t1 = time.perf_counter()
        self._record(t1 - t0)
        self.scaled += (start - self.last) * self.scale
        self.last = t1

    def clock(self) -> float:
        """Scaled seconds since the speedometer started."""
        return self.scaled + (time.perf_counter() - self.last) * self.scale

    def mean_kernel_seconds(self) -> float:
        return self.kernel_total / self.samples

    @contextlib.contextmanager
    def running(self):
        """Sample for the duration of the block; the first WINDOW samples
        are taken up front, so that the clock starts on a measured scale."""
        for _ in range(WINDOW):
            self._record(kernel_seconds(1))
        self.last = time.perf_counter()
        previous = signal.signal(signal.SIGVTALRM, self._sample)
        signal.setitimer(signal.ITIMER_VIRTUAL, SAMPLE_CPU_SECONDS, SAMPLE_CPU_SECONDS)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_VIRTUAL, 0)
            signal.signal(signal.SIGVTALRM, previous)
