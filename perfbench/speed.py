"""Host speed probe, used to take host drift out of reported times.

On a shared host the same work can take 1.5x to 2x longer for seconds at
a time while other tenants load the physical cores. A fixed reference
kernel (small numpy gathers and an interpreter loop, the mix of the
program's hot paths) is timed every INTERVAL_S from a SIGALRM handler
while the workload runs, so the samples estimate the host's speed over
exactly the measured interval. Times are then reported at the speed at
which the kernel takes REFERENCE_S: measured seconds times the mean of
REFERENCE_S / kernel time over the samples. The raw seconds stay in the
run record.
"""

from __future__ import annotations

import signal
import statistics
import time

import numpy as np

REFERENCE_S = 100e-6
INTERVAL_S = 0.05
_BASE = np.arange(363, dtype=np.int32)
_INDEX = (np.arange(363) * 7 % 363).astype(np.intp)


def kernel() -> float:
    """Seconds taken by one run of the fixed reference work."""
    t0 = time.perf_counter()
    a = _BASE
    for _ in range(40):
        a = a[_INDEX]
        s = 0
        for k in range(30):
            s += k
    return time.perf_counter() - t0


def factor(samples: list[float]) -> float:
    """Scale from measured seconds to seconds at the reference speed: the
    mean of the sampled speeds, as the samples are evenly spaced in time
    and work done is speed integrated over time."""
    return statistics.fmean(REFERENCE_S / t for t in samples)


def burst(count: int = 100) -> list[float]:
    return [kernel() for _ in range(count)]


class Sampler:
    """Times the kernel every INTERVAL_S of real time inside a `with`."""

    def __init__(self):
        self.samples: list[float] = []
        self.spent = 0.0            # seconds inside the handler, to subtract
        self._previous = None

    def __enter__(self) -> "Sampler":
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def _tick(self, signum, frame) -> None:
        warm = kernel()         # refills the caches the workload evicted
        self.samples.append(kernel())
        self.spent += warm + self.samples[-1]
