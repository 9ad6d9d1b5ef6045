"""Host-speed sampling, so that times measured on a shared host compare.

On a host shared with other tenants the speed of a core changes by up to
twofold within seconds (another tenant on the same core, the clock frequency
following the host's load, or another tenant's traffic in the shared cache).
One invocation's wall time then says as much about the neighbours as about
the program.

``SpeedSampler`` measures the host's speed while the program runs: a timer
signal interrupts the process and its handler times a fixed reference
kernel.  The speed at a sample is ``kernel.nominal_s / duration``, so 1.0
means the kernel took its nominal time.  A wall time multiplied by the mean
speed over its interval is the time the same work takes on a host where the
kernel takes its nominal time, which is how the benchmark reports times
("reference seconds").  The handler runs only between Python bytecodes of
the main thread, so a long native call delays the next sample but is not
disturbed by it.  Samples are ``1 / OVERHEAD`` kernel durations apart, so
sampling costs about ``OVERHEAD`` of the run.

A neighbour slows different work by different amounts, so each workload
names the kernel that does the kind of work its time goes to (see
``workloads.REFERENCE``):

* ``small``: a Python loop of 16x16 NumPy products, like per-path stepping
  at a small basis; interpreter and call overhead.
* ``small+stream``: the same, then one product of an 8 MiB matrix with a
  vector, which streams through the shared cache like the convection
  contraction at a large basis.
"""

from __future__ import annotations

import signal
import statistics
import time
from dataclasses import dataclass
from typing import Callable

import numpy as np

OVERHEAD = 0.01  # share of the run spent in the reference kernel

_M = np.random.default_rng(20231209).random((16, 16)) / 16.0
_X0 = np.ones(16)


def _small_kernel() -> None:
    x = _X0
    for i in range(40):
        x = _M @ x + 0.001 * i


def _make_small_stream():
    a = np.random.default_rng(20231210).random((128, 8192))  # 8 MiB
    v = np.ones(8192)

    def kernel() -> None:
        _small_kernel()
        a @ v

    return kernel


@dataclass(frozen=True)
class Kernel:
    make: Callable[[], Callable[[], None]]
    nominal_s: float  # the kernel's time on the reference host


KERNELS = {
    "small": Kernel(lambda: _small_kernel, 100e-6),
    "small+stream": Kernel(_make_small_stream, 600e-6),
}


class SpeedSampler:
    """Samples host speed while started; ``factor`` averages it over an interval."""

    def __init__(self, kernel: str):
        spec = KERNELS[kernel]
        self.kernel = spec.make()
        self.nominal_s = spec.nominal_s
        self.period = spec.nominal_s / OVERHEAD
        self.samples: list[tuple[float, float]] = []  # (time, speed)
        self._previous = None

    def _sample(self, signum, frame):
        t0 = time.perf_counter()
        self.kernel()
        t1 = time.perf_counter()
        self.samples.append((t0, self.nominal_s / (t1 - t0)))

    def start(self) -> None:
        self.samples = []
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, self.period, self.period)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous or signal.SIG_DFL)

    def factor(self, t0: float, t1: float) -> float:
        """Mean speed over [t0, t1]; over every sample if none falls inside.

        Multiplying the interval's wall time by it gives reference seconds.
        """
        inside = [s for t, s in self.samples if t0 <= t <= t1]
        speeds = inside or [s for _, s in self.samples]
        if not speeds:
            # an interval shorter than one period: time the kernel now
            self._sample(None, None)
            speeds = [self.samples[-1][1]]
        return statistics.fmean(speeds)
