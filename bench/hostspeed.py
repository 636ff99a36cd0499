"""Host speed sampled during a timed operation.

On a small shared host the same code runs up to twice as slow for seconds to
minutes at a time, on both vCPUs at once (see README.md). A run of at most
60 seconds cannot average that out. So while an operation (or a set-up
probe) runs, a timer signal interrupts it every ``PERIOD`` (``SETUP_PERIOD``)
seconds and times a fixed reference kernel, a pure-Python dictionary loop.
The operation's wall time is then scaled by ``REFERENCE_KERNEL_S`` over the
kernel's mean time during the operation, which gives the time the operation
would take on a host where the kernel takes ``REFERENCE_KERNEL_S``.

The kernel is interpreter work because the workloads' times move with it one
to one: on repeats of one ``cancer_grid`` grid point, log wall time against
log kernel time had a slope of 0.98. An ``argsort``/``cumsum`` kernel over
456 values moved less than the workloads (slope 1.3 on both), so scaling by
it left a fifth of a 2.3-fold host swing in the scaled times.

The handler runs in the main thread between bytecodes and touches none of
the program's state, so the operation's outputs do not change. It costs
about 0.6% of an operation's time and 3% of a set-up probe's.
"""

from __future__ import annotations

import contextlib
import signal
import statistics
from time import perf_counter

PERIOD = 0.05
# set-up takes well under a second; a shorter period still gives it a dozen
# samples or more
SETUP_PERIOD = 0.01
KERNEL_STEPS = 1500
# between the kernel's times in the fast (0.16 ms) and slow (about 0.33 ms)
# states of the 2-vCPU sandbox of the reference figures
REFERENCE_KERNEL_S = 0.00025


def _kernel() -> int:
    table: dict[int, int] = {}
    total = 0
    for i in range(KERNEL_STEPS):
        table[i & 63] = i
        total += table.get((i * 7) & 63, 0)
    return total


class HostSpeed:
    """Reference-kernel timings taken while ``sampling()`` is entered."""

    def __init__(self, period: float = PERIOD):
        self.period = period
        self.samples: list[float] = []

    def _sample(self, signum, frame) -> None:
        started = perf_counter()
        _kernel()
        self.samples.append(perf_counter() - started)

    @contextlib.contextmanager
    def sampling(self):
        self.samples = []
        previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, self.period, self.period)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0, 0)
            signal.signal(signal.SIGALRM, previous)

    def kernel_s(self) -> float:
        """Mean kernel time of the last sampled operation."""
        if not self.samples:
            raise RuntimeError("no host-speed sample was taken")
        return statistics.fmean(self.samples)
