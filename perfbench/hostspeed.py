"""Host-speed sampling, so that timed work can be scaled to a fixed host speed.

The reference machine shares its cores with other tenants, and the same code
runs up to 1.8x slower for stretches of a fraction of a second to tens of
seconds. A `Sampler` runs a fixed kernel from a SIGALRM handler every
INTERVAL_S while it runs, so the kernel's mean time tracks how fast the host
was while the timed work ran. `scaled_s` turns a wall time into reference
seconds: the wall time less the sampler's own time, times the kernel's
REF_KERNEL_S over its mean time. A change to the program moves the scaled
time as it moves the wall time; a slow stretch of the host moves the
kernel's time with it and largely cancels.

A slow stretch slows interpreted row-level code more than small-batch array
work, so each workload samples with the kernel that resembles its work:
`python_kernel` for row-level Python, `numpy_kernel` for the network's
training steps.

Python runs signal handlers in the main thread between bytecodes, so the
kernel never runs inside a C call, and the program's results do not change.
"""

from __future__ import annotations

import functools
import signal
from time import perf_counter

INTERVAL_S = 0.02
WARMUP_CALLS = 20  # the interpreter specialises the kernel's bytecode first


def python_kernel() -> int:
    """A fixed mix of row-level work: format, split, parse and store."""
    table = {}
    for i in range(150):
        fields = ("%d,%d.%03d" % (i, i * 7, i)).split(",")
        table[fields[0]] = float(fields[1])
    return len(table)


@functools.cache
def _gemm_operands():
    import numpy as np

    x = np.linspace(-1.0, 1.0, 32 * 64).reshape(32, 64)
    w = np.linspace(-0.1, 0.1, 64 * 256).reshape(64, 256)
    return x, w


def numpy_kernel() -> float:
    """A fixed mix of small-batch array work, as in one LSTM step: a GEMM,
    then element-wise gates."""
    # imported here, so that a set-up child samples from before NumPy loads
    import numpy as np

    x, w = _gemm_operands()
    total = 0.0
    for _ in range(3):
        z = x @ w
        gates = 1.0 / (1.0 + np.exp(-z))
        total += float((gates * np.tanh(z)).sum())
    return total


# each kernel's time in the handler on the reference machine, about
REF_KERNEL_S = {python_kernel: 0.25e-3, numpy_kernel: 0.45e-3}


class Sampler:
    """Times `kernel` every INTERVAL_S between `resume` and `pause`. Each
    such stretch starts afresh; `samples` and `spent_s` are the current
    one's. One per process, as SIGALRM is."""

    def __init__(self, kernel=python_kernel):
        self.kernel = kernel
        t0 = perf_counter()
        for _ in range(WARMUP_CALLS):
            kernel()
        self.warmup_s = perf_counter() - t0
        self.samples: list[float] = []
        self.spent_s = 0.0  # the sampler's own time in this stretch
        self._previous = None

    def _time_kernel(self, signum=None, frame=None) -> None:
        t0 = perf_counter()
        self.kernel()
        seconds = perf_counter() - t0
        self.samples.append(seconds)
        self.spent_s += seconds

    def resume(self) -> None:
        self.samples, self.spent_s = [], 0.0
        self._previous = signal.signal(signal.SIGALRM, self._time_kernel)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def pause(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous or signal.SIG_DFL)
        self._time_kernel()  # a stretch shorter than INTERVAL_S still gets a sample

    def scaled_s(self, seconds: float) -> float:
        """`seconds` of work done in this stretch, less the sampler's own
        time, in reference seconds."""
        return seconds * REF_KERNEL_S[self.kernel] * len(self.samples) / sum(self.samples)
