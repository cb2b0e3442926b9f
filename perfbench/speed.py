"""Machine-speed calibration for a shared, unisolated host.

On a small shared VM the same deterministic work can take 40-50% longer for
seconds to tens of seconds at a time while neighbours load the host.  Every
timing the benchmark reports as an end-to-end metric is therefore converted
to reference-speed seconds: each stretch of measured time is multiplied by
REFERENCE_KERNEL_S over the time of a fixed pure-Python kernel run at both
ends of the stretch.  Raw times are kept in the report line.

REFERENCE_KERNEL_S is about the kernel's best-of-three time on the 2-core
VM the benchmark was written on, in its faster phase, so there
reference-speed seconds are close to wall seconds.
"""

from __future__ import annotations

import math
import signal
from time import perf_counter

REFERENCE_KERNEL_S = 0.004
PERIOD_S = 0.5  # kernel timings per second of work: 2, at about 2.5% of the time


def _kernel() -> float:
    acc, table = 0.0, {}
    for i in range(40000):
        acc += math.sqrt(i) * 1.0001
        table[i & 255] = acc
    return acc


def kernel_s() -> float:
    """Best of three timings of the calibration kernel, in seconds."""
    best = math.inf
    for _ in range(3):
        t0 = perf_counter()
        _kernel()
        best = min(best, perf_counter() - t0)
    return best


class SpeedMeter:
    """Runs the kernel every PERIOD_S seconds from a SIGALRM handler while
    work runs, and converts intervals of that work to reference-speed time.

    The handler runs between Python bytecodes of the work it interrupts; its
    own duration is taken out of every interval.
    """

    def __init__(self):
        self.marks = []  # (handler start, handler end, kernel seconds)

    def _tick(self, signum=None, frame=None) -> None:
        t0 = perf_counter()
        k = kernel_s()
        self.marks.append((t0, perf_counter(), k))

    def start(self) -> None:
        self._tick()
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self._tick()

    def convert(self, a: float, b: float) -> tuple[float, float]:
        """(raw seconds, reference-speed seconds) of [a, b], calibration excluded."""
        raw = ref = 0.0
        for (_, start, k0), (end, _, k1) in zip(self.marks, self.marks[1:]):
            overlap = min(b, end) - max(a, start)
            if overlap > 0.0:
                raw += overlap
                ref += overlap * REFERENCE_KERNEL_S / (0.5 * (k0 + k1))
        return raw, ref
