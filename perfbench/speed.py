"""Machine-speed reference for wall-clock figures on a host whose speed drifts.

On a shared host the same drop can take 40% longer from one minute to the
next, and a fixed computation slows down with it.  ``SpeedSampler`` runs a
small fixed numpy kernel on a wall-clock timer signal (``SIGALRM`` every
``PERIOD_S``) while the benchmark measures.  An interval's reference time is
its wall time, minus the kernel runs inside it, scaled by
``REF_KERNEL_S / (mean kernel time around the interval)``: what the interval
would have taken on a core that runs the kernel in ``REF_KERNEL_S``.
"""

from __future__ import annotations

import bisect
import signal
import time

import numpy as np

PERIOD_S = 0.02
MARGIN_S = 0.1  # kernel runs this close to an interval also describe its speed
REF_KERNEL_S = 2e-4  # nominal kernel time; sets the scale of reference seconds
_BASE = np.linspace(0.0, 1.0, 64)


def kernel() -> None:
    """Fixed work of the program's kind: many numpy calls on short vectors."""
    a = _BASE
    for _ in range(50):
        a = np.abs(a - 0.5) * 0.5 + np.sqrt(a)


class SpeedSampler:
    """Times ``kernel`` every ``PERIOD_S`` of wall time inside a ``with`` block."""

    def __init__(self) -> None:
        self.starts: list[float] = []
        self.durations: list[float] = []

    def _sample(self, signum, frame) -> None:
        t0 = time.perf_counter()
        kernel()
        self.durations.append(time.perf_counter() - t0)
        self.starts.append(t0)

    def __enter__(self) -> "SpeedSampler":
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def _window(self, t0: float, t1: float) -> list[float]:
        return self.durations[bisect.bisect_left(self.starts, t0) : bisect.bisect_right(self.starts, t1)]

    def program_time(self, t0: float, t1: float) -> float:
        """Wall time of [t0, t1] minus the kernel runs that interrupted it."""
        return (t1 - t0) - sum(self._window(t0, t1))

    def reference_time(self, t0: float, t1: float) -> float:
        """``program_time`` at the reference speed."""
        around = self._window(t0 - MARGIN_S, t1 + MARGIN_S)
        if not around:
            raise RuntimeError("no speed sample near the interval; is the sampler running?")
        return self.program_time(t0, t1) * REF_KERNEL_S / (sum(around) / len(around))
