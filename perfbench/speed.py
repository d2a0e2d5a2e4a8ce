"""Reference-speed timing for a machine shared with other work.

On a shared host the speed of a core drifts by a fifth or more within
seconds, as other tenants load it, which swamps the differences the
benchmark has to show. So every ``PERIOD_S`` seconds a SIGALRM handler times
a fixed unit of work on the CPU clock of the main thread, that is
on the core the benchmarked calls run on at that moment. Contention slows
that unit and the library alike: an interval's wall time, less the time the
handler took inside it, times the mean relative speed of the samples around
it, is the time it would have taken at reference speed.

The unit mixes what the library spends its time on: an FFT, small
symmetric eigendecompositions and many small numpy calls from Python.
Only the main thread runs the handler. Pool workers forked from it inherit
no interval timer, and system calls interrupted by the signal are retried.
"""

from __future__ import annotations

import signal
import time
from statistics import fmean

import numpy as np

PERIOD_S = 0.02
#: CPU seconds of one unit at reference speed (an uncontended core of a
#: 2-vCPU Xeon VM).
REFERENCE_UNIT_S = 0.6e-3


class SpeedProbe:
    """Samples how fast the main thread's core runs, while in a ``with``."""

    def __init__(self) -> None:
        rng = np.random.default_rng(0)
        self._signal = rng.random(1 << 13)
        spd = rng.random((9, 9))
        self._spd = spd @ spd.T
        self._small = rng.random(64)
        #: (wall start, wall end, CPU seconds of the unit), time.monotonic()
        self.samples: list[tuple[float, float, float]] = []
        self._previous = None

    def _sample(self, signum, frame) -> None:
        w0, t0 = time.monotonic(), time.thread_time()
        self._unit()
        t1 = time.thread_time()
        self.samples.append((w0, time.monotonic(), t1 - t0))

    def _unit(self) -> None:
        np.fft.rfft(self._signal)
        for _ in range(10):
            np.linalg.eigh(self._spd)
        for _ in range(30):
            (self._small * 2.0 + 1.0).sum()

    def __enter__(self) -> "SpeedProbe":
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        self.stop()

    def stop(self) -> None:
        if self._previous is not None:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, self._previous)
            self._previous = None

    def speed(self, start: float, end: float) -> float:
        """Mean speed relative to reference over [start, end] (monotonic s).
        Samples up to two periods outside the interval count, so that a
        short call still sees one."""
        near = [unit for w0, _, unit in self.samples
                if start - 2 * PERIOD_S <= w0 <= end + 2 * PERIOD_S]
        if not near:
            raise RuntimeError(f"no speed sample within {2 * PERIOD_S} s of an interval")
        return fmean(REFERENCE_UNIT_S / unit for unit in near)

    def at_reference(self, start: float, end: float, speed: float | None = None) -> float:
        """Seconds [start, end] would have taken at reference speed: its wall
        time less the handler's, times ``speed`` (default: measured over the
        interval itself)."""
        own = sum(w1 - w0 for w0, w1, _ in self.samples if start <= w0 and w1 <= end)
        return (end - start - own) * (self.speed(start, end) if speed is None else speed)
