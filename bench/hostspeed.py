"""Timings scaled by the host's speed at the time they were taken.

The speed of a shared virtual machine swings by up to 1.6x, for seconds to
minutes at a time, and CPU time swings with wall time, so a median over one
run cannot average it away.  ``Sampler`` therefore times a fixed pure-Python
loop (small tuples, dict and set look-ups, like pact's own inner loops) when
it starts, when it stops and every ``INTERVAL_S`` seconds in between, from a
``SIGALRM`` handler in the measured thread, and scales a wall time by
``LOOP_S`` over the mean loop time.  ``LOOP_S`` is a fixed constant, about
the loop's median time on a 2.1 GHz 2-vCPU VM, so a scaled
figure reads as seconds on such a machine, and a program that gets faster
lowers it by the same share as its wall time.  The handler's own time is
taken out of the wall time before scaling.
"""
from __future__ import annotations

import signal
import statistics
import time

LOOP_ITERATIONS = 4000
LOOP_S = 0.0015
INTERVAL_S = 0.15


def loop_s() -> float:
    """Seconds of the reference loop, the fastest of three tries, so that an
    interrupt during one try does not read as a slow host."""
    best = float("inf")
    for _ in range(3):
        t0 = time.perf_counter()
        counts: dict = {}
        seen = set()
        for i in range(LOOP_ITERATIONS):
            key = (i % 97, i % 89)
            counts[key] = counts.get(key, 0) + 1
            if key not in seen:
                seen.add(key)
        best = min(best, time.perf_counter() - t0)
    return best


class Sampler:
    """Context manager that samples ``loop_s`` while it is active.  Use it in
    the main thread only, around a window with no other ``SIGALRM`` user."""

    def __init__(self) -> None:
        self.samples: list[float] = []
        self.spent = 0.0  # seconds the handler took inside the window

    def _sample(self, signum=None, frame=None) -> None:
        t0 = time.perf_counter()
        self.samples.append(loop_s())
        self.spent += time.perf_counter() - t0

    def __enter__(self) -> "Sampler":
        self.samples.append(loop_s())
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self.samples.append(loop_s())

    def unscaled(self, wall: float) -> float:
        """``wall``, a time measured inside the window, without the handler."""
        return wall - self.spent

    def scaled(self, wall: float) -> float:
        """``wall`` without the handler, scaled to the loop's nominal speed."""
        return self.unscaled(wall) * LOOP_S / statistics.fmean(self.samples)
