"""The machine's current speed, measured with a fixed reference kernel.

The host's speed for plain Python code drifts up to twofold, in phases from
under a second to minutes long, so raw wall times of the same code spread
far more than any change worth detecting.  Every benchmark time is therefore
scaled by how fast the machine ran a fixed piece of work around and during
it:

    normalised = wall * REFERENCE_S / (mean reference time measured around it)

``REFERENCE_S`` is a constant, so a normalised time is the wall time the
code would have taken on a machine that runs the reference in exactly
``REFERENCE_S`` seconds.  The reference is this file's own code and never
calls multising, so no change to the library can move it; a library change
that halves a wall time halves the normalised time too.

The reference does the kind of work the library does: a product of two
sparse polynomials held as dicts from exponent tuples to ``Fraction``.

While a ``Meter`` runs, a timer interrupts the measured code every
``INTERVAL_S`` seconds to run the reference once more, so that speed phases
shorter than an op are seen too.  ``clock()`` leaves out the time spent in
the reference, so the measured code is timed as if it had run uninterrupted.
"""

from __future__ import annotations

import signal
import time
from fractions import Fraction
from typing import List

# About the seconds one reference() call takes on a 2-vCPU Intel Xeon
# virtual machine with Python 3.11.7, in that machine's fast phases.
REFERENCE_S = 0.010
# Seconds of measured code between two timer-driven reference runs.
INTERVAL_S = 0.1


def _operand(shift: int) -> dict:
    return {
        (i, j, k): Fraction(i + 2 * j + shift, k + 1)
        for i in range(6) for j in range(6 - i) for k in range(6 - i - j)
    }


_LEFT = _operand(1)
_RIGHT = _operand(2)


def _kernel() -> dict:
    out: dict = {}
    get = out.get
    for (a0, a1, a2), ca in _LEFT.items():
        for (b0, b1, b2), cb in _RIGHT.items():
            key = (a0 + b0, a1 + b1, a2 + b2)
            out[key] = get(key, 0) + ca * cb
    return out


_EXPECTED = _kernel()


def reference() -> float:
    """Wall seconds of one run of the reference kernel."""
    started = time.perf_counter()
    out = _kernel()
    elapsed = time.perf_counter() - started
    if out != _EXPECTED:
        raise RuntimeError("the reference kernel computed a different result")
    return elapsed


_paused = 0.0


def clock() -> float:
    """``time.perf_counter()`` less the time spent in ``Meter`` references."""
    return time.perf_counter() - _paused


class Meter:
    """Reference times taken on demand and, between ``start`` and ``stop``,
    every ``INTERVAL_S`` seconds; ``times`` lists them in order."""

    def __init__(self) -> None:
        self.times: List[float] = []
        self._running = False

    def _take(self) -> None:
        global _paused
        started = time.perf_counter()
        self.times.append(reference())
        _paused += time.perf_counter() - started

    def _on_timer(self, signum, frame) -> None:
        self._take()
        if self._running:
            signal.setitimer(signal.ITIMER_REAL, INTERVAL_S)

    def measure(self) -> float:
        """Take one reference time now, with the timer held off."""
        signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGALRM})
        try:
            self._take()
        finally:
            signal.pthread_sigmask(signal.SIG_UNBLOCK, {signal.SIGALRM})
        return self.times[-1]

    def start(self) -> None:
        self._running = True
        signal.signal(signal.SIGALRM, self._on_timer)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S)

    def stop(self) -> None:
        self._running = False
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
