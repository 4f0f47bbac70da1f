"""A clock that advances at a reference host speed.

The small shared hosts this benchmark is meant for switch between a fast
and a slow state every few seconds, about 1.8x apart, as other tenants load
the machine. Wall times of one workload then spread by 20-30 % from run to
run, more than any bound a regression check could use. This clock samples
the host's speed while the program runs: a SIGALRM timer fires every
PERIOD_S, and the handler times a fixed pure-Python loop. Until the next
sample the clock advances by the wall time elapsed, scaled by
REFERENCE_LOOP_S over the loop's last time. On a host where the loop takes
REFERENCE_LOOP_S the clock reads wall seconds. The samples cost 1-2 %
of the run, the same on every commit.

Python runs signal handlers between bytecodes of the main thread, so a
sample that falls inside a long native call is taken when it returns; the
interval before it is then scaled by the speed seen at its start.
"""

from __future__ import annotations

import signal
from time import perf_counter

PERIOD_S = 0.02
REFERENCE_LOOP_S = 2.0e-4
LOOP_N = 1000
# tuple-keyed dict lookups and modular arithmetic, like the program's
# polynomial and field code; a bare integer loop tracked the slow phases
# of the host less closely
_TABLE = {(k, k + 1): k for k in range(512)}


def _loop_seconds():
    t = perf_counter()
    s = 0
    table = _TABLE
    for i in range(LOOP_N):
        k = i & 511
        s = (s + table[(k, k + 1)] * i) % 1000003
    return perf_counter() - t


class ReferenceClock:
    """Context manager; ``now()`` reads reference seconds while it is active."""

    def __init__(self):
        self.samples = 0
        self._state = None  # (reference seconds, wall time, scale), replaced whole
        self._previous = None

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        self._state = (0.0, perf_counter(), REFERENCE_LOOP_S / _loop_seconds())
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def _sample(self, signum, frame):
        ref, t0, scale = self._state
        t = perf_counter()
        self._state = (ref + (t - t0) * scale, t, REFERENCE_LOOP_S / _loop_seconds())
        self.samples += 1

    def now(self):
        ref, t0, scale = self._state
        return ref + (perf_counter() - t0) * scale
