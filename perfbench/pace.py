"""Speed gauge: a fixed calibration loop sampled through the run.

The machine the benchmark was built on runs the same code at two speeds
about 2x apart. It switches between them every few seconds, and the share of
time spent in each drifts from minute to minute: one 25-second run spent none
of its time in the fast state, another three quarters. A run's raw timings
follow that share. So the benchmark measures the machine's speed all through
the run and divides each timing by the speed at the time it was taken.

A SIGALRM timer fires every EVERY_S seconds of wall time. Its handler runs
the calibration loop once untimed, so that what the program left in the
caches does not count as speed, then once timed. The time spent in the
handler is kept off the clock that the benchmark's timings use (`now`), so a
probe that lands inside a timed call does not lengthen it. The speed of an
interval is the mean of the probes inside it and within WINDOW_S of it: a
one-millisecond query gets about ten, a three-second stage about seventy.

The loop has two parts, timed apart, because the drift does not slow all
code alike: interpreter-bound code by up to 2x, numpy work on larger arrays
by about 1.25x. `interp` mirrors the per-op autograd path (attributes, dicts,
float arithmetic, numpy calls on small arrays); `arrays` the default-size
model (a BLAS product and an elementwise pass). A workload sets the share of
`interp` (`Workload.interp_share`); queries and dumps, which loop over
database entries in Python, use `interp` alone:

    speed    = share * interp / INTERP_REF_S + (1 - share) * arrays / ARRAYS_REF_S
    adjusted = raw / speed

The *_REF_S constants are about the parts' median times during runs on the
reference machine, so adjusted values read as seconds at that machine's
usual speed. The loop
uses no regavae code, so a change to the program moves the adjusted value as
it moves the raw one.
"""

from __future__ import annotations

import bisect
import contextlib
import signal
import statistics
import time

import numpy as np

clock = time.perf_counter

# About the parts' median times during runs on the reference machine.
INTERP_REF_S = 0.42e-3
ARRAYS_REF_S = 0.42e-3
# Wall time between probes.
EVERY_S = 0.05
# Probes this close to an interval judge its speed. The machine's state holds
# for seconds; a single probe varies by about 10%.
WINDOW_S = 0.25

_SMALL = np.linspace(-1.0, 1.0, 8 * 32).reshape(8, 32)
_WIDE = np.linspace(-1.0, 1.0, 128 * 128).reshape(128, 128) / 128.0
_TALL = np.linspace(-1.0, 1.0, 256 * 128).reshape(256, 128)


class _Cell:
    __slots__ = ("value",)

    def __init__(self):
        self.value = 0.0


def interp() -> float:
    """Interpreter-bound part. Its result only keeps the work from being skipped."""
    cells = [_Cell() for _ in range(16)]
    table: dict[int, float] = {}
    for i in range(400):
        c = cells[i & 15]
        c.value = c.value * 0.5 + table.get(i & 31, 1.0)
        table[i & 31] = c.value % 3.0
    x = _SMALL
    for _ in range(15):
        x = np.tanh(x * 0.9 + 0.1)
        x = x - x.mean(axis=1, keepdims=True)
    return cells[3].value + float(x[0, 0])


def arrays() -> float:
    """Array-bound part: a BLAS product and an elementwise pass over 256x128,
    as in the default-size model."""
    return float(np.tanh(_TALL @ _WIDE)[0, 0])


class Pace:
    """Probes on the run's timeline, and a clock that leaves them out."""

    def __init__(self, interp_share: float):
        self.share = interp_share
        self.mids: list[float] = []  # probe positions on the `now` clock, increasing
        self.times: list[float] = []  # interp() durations
        self.times_arrays: list[float] = []  # arrays() durations
        self.paused = 0.0  # wall seconds spent in the handler
        self._busy = False

    def now(self) -> float:
        """Wall clock minus the time spent probing."""
        while True:
            paused = self.paused
            t = clock()
            if self.paused == paused:
                return t - paused

    def _probe(self, signum=None, frame=None) -> None:
        if self._busy:
            return
        self._busy = True
        t0 = clock()
        interp()
        arrays()
        t1 = clock()
        interp()
        t2 = clock()
        arrays()
        t3 = clock()
        self.mids.append(t0 - self.paused)
        self.times.append(t2 - t1)
        self.times_arrays.append(t3 - t2)
        self.paused += clock() - t0
        self._busy = False

    @contextlib.contextmanager
    def sampling(self):
        """Probe every EVERY_S seconds inside the block."""
        previous = signal.signal(signal.SIGALRM, self._probe)
        signal.setitimer(signal.ITIMER_REAL, EVERY_S, EVERY_S)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, previous)

    @contextlib.contextmanager
    def held(self):
        """Hold probes back until the block ends. A probe inside a short
        request is left off its time, but what it leaves in the caches still
        slows the rest of the request; with probes every 50 ms, 2% of 1 ms
        queries got one, enough to move a p95 tail."""
        signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGALRM})
        try:
            yield
        finally:
            signal.pthread_sigmask(signal.SIG_UNBLOCK, {signal.SIGALRM})

    def speed(self, t0: float, t1: float, share: float | None = None) -> float:
        """Speed over [t0, t1] on the `now` clock: mean over the probes within
        WINDOW_S of it, and at least the nearest one on each side; 1.0 at
        reference speed. `share` overrides the workload's interp share."""
        share = self.share if share is None else share
        lo = max(min(bisect.bisect_left(self.mids, t0 - WINDOW_S),
                     bisect.bisect_left(self.mids, t0) - 1), 0)
        hi = min(max(bisect.bisect_right(self.mids, t1 + WINDOW_S),
                     bisect.bisect_right(self.mids, t1) + 1), len(self.mids))
        return (share * statistics.fmean(self.times[lo:hi]) / INTERP_REF_S
                + (1.0 - share) * statistics.fmean(self.times_arrays[lo:hi]) / ARRAYS_REF_S)

    def medians_ms(self) -> tuple[float, float]:
        return (1e3 * statistics.median(self.times), 1e3 * statistics.median(self.times_arrays))
