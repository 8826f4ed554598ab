"""Times at a reference machine speed.

On a shared machine the speed of one core drifts by tens of percent from
one second to the next and over minutes (process time drifts with wall
time, so the process is slowed, not descheduled).  A wall-clock time then says more about the neighbours than
about dblkit.  A :class:`Clock` therefore interrupts the run every
``GAP_S`` seconds of wall time (``SIGALRM``) with a calibration slice:
fixed pure-Python work that calls no dblkit code, so no change to dblkit
changes it.  The reference time of an interval is its wall time less the
slices inside it, each piece between two slices scaled by
``REFERENCE_SLICE_S`` over the mean duration of those two slices.  It is
the time the interval would take on a machine on which one slice takes
``REFERENCE_SLICE_S``.

The speed changes within a tenth of a second (two slices 25 ms apart
differ by a median 4 %, four apart by 10 %), so a short verdict is best
scaled by slices right beside it: the workloads call :meth:`Clock.mark`
just before each verdict they time.
"""

from __future__ import annotations

import bisect
import itertools
import math
import signal
import statistics
import time
from collections import namedtuple

GAP_S = 0.025
# near the median slice on the 2-core machine of the reference figures
REFERENCE_SLICE_S = 1.5e-3

_Cell = namedtuple("_Cell", "src tgt")


class _Table:
    def __init__(self, n):
        self.n = n
        self.comp = {(a, b): (a * b + a + 1) % n for a in range(n) for b in range(n)}

    def compose(self, a, b):
        return self.comp[(a, b)]


def _slice():
    """Fixed work in dblkit's style: a law loop over a composition table
    through method calls, cells as named tuples grouped in dicts, text
    written and read back, set algebra.  In the reference machine's slow
    phases it slows about as much as dblkit's checks; a tight loop over one
    small dict slowed 6-10 % less, so the times it scaled read higher
    there."""
    t = _Table(9)
    bad = [
        (a, b, c)
        for a, b, c in itertools.product(range(t.n), repeat=3)
        if t.compose(t.compose(a, b), c) != t.compose(a, t.compose(b, c))
    ]
    cells = [_Cell(i % 7, (i * 3) % 7) for i in range(300)]
    by_src = {}
    for c in cells:
        by_src.setdefault(c.src, []).append(c)
    names = {f"c{i}_{c.src}": c for i, c in enumerate(cells)}
    text = "\n".join(f"mor {k} : {v.src} -> {v.tgt}" for k, v in sorted(names.items(), key=lambda kv: (kv[1].src, kv[0])))
    read = [line.split()[1] for line in text.splitlines() if line.startswith("mor")]
    pairs = {(c.src, c.tgt) for c in cells}
    return len(bad), all(names[k].src in by_src for k in read), len(pairs & {(b, a) for a, b in pairs})


class Clock:
    """Calibration slices of one run, and the reference seconds of any
    interval between its :meth:`start` and :meth:`stop`."""

    def __init__(self):
        self.starts, self.ends = [], []
        self._armed = False
        self._in_slice = False
        self._factors = None

    def _calibrate(self, *_):
        if self._in_slice:
            return  # the timer went off during a slice; the slice re-arms it
        self._in_slice = True
        start = time.perf_counter()
        _slice()
        self.starts.append(start)
        self.ends.append(time.perf_counter())
        self._in_slice = False
        self._factors = None
        if self._armed:
            signal.setitimer(signal.ITIMER_REAL, GAP_S)

    def start(self):
        signal.signal(signal.SIGALRM, self._calibrate)
        self._armed = True
        self._calibrate()

    def mark(self):
        """Take a slice now, so the verdict timed next lies between two
        slices taken beside it."""
        self._calibrate()

    def stop(self):
        """Disarm the timer and take a last slice, so every interval of the
        run lies between two slices.  The handler stays installed: a signal
        already pending then runs one more slice rather than the default
        action, which ends the process."""
        self._armed = False
        signal.setitimer(signal.ITIMER_REAL, 0)
        self._calibrate()

    def _factor(self, gap):
        """Reference over wall time in ``gap``, the time between slice
        ``gap`` and slice ``gap + 1`` (-1 before the first slice)."""
        if self._factors is None:
            took = [e - s for s, e in zip(self.starts, self.ends)]
            n = len(took)
            self._factors = [REFERENCE_SLICE_S / statistics.mean(took[max(0, g) : min(n, g + 2)]) for g in range(-1, n)]
        return self._factors[gap + 1]

    def seconds(self, a, b):
        """Reference seconds of the wall interval from ``a`` to ``b`` (two
        ``time.perf_counter()`` readings), less the slices inside it."""
        starts, ends = self.starts, self.ends
        gap = bisect.bisect_right(ends, a) - 1
        total, t = 0.0, a
        while t < b:
            gap_end = starts[gap + 1] if gap + 1 < len(starts) else math.inf
            total += max(0.0, min(b, gap_end) - t) * self._factor(gap)
            if b <= gap_end:
                break
            gap += 1
            t = ends[gap]
        return total
