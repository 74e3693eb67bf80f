"""Host pace: how fast this machine runs a fixed piece of Python right now.

The benchmark runs on a few vCPUs of a shared host whose speed swings by up
to a factor of two within a minute, in spells of seconds to minutes; CPU
time swings with wall time, so the vCPU itself runs slower.  A 30-s run
often sits inside one spell, so raw wall times of the same code spread by
more than 25% between runs.

The timed end-to-end metrics are therefore wall times scaled to a reference
pace: ``seconds * REF_CHUNK_S / pace``, where ``pace`` is the harmonic mean
of the times of ``chunk`` sampled evenly in time while the timed work ran
(``Sampler``).  ``chunk`` uses
only the standard library (integers, a dict, ``Fraction``), so no change to
the program can make it faster or slower: a program that does twice the
work still reads twice the time.  ``chunk`` runs with the garbage collector
off and frees all it allocates, so it neither triggers nor pays for a
collection of the program's heap.

The scaling removes most, not all, of the host's swing: the program touches
far more memory than ``chunk``, so the two do not slow by quite the same
factor.
"""

from __future__ import annotations

import gc
import signal
import time
from fractions import Fraction

# Time of one chunk at the reference pace (a quiet moment of a 2-vCPU
# shared virtual machine with Python 3.11).
REF_CHUNK_S = 250e-6

_TABLE = {i: (i * 2654435761) % 1000003 for i in range(1024)}


def chunk() -> int:
    """A fixed piece of pure-Python integer, dict and fraction work."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        x = Fraction(1, 3)
        for i in range(30):
            x = x * Fraction(i % 7 + 1, i % 5 + 2) + Fraction(1, i + 1)
        s = x.denominator % 1000000007
        for i in range(300):
            s = (s * 31 + i) % 1000000007
            s ^= _TABLE[i & 1023]
        return s
    finally:
        if enabled:
            gc.enable()


def scale(seconds: float, pace: float) -> float:
    """``seconds`` of wall time measured at ``pace``, at the reference
    pace."""
    return seconds * REF_CHUNK_S / pace


class Sampler:
    """Runs ``chunk`` every ``interval`` seconds of wall time from a SIGALRM
    handler while the ``with`` block runs, timing each.  ``spent`` is the
    wall time the handler took, to be subtracted from the block's wall time;
    ``pace()`` is the harmonic mean chunk time.  The previous handler and
    timer are restored on exit."""

    def __init__(self, interval: float):
        self.interval = interval
        self.samples: list = []
        self.spent = 0.0

    def _tick(self, signum, frame) -> None:
        clock = time.perf_counter
        t0 = clock()
        chunk()
        t1 = clock()
        self.samples.append(t1 - t0)
        self.spent += clock() - t0

    def __enter__(self) -> "Sampler":
        self._old = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._old)

    def pace(self) -> float:
        """Harmonic mean of the chunk times; chunks run now stand in when
        the block was too short for a sample.

        The host's speed at a moment is proportional to 1 / chunk time, and
        the samples fall evenly in wall time, so the mean of 1 / chunk time
        is the mean speed over the block: the work the block did is its wall
        time times that mean.  A median would miss slow moments that the
        wall time does include."""
        while len(self.samples) < 3:
            self._tick(None, None)
        return len(self.samples) / sum(1 / t for t in self.samples)
